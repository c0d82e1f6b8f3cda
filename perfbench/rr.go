package main

import (
	"bytes"
	"fmt"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/tcp"
)

// rr_10k: 10,000 persistent request/reply connections through the failover
// pair on a quiet 10 GbE network. A closed loop: each client sends a 4 B
// request, waits for the 256 B reply, thinks 250 ms, and repeats. The
// working set is larger than the CPU caches, so the per-frame and per-event
// path dominates: scheduler, netstack ingress, flow-table demux, small-
// segment TCP and checksums. The request/reply code is the benchmark's own
// and lean; internal/apps is not on this path.
var rr10k = &workload{
	name:  "rr_10k",
	build: func(cfg *config, _ int) instance { return newRR(cfg) },
}

const (
	rrPort       = 9000
	rrReqBytes   = 4
	rrReplyBytes = 256
	rrThink      = 250 * time.Millisecond
	rrDialRamp   = 50 * time.Millisecond // dials spread over this interval
	rrWarmRounds = 4                     // rounds every connection completes in set-up
	rrChunk      = 100 * time.Millisecond
	rrDrain      = 5 * time.Second
)

type rrSim struct {
	cfg     *config
	conns   int
	window  time.Duration
	sc      *tcpfailover.Scenario
	scratch []byte
	reply   []byte // one reply: apps.Pattern from offset 0
	req     [rrReqBytes]byte

	established int
	rounds      int64 // completed rounds, all connections
	err         error

	// The measured window is [from, to): requests due inside it count.
	from, to   time.Duration
	attempted  int64
	completed  int64
	bytes      int64
	bad        int64 // replies whose bytes differ from the pattern
	lat        []time.Duration
	chunksDone int
}

func newRR(cfg *config) *rrSim {
	s := &rrSim{cfg: cfg, conns: 10000, window: 5 * time.Second}
	if cfg.small {
		s.conns, s.window = 300, 500*time.Millisecond
	}
	return s
}

// rrOptions is the quiet E8 scenario: failover pair, fixed per-packet host
// costs with NAPI batching (budget 8), 10 GbE full-duplex links that never
// queue, MSS 536 and 1 KB socket buffers so 10k connections fit, and no
// fault-detector traffic.
func rrOptions(seed int64) tcpfailover.Options {
	opts := tcpfailover.LANOptions()
	opts.Seed = seed
	opts.ServerPorts = []uint16{rrPort}
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
	off := false
	opts.StartDetectors = &off
	return opts
}

func (s *rrSim) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *rrSim) runUntil(cond func() bool, deadline time.Duration) error {
	if err := s.sc.RunUntil(func() bool { return s.err != nil || cond() }, deadline); err != nil {
		return err
	}
	return s.err
}

func (s *rrSim) setup(ph *phaser) error {
	// Count live pooled buffers, so the gate can see a leak.
	netbuf.SetLeakCheck(true)
	err := ph.do("build", func() error {
		sc, err := tcpfailover.NewScenario(rrOptions(s.cfg.seed))
		if err != nil {
			return err
		}
		sc.Sched.EnableDigest()
		s.sc = sc
		s.scratch = make([]byte, 2048)
		s.reply = make([]byte, rrReplyBytes)
		apps.Pattern(s.reply, 0)
		s.lat = make([]time.Duration, 0, int(float64(s.conns)*(s.window.Seconds()/rrThink.Seconds()+2)))
		return nil
	})
	if err != nil {
		return err
	}
	sc := s.sc
	if err := ph.do("install", func() error {
		sv := &rrServer{reply: s.reply, scratch: s.scratch}
		return sc.Group.OnEach(func(h *netstack.Host) error { return sv.listen(h, rrPort) })
	}); err != nil {
		return err
	}
	_ = ph.do("start", func() error { sc.Start(); return nil })
	err = ph.do("dial", func() error {
		// Each connection dials at a seeded instant of the ramp.
		r := fault.NewRand(uint64(s.cfg.seed)).Split("rr_10k.dial")
		for range s.conns {
			cl := &rrClient{s: s}
			sc.Sched.At(sc.Now()+r.Durationn(rrDialRamp), "perfbench.dial", func() {
				conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), rrPort)
				if err != nil {
					s.fail(fmt.Errorf("dial: %w", err))
					return
				}
				cl.c = conn
				conn.OnEstablished(cl.established)
				conn.OnReadable(cl.readable)
				conn.OnWritable(cl.flush)
			})
		}
		return s.runUntil(func() bool { return s.established == s.conns }, time.Minute)
	})
	if err != nil {
		return err
	}
	err = ph.do("warmup", func() error {
		target := int64(s.conns) * rrWarmRounds
		return s.runUntil(func() bool { return s.rounds >= target }, 10*time.Minute)
	})
	s.from = sc.Now()
	s.to = s.from + s.window
	return err
}

func (s *rrSim) step() (bool, error) {
	s.chunksDone++
	end := s.from + time.Duration(s.chunksDone)*rrChunk
	if err := s.sc.Run(end - s.sc.Now()); err != nil {
		return false, err
	}
	return end >= s.to, s.err
}

func (s *rrSim) view() *simView {
	return &simView{
		links:   []*ethernet.Segment{s.sc.ServerLAN, s.sc.ClientLink},
		regs:    []*obs.Registry{s.sc.Obs},
		sched:   s.sc.Sched,
		checkNB: true,
	}
}

func (s *rrSim) score(o *outcome) error {
	// Let every request due inside the window finish.
	_ = s.runUntil(func() bool { return s.completed == s.attempted }, s.to+rrDrain)
	o.attempted = s.attempted
	o.failed = s.attempted - s.completed
	o.bytes = s.bytes
	o.window = s.window
	o.lat = s.lat
	if s.err != nil {
		o.problem("%v", s.err)
	}
	if s.bad > 0 {
		o.problem("%d replies failed pattern verification", s.bad)
	}
	if s.attempted == 0 {
		o.problem("no requests in the measured window")
	}
	return nil
}

// rrServer answers each 4-byte request with one reply block. Both replicas
// run it and produce byte-identical replies.
type rrServer struct {
	reply   []byte
	scratch []byte
}

func (sv *rrServer) listen(h *netstack.Host, port uint16) error {
	_, err := h.TCP().Listen(port, func(c *tcp.Conn) {
		sc := &rrServerConn{sv: sv, c: c}
		c.OnReadable(sc.pump)
		c.OnWritable(sc.pump)
	})
	return err
}

type rrServerConn struct {
	sv     *rrServer
	c      *tcp.Conn
	reqGot int // request bytes toward the next request
	owed   int // replies not yet fully written
	off    int // bytes of the current reply already written
}

func (sc *rrServerConn) pump() {
	for {
		for sc.owed > 0 {
			m, err := sc.c.Write(sc.sv.reply[sc.off:])
			if err != nil {
				return
			}
			sc.off += m
			if sc.off < len(sc.sv.reply) {
				return // send buffer full; OnWritable resumes
			}
			sc.off = 0
			sc.owed--
		}
		n, err := sc.c.Read(sc.sv.scratch)
		if n == 0 {
			if err != nil {
				sc.c.Abort()
			}
			return
		}
		sc.reqGot += n
		sc.owed += sc.reqGot / rrReqBytes
		sc.reqGot %= rrReqBytes
	}
}

// rrClient runs the closed loop on one connection.
type rrClient struct {
	s       *rrSim
	c       *tcp.Conn
	got     int // reply bytes received toward the current round
	pending int // request bytes not yet accepted by the send buffer
	due     time.Duration
}

func (cl *rrClient) established() {
	cl.s.established++
	cl.send()
}

func (cl *rrClient) send() {
	s := cl.s
	cl.due = s.sc.Now()
	if cl.due >= s.from && cl.due < s.to {
		s.attempted++
	}
	cl.pending += rrReqBytes
	cl.flush()
}

func (cl *rrClient) flush() {
	if cl.pending == 0 {
		return
	}
	n, err := cl.c.Write(cl.s.req[:cl.pending])
	if err != nil {
		cl.s.fail(fmt.Errorf("client write: %w", err))
		return
	}
	cl.pending -= n
}

func (cl *rrClient) readable() {
	s := cl.s
	for {
		n, err := cl.c.Read(s.scratch)
		if n == 0 {
			if err != nil {
				s.fail(fmt.Errorf("client read: %w", err))
			}
			return
		}
		p := s.scratch[:n]
		for len(p) > 0 {
			k := min(len(p), rrReplyBytes-cl.got)
			if !bytes.Equal(p[:k], s.reply[cl.got:cl.got+k]) {
				s.bad++
			}
			p = p[k:]
			cl.got += k
			if cl.got < rrReplyBytes {
				continue
			}
			cl.got = 0
			s.rounds++
			if cl.due >= s.from && cl.due < s.to {
				s.completed++
				s.bytes += rrReplyBytes
				s.lat = append(s.lat, s.sc.Now()-cl.due)
			}
			// Think, then send the next request. AfterArg with a top-level
			// function keeps the round allocation-free.
			s.sc.Sched.AfterArg(rrThink, "perfbench.think", rrThinkDone, cl)
		}
	}
}

func rrThinkDone(v any) { v.(*rrClient).send() }
