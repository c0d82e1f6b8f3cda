package main

import (
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/loadgen"
	"tcpfailover/internal/netstack"
)

// web_crash: the paper's mechanism end to end. Independent users arrive as
// an open-loop Poisson process (15 sessions/s) in each of two cells of a
// sharded testbed and run keep-alive HTTP sessions: a geometric number of
// requests (mean 5) with 1 s think times, response sizes from the web zoo's
// lognormal body. Each cell runs at about a sixth of the failover pair's
// byte capacity, so latency measures the protocol rather than a queue.
// Every cell's primary crashes in the middle of the measured window; the
// secondaries detect it, take over the service address, and the sessions
// carry on. This is the only workload with connection churn, detection,
// ARP takeover, span recording, loadgen, the HTTP application and lockstep
// windows.
//
// The session driver below mirrors internal/loadgen's Generator (every
// random draw of a session happens at its arrival instant, from a child
// stream of the cell's arrival generator), with two differences a benchmark
// needs: it reads every apps.HTTPClient's body verification when the
// session ends, and it issues no request due after the window closes, so
// the drain that follows only finishes work already counted.
var webCrash = &workload{
	name:    "web_crash",
	sharded: true,
	build:   func(cfg *config, shards int) instance { return newWeb(cfg, shards) },
}

const (
	webPort  = 9003
	webCells = 2
	webRate  = 15 // sessions per second per cell
	webChunk = time.Second
	webDrain = 20 * time.Second
)

// webSpec is the session mix. The sizes are the web zoo's lognormal body
// only: the zoo's 5% Pareto tail and 5% bulk pulls made p99 latency and CPU
// per frame vary 14-18% between seeds at the request counts one run can
// afford.
var webSpec = loadgen.Spec{
	Arrivals: loadgen.Poisson{Rate: webRate},
	Session: loadgen.Session{
		Requests: loadgen.Geometric{Mean: 5},
		Sizes:    loadgen.Clamp{S: loadgen.Lognormal{Median: 4096, Sigma: 1.0}, Min: 64, Max: 1 << 20},
		Think:    time.Second,
	},
}

type webSim struct {
	cfg    *config
	shards int

	warmup time.Duration
	window time.Duration

	ss   *tcpfailover.ShardedScenario
	gens []*webGen

	from, to   time.Duration
	chunksDone int
}

func newWeb(cfg *config, shards int) *webSim {
	s := &webSim{cfg: cfg, shards: shards, warmup: 10 * time.Second, window: 360 * time.Second}
	if cfg.small {
		s.warmup, s.window = 3*time.Second, 6*time.Second
	}
	return s
}

func (s *webSim) setup(ph *phaser) error {
	s.from = s.warmup
	s.to = s.from + s.window
	err := ph.do("build", func() error {
		cell := tcpfailover.LANOptions()
		cell.Seed = s.cfg.seed
		cell.ServerPorts = []uint16{webPort}
		cell.Spans = true
		cell.Faults = &fault.Plan{Schedule: []fault.Step{{At: s.from + s.window/2, Op: fault.OpCrashPrimary}}}
		ss, err := tcpfailover.NewSharded(tcpfailover.ShardedOptions{
			Cells:     webCells,
			Shards:    s.shards,
			Workers:   s.shards,
			Cell:      cell,
			CrossLink: ethernet.XConfig{Latency: 500 * time.Microsecond},
			Digest:    true,
		})
		s.ss = ss
		return err
	})
	if err != nil {
		return err
	}
	if err := ph.do("install", func() error {
		for _, cell := range s.ss.Cells {
			cell.Stream.Use()
			if err := cell.Group.OnEach(func(h *netstack.Host) error {
				_, err := apps.NewHTTPServer(h.TCP(), webPort)
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := ph.do("start", func() error {
		s.ss.Start()
		for _, cell := range s.ss.Cells {
			r := fault.NewRand(uint64(s.cfg.seed)).Split("web_crash").Split(cell.Scenario.ServiceAddr().String())
			g := &webGen{s: s, cell: cell, arrR: r.Split("arrivals"), sessR: r.Split("sessions"),
				live: map[*webSession]bool{}}
			s.gens = append(s.gens, g)
			cell.Stream.Use()
			g.scheduleNext(0)
		}
		return nil
	}); err != nil {
		return err
	}
	return ph.do("warmup", func() error { return s.ss.RunUntil(s.from) })
}

func (s *webSim) step() (bool, error) {
	s.chunksDone++
	end := min(s.from+time.Duration(s.chunksDone)*webChunk, s.to)
	return end >= s.to, s.ss.RunUntil(end)
}

func (s *webSim) view() *simView {
	v := &simView{group: s.ss.Group}
	for _, c := range s.ss.Cells {
		v.links = append(v.links, c.ServerLAN, c.ClientLink)
		v.regs = append(v.regs, c.Obs)
		v.spans = append(v.spans, c.Spans)
	}
	return v
}

func (s *webSim) outstanding() int64 {
	var n int64
	for _, g := range s.gens {
		n += g.attempted - g.completed - g.failed - g.refused
	}
	return n
}

func (s *webSim) score(o *outcome) error {
	if err := s.ss.RunWhile(func() bool { return s.outstanding() > 0 }, s.to+webDrain); err != nil {
		return err
	}
	o.window = s.window
	for _, g := range s.gens {
		o.attempted += g.attempted
		// Failed, refused, and still outstanding at the drain's end.
		o.failed += g.attempted - g.completed
		o.bytes += g.bytes
		o.lat = append(o.lat, g.lat...)
		o.crashLat = append(o.crashLat, g.crashLat...)
		for ws := range g.live {
			ws.settle()
		}
		if g.bad > 0 {
			o.problem("cell %d: %d sessions received bodies that failed pattern verification", g.cell.Index, g.bad)
		}
		rec := g.cell.Spans
		fail, ok1 := rec.FailureMark()
		det, ok2 := rec.DetectMark()
		tk, ok3 := rec.TakeoverMark()
		if !ok1 || !ok2 || !ok3 {
			o.problem("cell %d: failover did not complete (failure %t, detect %t, takeover %t)", g.cell.Index, ok1, ok2, ok3)
			continue
		}
		o.detect = append(o.detect, det-fail)
		o.takeover = append(o.takeover, tk-fail)
		for _, sp := range rec.Spans() {
			o.spans++
			if st, ok := rec.Stall(&sp); ok {
				o.stalls = append(o.stalls, st.Total)
			}
		}
	}
	if o.attempted == 0 {
		o.problem("no requests in the measured window")
	}
	return nil
}

// webGen is one cell's open-loop session generator.
type webGen struct {
	s           *webSim
	cell        *tcpfailover.Cell
	arrR, sessR *fault.Rand
	live        map[*webSession]bool // sessions not yet settled
	bad         int64                // sessions with a body that failed verification

	attempted, completed, failed, refused int64
	bytes                                 int64
	lat                                   []time.Duration
	crashLat                              []time.Duration // the requests of lat in flight during the outage
}

func (g *webGen) scheduleNext(now time.Duration) {
	next := webSpec.Arrivals.Next(now, g.arrR)
	if next >= g.s.to {
		return
	}
	g.cell.Sched.At(next, "perfbench.arrival", func() {
		g.launch()
		g.scheduleNext(next)
	})
}

func (g *webGen) measured(due time.Duration) bool { return due >= g.s.from && due < g.s.to }

// overlapsOutage reports whether a request due at due and done now was in
// flight at some instant between the cell's primary crash and the
// secondary's takeover. A crash already marked happened at or before now; a
// takeover not yet marked is still ahead.
func (g *webGen) overlapsOutage(due time.Duration) bool {
	rec := g.cell.Spans
	if _, ok := rec.FailureMark(); !ok {
		return false
	}
	tk, ok := rec.TakeoverMark()
	return !ok || due <= tk
}

// launch draws the whole session at its arrival instant, dials, and issues
// the first request at once (it rides the handshake).
func (g *webGen) launch() {
	sr := g.sessR.Split("session")
	sizes := make([]int64, webSpec.Session.Requests.Sample(sr))
	for i := range sizes {
		sizes[i] = webSpec.Session.Sizes.Sample(sr)
	}
	now := g.cell.Sched.Now()
	cl, err := apps.NewHTTPClient(g.cell.Client.TCP(), g.cell.Sched, g.cell.ServiceAddr(), webPort)
	if err != nil {
		if g.measured(now) {
			g.attempted++
			g.refused++
		}
		return
	}
	ws := &webSession{g: g, cl: cl, sizes: sizes}
	g.live[ws] = true
	cl.OnClosed = ws.closed
	ws.issue()
}

type webSession struct {
	g        *webGen
	cl       *apps.HTTPClient
	sizes    []int64
	next     int
	due      time.Duration
	inFlight bool
	dead     bool
}

func (ws *webSession) issue() {
	g := ws.g
	ws.due = g.cell.Sched.Now()
	if ws.due >= g.s.to {
		ws.settle() // the window has closed; the session ends here
		return
	}
	size := ws.sizes[ws.next]
	ws.next++
	last := ws.next == len(ws.sizes)
	ws.inFlight = true
	if g.measured(ws.due) {
		g.attempted++
	}
	ws.cl.Get(size, last, func() {
		ws.inFlight = false
		if g.measured(ws.due) {
			g.completed++
			g.bytes += size
			lat := g.cell.Sched.Now() - ws.due
			g.lat = append(g.lat, lat)
			if g.overlapsOutage(ws.due) {
				g.crashLat = append(g.crashLat, lat)
			}
		}
		if last || ws.dead {
			ws.settle()
			return
		}
		g.cell.Sched.After(webSpec.Session.Think, "perfbench.think", func() {
			if !ws.dead {
				ws.issue()
			}
		})
	})
}

// closed accounts a request that dies with its connection. The server's
// close after a session's last response also lands here.
func (ws *webSession) closed(error) {
	ws.dead = true
	ws.settle()
	if ws.inFlight {
		ws.inFlight = false
		if ws.g.measured(ws.due) {
			ws.g.failed++
		}
	}
}

// settle reads the session's body verification once and lets the session
// go, so finished sessions do not pile up on the heap.
func (ws *webSession) settle() {
	g := ws.g
	if !g.live[ws] {
		return
	}
	delete(g.live, ws)
	if ws.cl.BadBody {
		g.bad++
	}
}
