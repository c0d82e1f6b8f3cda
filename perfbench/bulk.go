package main

import (
	"bytes"
	"fmt"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/tcp"
)

// bulk_recv: Figure 5's server-to-client stream through the failover pair on
// the paper's calibrated 100 Mbit/s half-duplex LAN. apps.NewPushServer runs
// on both replicas and apps.NewReceiver verifies every byte. This is the
// per-byte path: application buffer fill and verify, checksums over full
// segments, TCP ring copies, and the primary bridge matching the two
// replicas' output byte for byte.
//
// Beside the stream, a probe connection sends a 4 B request every 5 ms on a
// fixed schedule (an open loop) and times each 256 B reply from the instant
// the request was due: the latency an interactive request sees behind a bulk
// transfer. The probe adds about one frame in a hundred.
var bulkRecv = &workload{
	name:  "bulk_recv",
	build: func(cfg *config, _ int) instance { return newBulk(cfg) },
}

const (
	bulkPort      = 9001
	probePort     = 9002
	probeInterval = 5 * time.Millisecond
	bulkWarmup    = time.Second // of stream before the measured window
	bulkChunk     = 100 * time.Millisecond
	bulkDrain     = 5 * time.Second
)

type bulkSim struct {
	cfg    *config
	window time.Duration
	sc     *tcpfailover.Scenario
	recv   *apps.Receiver
	conn   *tcp.Conn
	err    error

	probe   *tcp.Conn
	reply   []byte
	scratch []byte
	req     [rrReqBytes]byte
	dues    []time.Duration // requests awaiting their reply, oldest first
	got     int             // bytes of the oldest reply received

	from, to   time.Duration
	recvFrom   int64 // stream bytes received when the window opened
	recvTo     int64
	attempted  int64
	completed  int64
	bad        int64
	lat        []time.Duration
	chunksDone int
}

func newBulk(cfg *config) *bulkSim {
	s := &bulkSim{cfg: cfg, window: 8 * time.Second}
	if cfg.small {
		s.window = time.Second
	}
	return s
}

func (s *bulkSim) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *bulkSim) setup(ph *phaser) error {
	// The stream is long enough never to end inside the window.
	size := int64(8 << 20 * (s.window + bulkWarmup + bulkDrain) / time.Second)
	err := ph.do("build", func() error {
		opts := tcpfailover.LANOptions()
		opts.Seed = s.cfg.seed
		opts.ServerPorts = []uint16{bulkPort, probePort}
		sc, err := tcpfailover.NewScenario(opts)
		if err != nil {
			return err
		}
		sc.Sched.EnableDigest()
		s.sc = sc
		s.reply = make([]byte, rrReplyBytes)
		apps.Pattern(s.reply, 0)
		s.scratch = make([]byte, 2048)
		s.lat = make([]time.Duration, 0, int(s.window/probeInterval)+1)
		return nil
	})
	if err != nil {
		return err
	}
	sc := s.sc
	if err := ph.do("install", func() error {
		sv := &rrServer{reply: s.reply, scratch: s.scratch}
		return sc.Group.OnEach(func(h *netstack.Host) error {
			if _, err := apps.NewPushServer(h.TCP(), bulkPort, size); err != nil {
				return err
			}
			return sv.listen(h, probePort)
		})
	}); err != nil {
		return err
	}
	_ = ph.do("start", func() error { sc.Start(); return nil })
	err = ph.do("dial", func() error {
		var err error
		if s.conn, err = sc.Client.TCP().Dial(sc.ServiceAddr(), bulkPort); err != nil {
			return err
		}
		s.recv = apps.NewReceiver(s.conn, sc.Sched)
		if s.probe, err = sc.Client.TCP().Dial(sc.ServiceAddr(), probePort); err != nil {
			return err
		}
		s.probe.OnReadable(s.probeReadable)
		return sc.RunUntil(func() bool {
			return s.conn.State() == tcp.StateEstablished && s.probe.State() == tcp.StateEstablished
		}, time.Minute)
	})
	if err != nil {
		return err
	}
	err = ph.do("warmup", func() error { return sc.Run(bulkWarmup) })
	s.from = sc.Now()
	s.to = s.from + s.window
	s.recvFrom = s.recv.Received
	sc.Sched.AtArg(s.from, "perfbench.probe", probeDue, s)
	return err
}

// probeDue sends one probe request and schedules the next on the grid.
func probeDue(v any) {
	s := v.(*bulkSim)
	now := s.sc.Now()
	if now >= s.to {
		return
	}
	s.attempted++
	s.dues = append(s.dues, now)
	if n, err := s.probe.Write(s.req[:]); err != nil || n != rrReqBytes {
		s.fail(fmt.Errorf("probe write: %d bytes, %v", n, err))
		return
	}
	s.sc.Sched.AtArg(now+probeInterval, "perfbench.probe", probeDue, s)
}

func (s *bulkSim) probeReadable() {
	for {
		n, err := s.probe.Read(s.scratch)
		if n == 0 {
			if err != nil {
				s.fail(fmt.Errorf("probe read: %w", err))
			}
			return
		}
		p := s.scratch[:n]
		for len(p) > 0 {
			k := min(len(p), rrReplyBytes-s.got)
			if !bytes.Equal(p[:k], s.reply[s.got:s.got+k]) {
				s.bad++
			}
			p = p[k:]
			s.got += k
			if s.got < rrReplyBytes {
				continue
			}
			s.got = 0
			if len(s.dues) == 0 {
				s.fail(fmt.Errorf("probe reply without a request"))
				return
			}
			s.completed++
			s.lat = append(s.lat, s.sc.Now()-s.dues[0])
			s.dues = s.dues[1:]
		}
	}
}

func (s *bulkSim) step() (bool, error) {
	s.chunksDone++
	end := s.from + time.Duration(s.chunksDone)*bulkChunk
	if err := s.sc.Run(end - s.sc.Now()); err != nil {
		return false, err
	}
	if end >= s.to {
		s.recvTo = s.recv.Received
		return true, s.err
	}
	return false, s.err
}

func (s *bulkSim) view() *simView {
	return &simView{
		links: []*ethernet.Segment{s.sc.ServerLAN, s.sc.ClientLink},
		regs:  []*obs.Registry{s.sc.Obs},
		sched: s.sc.Sched,
	}
}

func (s *bulkSim) score(o *outcome) error {
	_ = s.sc.RunUntil(func() bool { return s.err != nil || s.completed == s.attempted }, s.to+bulkDrain)
	// The stream counts as one attempt, failed unless it arrived intact and
	// was still flowing through the window.
	o.attempted = s.attempted + 1
	o.failed = s.attempted - s.completed
	if s.recv.BadAt >= 0 || s.recv.EOF || s.recvTo <= s.recvFrom {
		o.failed++
		o.problem("stream not intact: bad at %d, EOF %t, %d bytes in the window", s.recv.BadAt, s.recv.EOF, s.recvTo-s.recvFrom)
	}
	o.bytes = s.recvTo - s.recvFrom
	o.window = s.window
	o.lat = s.lat
	if s.err != nil {
		o.problem("%v", s.err)
	}
	if s.bad > 0 {
		o.problem("%d probe replies failed pattern verification", s.bad)
	}
	return nil
}
