package bench

import (
	"fmt"
	"io"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/metrics"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/obs"
)

// --- E9 (extension): failover timeline reconstruction --------------------------

// TimelineResult reports E9: the failover window decomposed into the
// phases of obs.Timeline, medians over N crash runs. Sample is run 0's
// full timeline; everything here is a function of the seeds only, so the
// marshalled result is byte-identical across runs — the determinism test
// pins that down.
type TimelineResult struct {
	N                   int           `json:"n"`
	DetectionMedian     time.Duration `json:"detection_median_ns"`
	AnnounceMedian      time.Duration `json:"announce_median_ns"`
	ResumeMedian        time.Duration `json:"resume_median_ns"`
	AckTurnaroundMedian time.Duration `json:"ack_turnaround_median_ns"`
	TotalMedian         time.Duration `json:"total_median_ns"`
	TotalMax            time.Duration `json:"total_max_ns"`
	Sample              obs.Timeline  `json:"sample"`
}

// FailoverTimeline crashes the primary mid-stream n times and reconstructs
// each failover's phase timeline from a flight recorder on the client plus
// the detector/takeover hooks. The router is given a non-zero ARP-table
// update delay so the redirection phase is visible in the breakdown.
func FailoverTimeline(n int) (TimelineResult, error) {
	const total = 512 * 1024
	timelines := make([]obs.Timeline, n)
	err := parallelEach(n, func(i int) error {
		opts := tcpfailover.LANOptions()
		opts.Seed = int64(9000 + i)
		opts.ServerPorts = []uint16{benchPort}
		opts.RouterARPDelay = 500 * time.Microsecond
		sc, err := tcpfailover.NewScenario(opts)
		if err != nil {
			return err
		}
		if err := sc.Group.OnEach(func(h *netstack.Host) error {
			_, err := apps.NewPushServer(h.TCP(), benchPort, total)
			return err
		}); err != nil {
			return err
		}
		// The timeline only needs the tail of the capture (takeover onward),
		// so a modest ring that wraps during the bulk transfer is fine.
		rec := obs.NewRecorder(4096, 64)
		sc.Client.AttachRecorder(rec)
		var marks obs.Marks
		sc.Group.OnPrimaryFailureDetected = func() { marks.DetectorFired = sc.Now() }
		sc.Group.SecondaryBridge().OnTakeover = func() { marks.TakeoverDone = sc.Now() }
		sc.Start()
		conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), benchPort)
		if err != nil {
			return err
		}
		recv := apps.NewReceiver(conn, sc.Sched)

		crashAt := int64(total/4) + int64(i)*int64(total/(2*n))
		crashed := false
		for !recv.EOF {
			if !sc.Sched.Step() {
				return fmt.Errorf("run %d: queue empty (received=%d)", i, recv.Received)
			}
			if !crashed && recv.Received >= crashAt {
				crashed = true
				marks.FailureInjected = sc.Now()
				sc.Group.CrashPrimary()
			}
			if sc.Now() > time.Hour {
				return fmt.Errorf("run %d: timeout (received=%d)", i, recv.Received)
			}
		}
		if recv.BadAt >= 0 || recv.Received != total {
			return fmt.Errorf("run %d: stream not intact (received=%d bad=%d)",
				i, recv.Received, recv.BadAt)
		}
		tl, err := obs.Analyze(rec.Records(), marks, sc.ServiceAddr())
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		timelines[i] = tl
		addEvents(sc)
		return nil
	})
	if err != nil {
		return TimelineResult{}, err
	}
	var detection, announce, resume, ack, totals metrics.Durations
	for _, tl := range timelines {
		detection.Add(tl.Detection())
		announce.Add(tl.Announce())
		resume.Add(tl.Resume())
		ack.Add(tl.AckTurnaround())
		totals.Add(tl.Total())
	}
	return TimelineResult{
		N:                   n,
		DetectionMedian:     detection.Median(),
		AnnounceMedian:      announce.Median(),
		ResumeMedian:        resume.Median(),
		AckTurnaroundMedian: ack.Median(),
		TotalMedian:         totals.Median(),
		TotalMax:            totals.Max(),
		Sample:              timelines[0],
	}, nil
}

// CollectMetrics runs one instrumented failover scenario (fixed seed,
// primary crashed mid-stream) and returns its metrics registry — the
// workload behind failover-bench -metrics-out. The snapshot is a function
// of the seed only.
func CollectMetrics() (*obs.Registry, error) {
	const total = 256 * 1024
	opts := tcpfailover.LANOptions()
	opts.Seed = 424242
	opts.ServerPorts = []uint16{benchPort}
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		return nil, err
	}
	if err := sc.Group.OnEach(func(h *netstack.Host) error {
		_, err := apps.NewPushServer(h.TCP(), benchPort, total)
		return err
	}); err != nil {
		return nil, err
	}
	sc.Start()
	conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), benchPort)
	if err != nil {
		return nil, err
	}
	recv := apps.NewReceiver(conn, sc.Sched)
	crashed := false
	for !recv.EOF {
		if !sc.Sched.Step() {
			return nil, fmt.Errorf("collect-metrics: queue empty (received=%d)", recv.Received)
		}
		if !crashed && recv.Received >= total/2 {
			crashed = true
			sc.Group.CrashPrimary()
		}
		if sc.Now() > time.Hour {
			return nil, fmt.Errorf("collect-metrics: timeout (received=%d)", recv.Received)
		}
	}
	return sc.Obs, nil
}

func printTimeline(w io.Writer, _ Config, r *Results) {
	tl := r.Timeline
	fmt.Fprintln(w, "=== E9 (extension): failover timeline, phase breakdown ===")
	fmt.Fprintln(w, "(reconstructed from a client-side flight recorder plus the")
	fmt.Fprintln(w, " detector/takeover hooks; medians over the crash runs)")
	fmt.Fprintf(w, "%-24s %14s\n", "phase", "median")
	fmt.Fprintf(w, "%-24s %14v\n", "detection", tl.DetectionMedian)
	fmt.Fprintf(w, "%-24s %14v\n", "takeover + ARP announce", tl.AnnounceMedian)
	fmt.Fprintf(w, "%-24s %14v\n", "redirection to client", tl.ResumeMedian)
	fmt.Fprintf(w, "%-24s %14v\n", "client ack turnaround", tl.AckTurnaroundMedian)
	fmt.Fprintf(w, "%-24s %14v (max %v, n=%d)\n", "total", tl.TotalMedian, tl.TotalMax, tl.N)
	fmt.Fprintln(w, "sample run 0:")
	_ = tl.Sample.WriteText(w)
	fmt.Fprintln(w)
}
