package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/metrics"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/obs"
)

// --- E9 (extension): failover stall phase breakdown ---------------------------

// TimelineResult reports E9: the client-visible failover stall decomposed
// into the phases of obs.StallBreakdown, medians over N crash runs. Sample
// is run 0's breakdown; everything here is a function of the seeds only, so
// the marshalled result is byte-identical across runs — the determinism
// test pins that down.
type TimelineResult struct {
	N               int                `json:"n"`
	PreCrashMedian  time.Duration      `json:"precrash_median_ns"`
	DetectionMedian time.Duration      `json:"detection_median_ns"`
	AnnounceMedian  time.Duration      `json:"announce_median_ns"`
	ResumeMedian    time.Duration      `json:"resume_median_ns"`
	RecoveryMedian  time.Duration      `json:"recovery_median_ns"`
	TotalMedian     time.Duration      `json:"total_median_ns"`
	TotalMax        time.Duration      `json:"total_max_ns"`
	Sample          obs.StallBreakdown `json:"sample"`
}

// FailoverTimeline crashes the primary mid-stream n times and breaks each
// connection's stall into phases from its lifecycle span and the
// failure/detect/takeover marks. The router is given a non-zero ARP-table
// update delay so the redirection phase is visible in the breakdown.
func FailoverTimeline(n int) (TimelineResult, error) {
	const total = 512 * 1024
	stalls := make([]obs.StallBreakdown, n)
	err := parallelEach(n, func(i int) error {
		opts := tcpfailover.LANOptions()
		opts.Seed = int64(9000 + i)
		opts.RouterARPDelay = 500 * time.Microsecond
		c := crashRun{opts: opts, total: total, crashAt: total/4 + int64(i)*(total/(2*int64(n)))}
		st, intact, err := c.run()
		if err == nil && !intact {
			err = errors.New("stream not intact")
		}
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		stalls[i] = st
		return nil
	})
	if err != nil {
		return TimelineResult{}, err
	}
	var precrash, detection, announce, resume, recovery, totals metrics.Durations
	for _, st := range stalls {
		precrash.Add(st.PreCrash)
		detection.Add(st.Detection)
		announce.Add(st.Announce)
		resume.Add(st.Resume)
		recovery.Add(st.Recovery)
		totals.Add(st.Total)
	}
	return TimelineResult{
		N:               n,
		PreCrashMedian:  precrash.Median(),
		DetectionMedian: detection.Median(),
		AnnounceMedian:  announce.Median(),
		ResumeMedian:    resume.Median(),
		RecoveryMedian:  recovery.Median(),
		TotalMedian:     totals.Median(),
		TotalMax:        totals.Max(),
		Sample:          stalls[0],
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
	fmt.Fprintln(w, "=== E9 (extension): failover stall, phase breakdown ===")
	fmt.Fprintln(w, "(the connection's lifecycle span against the failure/detect/takeover")
	fmt.Fprintln(w, " marks: from the last delivery before the takeover to the first one")
	fmt.Fprintln(w, " after it; medians over the crash runs, and run 0)")
	fmt.Fprintf(w, "%-24s %14s %14s\n", "phase", "median", "run 0")
	s := tl.Sample
	for _, row := range []struct {
		name      string
		med, run0 time.Duration
	}{
		{"pre-crash", tl.PreCrashMedian, s.PreCrash},
		{"detection", tl.DetectionMedian, s.Detection},
		{"takeover + ARP announce", tl.AnnounceMedian, s.Announce},
		{"redirection to client", tl.ResumeMedian, s.Resume},
		{"recovery to delivery", tl.RecoveryMedian, s.Recovery},
	} {
		fmt.Fprintf(w, "%-24s %14v %14v\n", row.name, row.med, row.run0)
	}
	fmt.Fprintf(w, "%-24s %14v %14v (max %v, n=%d)\n", "total", tl.TotalMedian, s.Total, tl.TotalMax, tl.N)
	fmt.Fprintln(w)
}
