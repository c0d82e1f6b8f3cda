package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestFailoverTimelineDeterministic is the E9 gate: at a fixed seed set the
// stall breakdowns — and therefore the marshalled result — must be
// byte-identical across runs and worker counts.
func TestFailoverTimelineDeterministic(t *testing.T) {
	run := func(workers int) string {
		old := Workers
		Workers = workers
		defer func() { Workers = old }()
		r, err := FailoverTimeline(3)
		if err != nil {
			t.Fatalf("FailoverTimeline(workers=%d): %v", workers, err)
		}
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	blob1 := run(1)
	blob2 := run(4)
	if blob1 != blob2 {
		t.Fatalf("timeline results differ across worker counts:\n%s\n%s", blob1, blob2)
	}
	if blob3 := run(4); blob2 != blob3 {
		t.Fatalf("timeline results differ across identical runs:\n%s\n%s", blob2, blob3)
	}
}

// TestFailoverTimelineShape checks the breakdown against the known
// structure of a LAN failover: the phases tile the stall, detection is
// bounded by the detector timeout plus one check period, and the ARP
// announce is synchronous with the takeover procedure.
func TestFailoverTimelineShape(t *testing.T) {
	r, err := FailoverTimeline(3)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Sample
	if sum := s.PreCrash + s.Detection + s.Announce + s.Resume + s.Recovery; sum != s.Total || s.Total <= 0 {
		t.Fatalf("sample phases sum to %v, total %v: %+v", sum, s.Total, s)
	}
	// LANOptions detector: 10 ms period, 50 ms timeout -> detection lands
	// in (timeout, timeout+period] plus sub-ms delivery jitter.
	if d := r.DetectionMedian; d < 40*time.Millisecond || d > 70*time.Millisecond {
		t.Errorf("detection median %v outside the detector's timeout window", d)
	}
	if r.AnnounceMedian > time.Millisecond {
		t.Errorf("announce median %v: the gratuitous ARP should go out with the takeover", r.AnnounceMedian)
	}
	if r.TotalMedian <= r.DetectionMedian {
		t.Errorf("total %v not greater than detection %v", r.TotalMedian, r.DetectionMedian)
	}
}

// TestFailoverStallMatchesReceiverGap checks the span stall against an
// independent oracle on E6's runs: the longest gap in the client's
// received-byte timeline from the crash on, measured by stepping the
// simulation and watching the receiver. It also pins E6's result to the
// committed BENCH_trajectory.json failover block.
func TestFailoverStallMatchesReceiverGap(t *testing.T) {
	const n = 9
	stalls, gaps := make([]time.Duration, n), make([]time.Duration, n)
	err := parallelEach(n, func(i int) error {
		c := newFailoverRun(i, n)
		if err := c.start(); err != nil {
			return err
		}
		var last, maxGap time.Duration
		prev := c.recv.Received
		for !c.recv.EOF {
			if err := c.step(); err != nil {
				return err
			}
			now := c.sc.Now()
			crashAt, crashed := c.sc.Spans.FailureMark()
			if crashed && last < crashAt {
				last = crashAt // a gap counts from the crash at the earliest
			}
			if c.recv.Received != prev {
				if crashed {
					maxGap = max(maxGap, now-last)
				}
				prev, last = c.recv.Received, now
			}
		}
		st, intact, err := c.stall()
		if err != nil {
			return err
		}
		if !intact {
			return fmt.Errorf("seed %d: stream not intact", c.opts.Seed)
		}
		stalls[i], gaps[i] = st.Total, maxGap
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		if stalls[i] != gaps[i] {
			t.Errorf("run %d: span stall %v, longest post-crash receiver gap %v", i, stalls[i], gaps[i])
		}
	}

	r, err := FailoverLatency(n)
	if err != nil {
		t.Fatal(err)
	}
	want := FailoverResult{N: n, StallMedian: 204781411, StallMax: 205132602, AllIntact: true}
	if r != want {
		t.Errorf("FailoverLatency(%d) = %+v, want the committed %+v", n, r, want)
	}
}

// TestCollectMetricsSnapshot checks the -metrics-out workload: the failover
// scenario must produce a registry whose core counters saw traffic.
func TestCollectMetricsSnapshot(t *testing.T) {
	reg, err := CollectMetrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		`tcp_segments_in_total{host="client"}`,
		`tcp_segments_out_total{host="client"}`,
		`bridge_snooped_in_total{host="secondary"}`,
		`bridge_diverted_out_total{host="secondary"}`,
		`bridge_bytes_matched_total{host="primary"}`,
	} {
		v, ok := reg.Lookup(name)
		if !ok {
			t.Errorf("series %s missing from registry", name)
			continue
		}
		if v <= 0 {
			t.Errorf("series %s = %d, want > 0", name, v)
		}
	}
	var sb strings.Builder
	if err := reg.DumpText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# TYPE tcp_segments_in_total counter") {
		t.Error("DumpText missing TYPE line for tcp_segments_in_total")
	}
}
