package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"tcpfailover/internal/netbuf"
)

// smallConfig is a workload small enough to run twice in a unit test but
// still covering every experiment family's fan-out shape.
func smallConfig() Config {
	return Config{
		Experiments: []string{"connsetup", "fig3", "fig5", "failover"},
		Conns:       3,
		Reps:        2,
		Stream:      256 * 1024,
		Runs:        2,
		Sizes:       []int64{64, 4096},
	}
}

// TestResultsIdenticalAcrossWorkerCounts is the harness's core invariant:
// every simulation is fully determined by its seed, and aggregation happens
// in config order, so the marshalled results must be byte-identical whether
// the simulations ran serially or fanned out across goroutines, and so must
// the printed text blocks.
func TestResultsIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	run := func(workers int) []byte {
		old := Workers
		Workers = workers
		defer func() { Workers = old }()
		traj, err := RunAll(smallConfig())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		blob, err := json.MarshalIndent(traj.Results, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		if err := traj.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		return append(blob, text.Bytes()...)
	}
	serial := run(1)
	parallel := run(4)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("results differ between 1 and 4 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestNoBufferLeaksAcrossExperiments runs a workload under netbuf's
// leak accounting. Simulations end with packets still in flight (owned by
// queued events), so exact-zero is only checkable per released buffer:
// the live count must never go negative — a double release would panic
// first — and the count of buffers leaked per simulation must stay small
// and bounded, not proportional to the bytes transferred.
func TestNoBufferLeaksAcrossExperiments(t *testing.T) {
	netbuf.SetLeakCheck(true)
	defer netbuf.SetLeakCheck(false)

	const total = 512 * 1024
	if _, err := StreamRates(Standard, total); err != nil {
		t.Fatal(err)
	}
	if _, err := StreamRates(Failover, total); err != nil {
		t.Fatal(err)
	}
	// ~700 buffers would correspond to one windowful of in-flight segments
	// per abandoned simulation; a copy leak on the data path would scale
	// with the ~1400 segments of payload instead.
	if live := netbuf.Live(); live < 0 || live > 100 {
		t.Errorf("live buffers after experiments = %d, want a small non-negative residue", live)
	}
}
