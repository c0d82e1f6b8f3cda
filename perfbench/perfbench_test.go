package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// The benchmark's own tests run every workload on scaled-down inputs
// (config.small), so the whole suite takes well under a minute:
//
//	cd perfbench && go test -short .

// raceBuild is set when the tests run under the race detector.
var raceBuild bool

type benchSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

func smallConfig(t *testing.T, w *workload, trace bool) *config {
	return &config{workload: w, seed: DefaultSeed, seconds: 0, trace: trace,
		out: t.TempDir(), describe: "test", small: true}
}

// checkMetrics fails unless got holds exactly the named metrics, each with
// its unit.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: metric %s = %v", what, m.Name, g.Value)
		}
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads()) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark runs %v", names, workloadNames())
	}
	for _, n := range names {
		if workloadByName(n) == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", n)
		}
	}
}

// Every workload emits every metric BENCHMARK.json names, with its unit, in
// both modes, and passes its correctness gate.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				rep, err := execute(smallConfig(t, w, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct {
					t.Fatalf("trace=%t: correctness gate failed: %v", trace, rep.problems)
				}
				if rep.Attempted < 1 || rep.Failed != 0 {
					t.Errorf("trace=%t: attempted %d, failed %d", trace, rep.Attempted, rep.Failed)
				}
				if trace {
					checkMetrics(t, "traced", rep.Metrics, spec.PerLayer)
					// A share needs a few hundred samples to mean anything;
					// the scaled-down rr_10k window gives only a handful.
					samples := rep.Metrics["ledger.samples"].Value
					if other := rep.Metrics["ledger.other_pct"].Value; other > 5 && samples >= 200 && !raceBuild {
						t.Errorf("ledger leaves %.1f%% of %.0f CPU samples unattributed", other, samples)
					}
				} else {
					checkMetrics(t, "untraced", rep.Metrics, spec.EndToEnd)
					for _, m := range spec.EndToEnd {
						if rep.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, rep.Metrics[m.Name].Value)
						}
					}
				}
			}
		})
	}
}

// The simulated outcome is a function of the seed alone: two builds agree,
// and web_crash agrees across shard counts. A different seed gives
// different inputs.
func TestOutcomesAreDeterministic(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			cfg := smallConfig(t, w, false)
			a, err := runRep(cfg, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			otherShards := 1
			if w.sharded {
				otherShards = 2
			}
			b, err := runRep(cfg, otherShards, nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.print != b.print {
				t.Errorf("fingerprint %016x (shards=1) != %016x (shards=%d)", a.print, b.print, otherShards)
			}
			if got, want := b.lat.p99, a.lat.p99; got != want {
				t.Errorf("req p99 %v != %v", got, want)
			}
			cfg.seed++
			c, err := runRep(cfg, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.print == a.print {
				t.Errorf("seeds %d and %d gave the same fingerprint", cfg.seed-1, cfg.seed)
			}
		})
	}
}

func TestChargeAttributesToInnermostModuleFrame(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "tcpfailover/internal/tcp.(*Conn).Write", "tcpfailover/internal/sim.(*Scheduler).Step"}, "tcp"},
		{[]string{"runtime.mapaccess2", "tcpfailover/internal/netstack.(*Host).deliver"}, "netstack"},
		{[]string{"tcpfailover.(*Scenario).RunUntil", "main.runRep"}, "scenario"},
		{[]string{"bytes.Equal", "main.(*rrClient).readable", "tcpfailover/internal/tcp.(*Conn).deliver"}, "perfbench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched"},
		{[]string{"tcpfailover/internal/trace.Format"}, "other"},
		{[]string{"syscall.Syscall"}, "other"},
	} {
		if got := charge(c.frames); got != c.want {
			t.Errorf("charge(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// The ledger's shares, other included, add up to the whole profile.
func TestLedgerSharesSumToWhole(t *testing.T) {
	cfg := smallConfig(t, rr10k, true)
	tr := newTracer()
	if _, err := runRep(cfg, 1, tr); err != nil {
		t.Fatal(err)
	}
	led, err := buildLedger(tr.profiles)
	if err != nil {
		t.Fatal(err)
	}
	if led.samples == 0 {
		t.Skip("no CPU profile samples on this host")
	}
	sum := 0.0
	for _, b := range ledgerBuckets {
		sum += led.share(b)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ledger shares sum to %.12f, want 1", sum)
	}
	for b := range led.weight {
		found := false
		for _, lb := range ledgerBuckets {
			found = found || lb == b
		}
		if !found {
			t.Errorf("bucket %s is not reported", b)
		}
	}
}

func TestNetbufGrowthGate(t *testing.T) {
	if err := checkNoGrowth([]int64{100, 120, 90, 110, 100, 118}); err != nil {
		t.Errorf("steady counts flagged: %v", err)
	}
	if err := checkNoGrowth([]int64{100, 120, 90, 110, 400, 800}); err == nil {
		t.Error("a growing count passed")
	}
}

// A bad invocation exits non-zero without a result line.
func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb testWriter
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || len(out) != 0 {
		t.Errorf("exit %d, stdout %q", code, out)
	}
}

type testWriter []byte

func (w *testWriter) Write(p []byte) (int, error) { *w = append(*w, p...); return len(p), nil }
