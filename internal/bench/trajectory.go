package bench

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"
)

// Config selects which experiments RunAll executes and with what workload
// parameters. It mirrors the failover-bench command-line flags.
type Config struct {
	// Experiments names the experiments to run (see ExperimentNames).
	// Empty or containing "all" runs everything. Execution order is always
	// the canonical registry order, regardless of the order named here.
	Experiments []string `json:"experiments"`
	Conns       int      `json:"conns"`  // connections for E1
	Reps        int      `json:"reps"`   // repetitions per data point (E2, E3, E5)
	Stream      int64    `json:"stream"` // stream bytes for E4 (ablations use a quarter)
	Runs        int      `json:"runs"`   // failover-latency runs (E6, E7)
	// Sizes overrides the message-size sweep for figures 3 and 4;
	// nil means Figure3Sizes.
	Sizes []int64 `json:"sizes,omitempty"`
	// FaultRates overrides the loss-rate axis of the fault sweep (E7);
	// nil means DefaultFaultRates.
	FaultRates []float64 `json:"fault_rates,omitempty"`
	// ConnScale overrides the connection-count sweep of E8; nil means
	// DefaultConnScale.
	ConnScale []int `json:"conn_scale,omitempty"`
	// ShardScale overrides the connection-count axis of E10; nil means
	// DefaultShardScale.
	ShardScale []int `json:"shard_scale,omitempty"`
	// ShardCounts overrides the shard-count axis of E10; nil means
	// DefaultShardCounts.
	ShardCounts []int `json:"shard_counts,omitempty"`
	// MemScale overrides the connection-count sweep of E13; nil means
	// DefaultMemScale.
	MemScale []int `json:"mem_scale,omitempty"`
	// SLOLoads overrides the offered-load axis of E12 (sessions/second);
	// nil means DefaultSLOLoads.
	SLOLoads []float64 `json:"slo_loads,omitempty"`
	// SLOWindow overrides E12's per-cell measurement window of virtual
	// time; zero means DefaultSLOWindow.
	SLOWindow time.Duration `json:"slo_window_ns,omitempty"`
	// SLOWorkload names the workload-zoo entry E12 drives; empty means
	// DefaultSLOWorkload.
	SLOWorkload string `json:"slo_workload,omitempty"`
	// StallScale overrides the connection-count axis of E14; nil means
	// DefaultStallScale.
	StallScale []int `json:"stall_scale,omitempty"`
}

// An experiment is one registry entry: its name, the step that runs it and
// fills its Results fields, and the printer that writes those fields as the
// paper-style text block.
type experiment struct {
	name  string
	run   func(cfg Config, r *Results) error
	print func(w io.Writer, cfg Config, r *Results)
}

// experiments is the registry, in canonical execution order; results are
// run and printed in this order no matter how Config.Experiments is spelled.
// connscale runs first: it is the one experiment that measures the
// simulator's own wall-clock cost, and running it before the others dirty
// the heap keeps its cache and TLB behaviour representative of a process
// that is actually serving 10k connections rather than one that just churned
// through eight other workloads (measured: ~15% inflation at the 10k point
// when it runs last, even after returning the dirtied heap to the OS).
// shardscale follows immediately: it too measures the simulator's own
// wall-clock cost and wants a heap that has not been churned by the
// virtual-time experiments; memscale follows for the same reason (its cells
// measure the process's own heap, and each cell re-settles it first).
var experiments = []experiment{
	{"connscale", func(cfg Config, r *Results) (err error) {
		r.ConnScale, err = ConnScale(cfg.ConnScale)
		return err
	}, printConnScale},
	{"shardscale", func(cfg Config, r *Results) (err error) {
		r.ShardScale, err = ShardScale(cfg.ShardScale, cfg.ShardCounts)
		return err
	}, printShardScale},
	{"memscale", func(cfg Config, r *Results) (err error) {
		r.MemScale, err = MemScale(cfg.MemScale)
		return err
	}, printMemScale},
	{"connsetup", func(cfg Config, r *Results) error {
		for _, mode := range []Mode{Standard, Failover} {
			res, err := ConnectionSetup(mode, cfg.Conns)
			if err != nil {
				return fmt.Errorf("connsetup %s: %w", mode, err)
			}
			r.ConnSetup = append(r.ConnSetup, res)
		}
		return nil
	}, printConnSetup},
	{"fig3", func(cfg Config, r *Results) (err error) {
		r.Fig3Std, r.Fig3Fo, err = bothModes("fig3", func(m Mode) ([]TransferPoint, error) {
			return ClientToServerSend(m, cfg.sizes(), cfg.Reps)
		})
		return err
	}, printFig3},
	{"fig4", func(cfg Config, r *Results) (err error) {
		r.Fig4Std, r.Fig4Fo, err = bothModes("fig4", func(m Mode) ([]TransferPoint, error) {
			return ServerToClientTransfer(m, cfg.sizes(), cfg.Reps)
		})
		return err
	}, printFig4},
	{"fig5", func(cfg Config, r *Results) error {
		std, fo, err := bothModes("fig5", func(m Mode) (RateResult, error) {
			return StreamRates(m, cfg.Stream)
		})
		if err == nil {
			r.Fig5 = []RateResult{std, fo}
		}
		return err
	}, printFig5},
	{"fig6", func(cfg Config, r *Results) (err error) {
		r.Fig6Std, r.Fig6Fo, err = bothModes("fig6", func(m Mode) ([]FTPPoint, error) {
			return FTPRates(m, cfg.Reps)
		})
		return err
	}, printFig6},
	{"ablate", func(cfg Config, r *Results) (err error) {
		r.Ablation, err = Ablation(cfg.Stream / 4)
		return err
	}, printAblation},
	{"failover", func(cfg Config, r *Results) error {
		res, err := FailoverLatency(cfg.Runs)
		if err == nil {
			r.Failover = &res
		}
		return err
	}, printFailover},
	{"faultsweep", func(cfg Config, r *Results) (err error) {
		r.FaultSweep, err = FaultSweep(cfg.FaultRates, cfg.Runs)
		return err
	}, printFaultSweep},
	{"failtimeline", func(cfg Config, r *Results) error {
		res, err := FailoverTimeline(cfg.Runs)
		if err == nil {
			r.Timeline = &res
		}
		return err
	}, printTimeline},
	{"adversary", func(cfg Config, r *Results) (err error) {
		r.Adversary, err = AdversaryMatrix()
		return err
	}, printAdversary},
	{"slo", func(cfg Config, r *Results) (err error) {
		r.SLO, err = SLO(cfg.SLOWorkload, cfg.SLOLoads, cfg.SLOWindow)
		return err
	}, printSLO},
	{"stallscale", func(cfg Config, r *Results) (err error) {
		r.StallScale, err = StallScale(cfg.StallScale, 0)
		return err
	}, printStallScale},
}

// bothModes runs one paper experiment against standard TCP and then TCP
// Failover, naming the failing half in the error.
func bothModes[T any](name string, fn func(Mode) (T, error)) (std, fo T, err error) {
	if std, err = fn(Standard); err != nil {
		return std, fo, fmt.Errorf("%s standard: %w", name, err)
	}
	if fo, err = fn(Failover); err != nil {
		return std, fo, fmt.Errorf("%s failover: %w", name, err)
	}
	return std, fo, nil
}

// ExperimentNames lists the valid experiment names in canonical execution
// order (Config.Experiments also accepts the "all" pseudo-name).
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// enabled returns the registry entries Config.Experiments selects, in
// canonical order, rejecting unknown names.
func (c Config) enabled() ([]experiment, error) {
	names := ExperimentNames()
	for _, name := range c.Experiments {
		if name != "all" && !slices.Contains(names, name) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)",
				name, strings.Join(names, ", "))
		}
	}
	all := len(c.Experiments) == 0 || slices.Contains(c.Experiments, "all")
	var sel []experiment
	for _, e := range experiments {
		if all || slices.Contains(c.Experiments, e.name) {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

// sizes is the message-size sweep of figures 3 and 4.
func (c Config) sizes() []int64 {
	if c.Sizes == nil {
		return Figure3Sizes
	}
	return c.Sizes
}

// Results holds every experiment's outputs in config order. All values are
// functions of the simulation seeds only, so for a fixed Config the
// marshalled Results are byte-identical regardless of the worker count —
// the determinism test pins this down.
type Results struct {
	ConnSetup  []ConnSetupResult `json:"conn_setup,omitempty"` // standard, then failover
	Fig3Std    []TransferPoint   `json:"fig3_standard,omitempty"`
	Fig3Fo     []TransferPoint   `json:"fig3_failover,omitempty"`
	Fig4Std    []TransferPoint   `json:"fig4_standard,omitempty"`
	Fig4Fo     []TransferPoint   `json:"fig4_failover,omitempty"`
	Fig5       []RateResult      `json:"fig5,omitempty"` // standard, then failover
	Fig6Std    []FTPPoint        `json:"fig6_standard,omitempty"`
	Fig6Fo     []FTPPoint        `json:"fig6_failover,omitempty"`
	Ablation   []AblationRow     `json:"ablation,omitempty"`
	Failover   *FailoverResult   `json:"failover,omitempty"`
	FaultSweep []FaultPoint      `json:"fault_sweep,omitempty"`
	Timeline   *TimelineResult   `json:"timeline,omitempty"`
	Adversary  []AdversaryPoint  `json:"adversary,omitempty"`
	SLO        []SLOPoint        `json:"slo,omitempty"`
	StallScale []StallScalePoint `json:"stall_scale,omitempty"`
	// ConnScale, ShardScale, and MemScale are the Results members with
	// host-dependent fields (wall-clock, heap, and allocation counters);
	// the determinism test compares the experiments above, which are
	// functions of the seeds only.
	ConnScale  []ConnScalePoint  `json:"conn_scale,omitempty"`
	ShardScale []ShardScalePoint `json:"shard_scale,omitempty"`
	MemScale   []MemScalePoint   `json:"mem_scale,omitempty"`
}

// ExperimentPerf records one experiment's host-side cost: wall-clock time,
// completed simulations, heap allocations, and executed simulation events.
// Unlike Results these vary run to run; they are the perf_opt trajectory.
type ExperimentPerf struct {
	Name         string  `json:"name"`
	WallNS       int64   `json:"wall_ns"`
	Sims         int64   `json:"sims"`
	NsPerSim     int64   `json:"ns_per_sim"`
	Allocs       int64   `json:"allocs"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// Perf aggregates the per-experiment cost figures.
type Perf struct {
	Workers     int              `json:"workers"`
	GoMaxProcs  int              `json:"gomaxprocs"`
	WallNS      int64            `json:"wall_ns"`
	Experiments []ExperimentPerf `json:"experiments"`
}

// Trajectory is the machine-readable record of one failover-bench run:
// the configuration, the (deterministic) experiment results, and the
// (host-dependent) performance counters.
type Trajectory struct {
	Config  Config  `json:"config"`
	Results Results `json:"results"`
	Perf    Perf    `json:"perf"`
}

// measure runs one experiment under the perf counters and appends its
// ExperimentPerf row. Allocations are the process-wide Mallocs delta — an
// upper bound that includes harness overhead, which is exactly what the
// optimisation trajectory should charge for.
func (t *Trajectory) measure(name string, fn func() error) error {
	ev0, sims0 := eventTally.Load(), simTally.Load()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	p := ExperimentPerf{
		Name:   name,
		WallNS: wall.Nanoseconds(),
		Sims:   simTally.Load() - sims0,
		Allocs: int64(ms1.Mallocs - ms0.Mallocs),
		Events: eventTally.Load() - ev0,
	}
	if p.Sims > 0 {
		p.NsPerSim = p.WallNS / p.Sims
	}
	if wall > 0 {
		p.EventsPerSec = float64(p.Events) / wall.Seconds()
	}
	t.Perf.Experiments = append(t.Perf.Experiments, p)
	return err
}

// RunAll executes the configured experiments in canonical order and returns
// the full trajectory. Each experiment internally fans its independent
// simulations across Workers goroutines.
func RunAll(cfg Config) (*Trajectory, error) {
	sel, err := cfg.enabled()
	if err != nil {
		return nil, err
	}
	t := &Trajectory{Config: cfg}
	t.Perf.Workers = Workers
	t.Perf.GoMaxProcs = runtime.GOMAXPROCS(0)
	allStart := time.Now()
	for _, e := range sel {
		if err := t.measure(e.name, func() error { return e.run(cfg, &t.Results) }); err != nil {
			return nil, err
		}
	}
	t.Perf.WallNS = time.Since(allStart).Nanoseconds()
	return t, nil
}

// WriteText prints each experiment the trajectory ran as its paper-style
// text block, in canonical order.
func (t *Trajectory) WriteText(w io.Writer) error {
	sel, err := t.Config.enabled()
	if err != nil {
		return err
	}
	for _, e := range sel {
		e.print(w, t.Config, &t.Results)
	}
	return nil
}
