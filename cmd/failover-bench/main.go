// Command failover-bench regenerates every table and figure of the paper's
// evaluation (section 9) on the simulated testbed and prints each result
// next to the paper's published numbers. Absolute values depend on the
// calibration profile; the shapes and ratios are the reproduction target.
//
// Independent simulations fan out across the machine's CPUs; every result
// is a function of the per-simulation seeds only, so the output is
// identical for any worker count. With -json the full run — configuration,
// results, and per-experiment performance counters — is also written to
// BENCH_trajectory.json.
//
// Usage:
//
//	failover-bench [-experiment all|NAME] [-list] [-conns N] [-reps N]
//	               [-stream BYTES] [-runs N]
//	               [-faultrates R1,R2,...] [-connscale N1,N2,...]
//	               [-shardscale N1,N2,...] [-shards S1,S2,...]
//	               [-memscale N1,N2,...]
//	               [-sloloads L1,L2,...] [-slowindow D] [-sloworkload NAME]
//	               [-stallscale N1,N2,...] [-json]
//	               [-metrics-out FILE] [-timeseries-out FILE]
//	               [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//
// -list prints the experiment names in the order they run and print.
//
// With -metrics-out, one instrumented failover scenario is run after the
// experiments and its metrics registry is written to FILE — JSON when the
// name ends in .json, Prometheus text exposition format otherwise.
//
// With -timeseries-out, a two-cell sharded scenario under open-loop web
// traffic is run with a mid-window primary crash, every cell's registry is
// sampled on a fixed sim-time grid, and the merged fleet timeseries is
// written to FILE — JSON when the name ends in .json, CSV otherwise.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"

	"tcpfailover/internal/bench"
)

// trajectoryFile is where -json writes the machine-readable run record.
const trajectoryFile = "BENCH_trajectory.json"

// options holds everything the command line selects.
type options struct {
	cfg                               bench.Config
	experiment                        string
	list, json                        bool
	metricsOut, timeseriesOut         string
	workers                           int
	cpuProfile, memProfile, traceFile string
}

// newFlags binds every failover-bench flag to o.
func newFlags(name string, handling flag.ErrorHandling, o *options) *flag.FlagSet {
	fs := flag.NewFlagSet(name, handling)
	c := &o.cfg
	fs.StringVar(&o.experiment, "experiment", "all",
		"which experiment to run: all, "+strings.Join(bench.ExperimentNames(), ", "))
	fs.BoolVar(&o.list, "list", false, "list the experiment names and exit")
	fs.IntVar(&c.Conns, "conns", 51, "connections for the setup-time experiment")
	fs.IntVar(&c.Reps, "reps", 5, "repetitions per data point")
	fs.Int64Var(&c.Stream, "stream", 100*1024*1024, "stream length for figure 5 (bytes)")
	fs.IntVar(&c.Runs, "runs", 9, "failover-latency runs")
	fs.Var(listFlag[float64]{&c.FaultRates, rate}, "faultrates",
		"comma-separated loss rates for the fault sweep (default 0,0.005,0.01,0.02,0.05)")
	fs.Var(listFlag[int]{&c.ConnScale, count}, "connscale",
		"comma-separated connection counts for the connection-scale sweep (default 100,1000,10000)")
	fs.Var(listFlag[int]{&c.ShardScale, count}, "shardscale",
		"comma-separated connection counts for the sharded scaling sweep (default 100000,1000000)")
	fs.Var(listFlag[int]{&c.ShardCounts, count}, "shards",
		"comma-separated shard counts for the sharded scaling sweep (default 1,2,4,8)")
	fs.Var(listFlag[int]{&c.MemScale, count}, "memscale",
		"comma-separated connection counts for the memory-scale sweep (default 100000,500000,1000000)")
	fs.Var(listFlag[float64]{&c.SLOLoads, load}, "sloloads",
		"comma-separated offered loads for the SLO experiment, sessions/second (default 40,160,320)")
	fs.DurationVar(&c.SLOWindow, "slowindow", 0,
		"measurement window of virtual time per SLO cell (default 8s)")
	fs.StringVar(&c.SLOWorkload, "sloworkload", "",
		"workload-zoo entry for the SLO experiment: web, flash, diurnal (default web)")
	fs.Var(listFlag[int]{&c.StallScale, count}, "stallscale",
		"comma-separated connection counts for the stall-attribution experiment (default 1000,10000,100000)")
	fs.BoolVar(&o.json, "json", false, "also write "+trajectoryFile)
	fs.StringVar(&o.metricsOut, "metrics-out", "",
		"write a metrics snapshot from one failover scenario to this file (.json or Prometheus text)")
	fs.StringVar(&o.timeseriesOut, "timeseries-out", "",
		"write a sampled metrics timeseries from a sharded crash scenario to this file (.json or CSV)")
	fs.IntVar(&o.workers, "workers", bench.Workers, "simulation worker goroutines")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.traceFile, "trace", "", "write a runtime execution trace to this file")
	return fs
}

// listFlag binds a comma-separated flag to a Config list field. Left unset
// or empty, the field stays nil and the experiment sweeps its default axis.
type listFlag[T int | float64] struct {
	dst   *[]T
	parse func(string) (T, error)
}

func (f listFlag[T]) String() string {
	if f.dst == nil { // the zero value the flag package builds for -h
		return ""
	}
	parts := make([]string, len(*f.dst))
	for i, v := range *f.dst {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func (f listFlag[T]) Set(s string) error {
	var vals []T
	if s != "" {
		for _, p := range strings.Split(s, ",") {
			v, err := f.parse(strings.TrimSpace(p))
			if err != nil {
				return fmt.Errorf("bad entry %q (%w)", p, err)
			}
			vals = append(vals, v)
		}
	}
	*f.dst = vals
	return nil
}

// rate parses a loss rate, a probability in 0..1.
func rate(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 || v > 1 {
		return 0, errors.New("want 0..1")
	}
	return v, nil
}

// count parses a positive connection or shard count.
func count(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 {
		return 0, errors.New("want a positive count")
	}
	return v, nil
}

// load parses a positive offered load in sessions/second.
func load(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 {
		return 0, errors.New("want a positive rate")
	}
	return v, nil
}

func main() {
	var o options
	newFlags(os.Args[0], flag.ExitOnError, &o).Parse(os.Args[1:])
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "failover-bench:", err)
		os.Exit(1)
	}
}

// run executes the selected experiments under the requested profiles and
// writes their text blocks and artifacts.
func run(o options, stdout io.Writer) (err error) {
	if o.list {
		for _, name := range bench.ExperimentNames() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}
	bench.Workers = o.workers
	o.cfg.Experiments = []string{o.experiment}
	stopProfiles, err := startProfiles(o.cpuProfile, o.memProfile, o.traceFile)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stopProfiles(); err == nil {
			err = serr
		}
	}()
	t, err := bench.RunAll(o.cfg)
	if err != nil {
		return err
	}
	if err := t.WriteText(stdout); err != nil {
		return err
	}
	if o.metricsOut != "" {
		reg, err := bench.CollectMetrics()
		if err != nil {
			return err
		}
		if err := writeArtifact(o.metricsOut, reg.WriteJSON, reg.DumpText); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (metrics snapshot, one failover scenario)\n", o.metricsOut)
	}
	if o.timeseriesOut != "" {
		ts, err := bench.CollectTimeseries(0, 0)
		if err != nil {
			return err
		}
		if err := writeArtifact(o.timeseriesOut, ts.WriteJSON, ts.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (sampled fleet timeseries, sharded crash scenario)\n", o.timeseriesOut)
	}
	if o.json {
		blob, err := json.MarshalIndent(t, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(trajectoryFile, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d experiments, %d workers)\n",
			trajectoryFile, len(t.Perf.Experiments), t.Perf.Workers)
	}
	return nil
}

// writeArtifact writes path with asJSON when its name ends in .json and
// with asText otherwise.
func writeArtifact(path string, asJSON, asText func(io.Writer) error) error {
	if strings.HasSuffix(path, ".json") {
		return writeFile(path, asJSON)
	}
	return writeFile(path, asText)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// startProfiles turns on the requested CPU profile and execution trace and
// returns a function that stops them and writes the heap profile. Profiling
// a run of -experiment connscale is the intended workflow for hot-path work:
// the connection-scale sweep is the workload the optimisation targets.
func startProfiles(cpu, mem, tr string) (func() error, error) {
	var stops []func() error
	stop := func() error {
		var first error
		for _, s := range stops {
			if err := s(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	start := func(path string, begin func(io.Writer) error, end func()) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := begin(f); err != nil {
			f.Close()
			return err
		}
		stops = append(stops, func() error { end(); return f.Close() })
		return nil
	}
	if err := start(cpu, pprof.StartCPUProfile, pprof.StopCPUProfile); err != nil {
		return nil, err
	}
	if err := start(tr, trace.Start, trace.Stop); err != nil {
		_ = stop() // the start failure is the error to report
		return nil, err
	}
	if mem != "" {
		stops = append(stops, func() error {
			runtime.GC() // flush dead objects so the profile shows live heap
			return writeFile(mem, pprof.WriteHeapProfile)
		})
	}
	return stop, nil
}
