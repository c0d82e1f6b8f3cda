package main

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"

	"tcpfailover/internal/bench"
)

// parse runs args through failover-bench's flag set.
func parse(t *testing.T, args ...string) (options, error) {
	t.Helper()
	var o options
	fs := newFlags("failover-bench", flag.ContinueOnError, &o)
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	return o, err
}

func TestListFlagErrorsNameTheFlag(t *testing.T) {
	for flagName, bad := range map[string]string{
		"faultrates": "1.5",
		"connscale":  "0",
		"shardscale": "100,-3",
		"shards":     "x",
		"memscale":   "0",
		"sloloads":   "0",
		"stallscale": "1000,",
	} {
		_, err := parse(t, "-"+flagName, bad)
		if err == nil {
			t.Errorf("-%s %q: accepted", flagName, bad)
			continue
		}
		if !strings.Contains(err.Error(), "flag -"+flagName+":") {
			t.Errorf("-%s %q: error %q does not name the flag", flagName, bad, err)
		}
	}
}

func TestListFlagsBindConfigFields(t *testing.T) {
	o, err := parse(t, "-connscale", "100, 1000", "-shards", "1,2", "-faultrates", "0,0.02", "-memscale", "")
	if err != nil {
		t.Fatal(err)
	}
	c := o.cfg
	if !slices.Equal(c.ConnScale, []int{100, 1000}) || !slices.Equal(c.ShardCounts, []int{1, 2}) ||
		!slices.Equal(c.FaultRates, []float64{0, 0.02}) {
		t.Errorf("bound %v %v %v", c.ConnScale, c.ShardCounts, c.FaultRates)
	}
	if c.MemScale != nil || c.ShardScale != nil {
		t.Errorf("unset or empty list flags must leave the default axis: %v %v", c.MemScale, c.ShardScale)
	}
}

func TestUnknownExperimentListsRegistry(t *testing.T) {
	o, err := parse(t, "-experiment", "bogus")
	if err != nil {
		t.Fatal(err)
	}
	err = run(o, io.Discard)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"bogus"`) {
		t.Errorf("error %q does not name the bad experiment", msg)
	}
	for _, name := range bench.ExperimentNames() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list %s", msg, name)
		}
	}
}

func TestListPrintsRegistryInCanonicalOrder(t *testing.T) {
	o, err := parse(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	got := strings.Fields(out.String())
	if !slices.Equal(got, bench.ExperimentNames()) {
		t.Fatalf("-list printed %v, registry is %v", got, bench.ExperimentNames())
	}
	// The host-timed sweeps run first, before the others churn the heap.
	if !slices.Equal(got[:3], []string{"connscale", "shardscale", "memscale"}) || len(got) != 15 {
		t.Errorf("canonical order broken: %v", got)
	}
}
