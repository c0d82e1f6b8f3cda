package bench

import (
	"slices"
	"testing"
)

func TestEnabledSelectsInCanonicalOrder(t *testing.T) {
	names := func(sel []experiment) []string {
		var out []string
		for _, e := range sel {
			out = append(out, e.name)
		}
		return out
	}
	sel, err := Config{Experiments: []string{"stallscale", "fig3", "connscale"}}.enabled()
	if err != nil {
		t.Fatal(err)
	}
	if got := names(sel); !slices.Equal(got, []string{"connscale", "fig3", "stallscale"}) {
		t.Errorf("selected %v, want canonical order", got)
	}
	for _, exps := range [][]string{nil, {"all"}, {"fig5", "all"}} {
		sel, err := Config{Experiments: exps}.enabled()
		if err != nil || !slices.Equal(names(sel), ExperimentNames()) {
			t.Errorf("%q selected %v (%v), want the whole registry", exps, names(sel), err)
		}
	}
	if _, err := (Config{Experiments: []string{"fig3", ""}}).enabled(); err == nil {
		t.Error("empty experiment name accepted")
	}
}
