package metrics

import (
	"testing"
	"time"
)

func TestDurationsStatistics(t *testing.T) {
	var d Durations
	for _, v := range []time.Duration{5, 1, 4, 2, 3} {
		d.Add(v * time.Millisecond)
	}
	if d.N() != 5 {
		t.Errorf("N = %d", d.N())
	}
	if got := d.Median(); got != 3*time.Millisecond {
		t.Errorf("Median = %v", got)
	}
	if got := d.Max(); got != 5*time.Millisecond {
		t.Errorf("Max = %v", got)
	}
	if got := d.Min(); got != time.Millisecond {
		t.Errorf("Min = %v", got)
	}
	if got := d.Percentile(0); got != time.Millisecond {
		t.Errorf("P0 = %v", got)
	}
	if got := d.Percentile(100); got != 5*time.Millisecond {
		t.Errorf("P100 = %v", got)
	}
}

func TestDurationsEmpty(t *testing.T) {
	var d Durations
	if d.Median() != 0 || d.Max() != 0 || d.Min() != 0 {
		t.Error("empty collector should report zeros")
	}
}

// TestPercentileAfterAdd pins the dirty-flag behaviour: queries sort once,
// a later Add invalidates the sort, and the next query re-sorts.
func TestPercentileAfterAdd(t *testing.T) {
	var d Durations
	d.Add(3 * time.Millisecond)
	d.Add(1 * time.Millisecond)
	if got := d.Median(); got != 1*time.Millisecond {
		t.Errorf("median of {3,1} = %v, want 1ms", got)
	}
	d.Add(5 * time.Millisecond)
	d.Add(4 * time.Millisecond)
	if got := d.Median(); got != 3*time.Millisecond {
		t.Errorf("median after more adds = %v, want 3ms", got)
	}
	if got := d.Percentile(100); got != 5*time.Millisecond {
		t.Errorf("P100 = %v, want 5ms", got)
	}

	var f Samples[float64]
	f.Add(2)
	f.Add(9)
	if got := f.Median(); got != 2 {
		t.Errorf("float median of {2,9} = %v, want 2", got)
	}
	f.Add(1)
	if got := f.Median(); got != 2 {
		t.Errorf("float median of {2,9,1} = %v, want 2", got)
	}
	if got := f.Max(); got != 9 {
		t.Errorf("float max = %v, want 9", got)
	}
}

func TestRateKBps(t *testing.T) {
	if got := RateKBps(102400, time.Second); got != 100 {
		t.Errorf("RateKBps = %v, want 100", got)
	}
	if got := RateKBps(1024, 0); got != 0 {
		t.Errorf("RateKBps with zero elapsed = %v", got)
	}
}

// BenchmarkPercentileQueries measures a typical report: many samples, then
// a burst of percentile queries. The sort-once collectors do one sort and
// no per-query allocation; before the dirty flag every query copied and
// re-sorted the full sample set.
func BenchmarkPercentileQueries(b *testing.B) {
	var d Durations
	for i := 0; i < 10000; i++ {
		d.Add(time.Duration((i*2654435761)%100000) * time.Microsecond)
	}
	d.Percentile(50) // sort outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Percentile(50)
		d.Percentile(90)
		d.Percentile(99)
	}
}
