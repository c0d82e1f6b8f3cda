// Package metrics provides the small statistics helpers the benchmark
// harness uses to report results the way the paper does: medians, maxima,
// and transfer rates.
package metrics

import (
	"slices"
	"time"
)

// Samples collects samples (durations, rates, ratios) for nearest-rank
// statistics. Percentile queries sort the samples in place and remember
// that they are sorted, so a burst of queries (median, p90, p99...) after a
// collection phase costs one sort and zero allocations.
type Samples[T time.Duration | float64] struct {
	samples []T
	sorted  bool
}

// Durations collects duration samples.
type Durations = Samples[time.Duration]

// Add records a sample.
func (d *Samples[T]) Add(v T) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

// N returns the number of samples.
func (d *Samples[T]) N() int { return len(d.samples) }

// Median returns the median sample (zero when empty).
func (d *Samples[T]) Median() T { return d.Percentile(50) }

// Percentile returns the pth percentile using nearest-rank.
func (d *Samples[T]) Percentile(p float64) T {
	if len(d.samples) == 0 {
		return 0
	}
	if !d.sorted {
		slices.Sort(d.samples)
		d.sorted = true
	}
	idx := int(float64(len(d.samples)-1) * p / 100.0)
	return d.samples[idx]
}

// Max returns the largest sample (zero when empty).
func (d *Samples[T]) Max() T {
	var m T
	for _, v := range d.samples {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest sample (zero when empty).
func (d *Samples[T]) Min() T {
	if len(d.samples) == 0 {
		return 0
	}
	m := d.samples[0]
	for _, v := range d.samples[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// RateKBps converts bytes transferred in elapsed time to KB/s (the paper's
// unit, 1 KB = 1024 bytes).
func RateKBps(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / 1024.0 / elapsed.Seconds()
}
