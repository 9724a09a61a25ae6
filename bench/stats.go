package main

import (
	"math"
	"sort"
)

// Metric is one named measurement. N is the number of samples behind
// Value (0 for counts and gauges); Note carries the caveat the report
// prints next to it (e.g. how many samples lie beyond a percentile).
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// rank is the nearest-rank position (1-based) of the p-th percentile
// among n samples: the smallest rank with at least p% of the samples at
// or below it. The epsilon keeps 99.9% of 10000 at 9990, not 9991.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// findMetric returns the metric called name, or a zero Metric.
func findMetric(ms []Metric, name string) Metric {
	for _, m := range ms {
		if m.Name == name {
			return m
		}
	}
	return Metric{}
}

// percentile returns the p-th percentile (0 < p <= 100) of an ascending
// slice by the nearest-rank rule. It returns NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond counts the samples ranked above the p-th percentile of n.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailPercentiles are the candidates of the percentile rule, ascending.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than one outlier's value.
const minBeyond = 10

// supportedTail returns the highest candidate percentile that n samples
// support: the one with at least minBeyond samples beyond it. With too
// few samples for any candidate it falls back to the median.
func supportedTail(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// sortedCopy returns xs ascending without disturbing the caller's order.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (mean of the two middles for even n).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// relDiff is the A/A distance between two runs of one metric: the
// absolute difference as a share of the smaller magnitude.
func relDiff(a, b float64) float64 {
	lo := math.Min(math.Abs(a), math.Abs(b))
	if lo == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / lo
}

// finite reports whether v is a usable measurement.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
