package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of
// sorted: the smallest sample with at least a share p of the samples at
// or below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// minTailSamples is how many samples must lie beyond a percentile for it
// to be reported: the highest percentile with fewer is dominated by one
// or two outliers.
const minTailSamples = 10

// percentileSupported reports whether n samples leave at least
// minTailSamples beyond the p-th percentile.
func percentileSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= minTailSamples
}

// latencySummary is what a phase reports about its op latencies.
type latencySummary struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50_ms"`
	P95     float64 `json:"p95_ms"`
	// P99 is 0 when fewer than minTailSamples samples lie beyond it.
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

func summarize(latMs []float64) latencySummary {
	s := append([]float64(nil), latMs...)
	sort.Float64s(s)
	out := latencySummary{Samples: len(s), P50: percentile(s, 0.50), P95: percentile(s, 0.95)}
	if percentileSupported(len(s), 0.99) {
		out.P99 = percentile(s, 0.99)
	}
	if len(s) > 0 {
		out.Max = s[len(s)-1]
	}
	return out
}

// median returns the middle value of vals (the mean of the middle two
// for an even count); 0 when empty.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile of vals by the method
// Python's statistics.quantiles(vals, n=4) uses (exclusive), so spreads
// computed here match the driver's. It needs at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n < 2 {
		if n == 1 {
			return vals[0], vals[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(m)
}
