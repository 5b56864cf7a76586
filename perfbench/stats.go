package main

import (
	"math"
	"sort"
)

// tailLadder is the percentile ladder a distribution's tail is read
// from: the highest rung with at least minBeyond samples above it wins,
// so a tail figure is never one or two outliers.
var tailLadder = []float64{0.50, 0.90, 0.99, 0.999, 0.9999}

// minBeyond is the number of samples a reported percentile must have
// beyond it.
const minBeyond = 10

// dist summarizes one set of samples: the median, the highest ladder
// percentile with at least minBeyond samples beyond it, and the count.
type dist struct {
	N     int
	P50   float64
	TailQ float64 // 0 when fewer than minBeyond+1 samples exist
	Tail  float64
}

// summarize sorts a copy of xs and reads its median and tail.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: nearestRank(s, 0.5)}
	for _, q := range tailLadder {
		if beyond(len(s), q) >= minBeyond {
			d.TailQ, d.Tail = q, nearestRank(s, q)
		}
	}
	return d
}

// rankIndex is the zero-based nearest-rank index of quantile q in n
// sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond counts the samples strictly after the nearest-rank position of
// quantile q.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// nearestRank reads quantile q from sorted samples (NaN when empty).
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), q)]
}

// quantile sorts a copy of xs and reads quantile q (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, q)
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }
