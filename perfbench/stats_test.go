package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestMedianNearestRank(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{2, 1}, 1},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median(nil) should be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		tailQ float64
		tail  float64
	}{
		{5, 0, 0},         // no rung has 10 samples beyond it
		{20, 0.50, 10},    // p50 at rank 10 leaves 10 beyond; p90 leaves 2
		{100, 0.90, 90},   // p99 would leave 1
		{1000, 0.99, 990}, // p99.9 would leave 1
		{1009, 0.99, 999}, // rank ceil(0.99*1009)=999 leaves 10
		{10000, 0.999, 9990},
	} {
		d := summarize(seq(tc.n))
		if d.N != tc.n || d.TailQ != tc.tailQ || d.Tail != tc.tail {
			t.Errorf("n=%d: got N=%d tail p%v=%v, want p%v=%v", tc.n, d.N, d.TailQ, d.Tail, tc.tailQ, tc.tail)
		}
		if tc.tailQ > 0 && beyond(tc.n, tc.tailQ) < minBeyond {
			t.Errorf("n=%d: reported p%v with only %d beyond", tc.n, tc.tailQ, beyond(tc.n, tc.tailQ))
		}
	}
}

func TestP99NeedsAThousandSamples(t *testing.T) {
	if n := beyond(500, 0.99); n >= minBeyond {
		t.Errorf("p99 of 500 samples has %d beyond; want fewer than %d", n, minBeyond)
	}
	if n := beyond(2000, 0.99); n != 20 {
		t.Errorf("p99 of 2000 samples has %d beyond, want 20", n)
	}
	if v := quantile(seq(2000), 0.99); v != 1980 {
		t.Errorf("p99 of 1..2000 = %v, want 1980", v)
	}
}
