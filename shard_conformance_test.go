// Band-count conformance sweep: runs the diffcheck twins that pin every
// band count to the one-band reference. External test package on
// purpose — diffcheck imports fivealarms for its whole-study checks, so
// an internal test importing diffcheck would cycle.
package fivealarms_test

import (
	"testing"

	"fivealarms/internal/refimpl/diffcheck"
)

// TestShardedDiffcheckSweep runs the whole-study band-count twin: per
// seed, one one-band study against every (band count, schedule) pair,
// byte-identical tables and validation. Each seed builds nine studies,
// so the sweep stays small.
func TestShardedDiffcheckSweep(t *testing.T) {
	n := 3
	if testing.Short() {
		n = 1
	}
	if err := diffcheck.Sweep(n, diffcheck.CheckSharded); err != nil {
		t.Fatal(err)
	}
}
