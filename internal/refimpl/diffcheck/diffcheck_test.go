package diffcheck

import (
	"math"
	"testing"

	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
	"fivealarms/internal/refimpl"
)

// The package's own tests run broad seed sweeps of every driver; the
// per-package conformance tests (geom, raster, rtree, grid, proj) rerun
// focused slices of the same drivers next to the code they guard.

func TestSweepContainment(t *testing.T) {
	if err := Sweep(300, CheckContainment); err != nil {
		t.Fatal(err)
	}
}

func TestSweepFill(t *testing.T) {
	if err := Sweep(200, CheckFill); err != nil {
		t.Fatal(err)
	}
}

func TestSweepDistance(t *testing.T) {
	if err := Sweep(200, CheckDistance); err != nil {
		t.Fatal(err)
	}
}

func TestSweepParallelKernels(t *testing.T) {
	if err := Sweep(150, CheckParallel); err != nil {
		t.Fatal(err)
	}
}

func TestSweepContour(t *testing.T) {
	if err := Sweep(300, CheckContour); err != nil {
		t.Fatal(err)
	}
}

// TestContourSweepCoverage pins what the contour sweep exercises: empty
// masks, checkerboard corners (vertices with two outgoing edges) and
// nested holes (an island polygon inside another polygon's hole).
func TestContourSweepCoverage(t *testing.T) {
	var empty, checker, nested int
	for seed := int64(0); seed < 300; seed++ {
		for _, gen := range []func(int64) (*raster.BitGrid, string){GenMaskCase, GenContourMask} {
			mask, _ := gen(seed)
			if mask.Count() == 0 {
				empty++
			}
			if hasCheckerboardCorner(mask) {
				checker++
			}
			if hasNestedHole(refimpl.TraceContours(mask)) {
				nested++
			}
		}
	}
	if empty == 0 || checker == 0 || nested == 0 {
		t.Fatalf("contour sweep covers %d empty masks, %d with checkerboard corners, %d with nested holes; want all > 0",
			empty, checker, nested)
	}
}

// hasCheckerboardCorner reports whether some grid vertex touches exactly
// two diagonally opposite set cells.
func hasCheckerboardCorner(m *raster.BitGrid) bool {
	for vy := 1; vy < m.NY; vy++ {
		for vx := 1; vx < m.NX; vx++ {
			sw, se := m.Get(vx-1, vy-1), m.Get(vx, vy-1)
			nw, ne := m.Get(vx-1, vy), m.Get(vx, vy)
			if sw == ne && se == nw && sw != se {
				return true
			}
		}
	}
	return false
}

// hasNestedHole reports whether some polygon's exterior lies inside
// another polygon's hole.
func hasNestedHole(mp geom.MultiPolygon) bool {
	for _, outer := range mp {
		for _, h := range outer.Holes {
			for _, inner := range mp {
				if refimpl.RingContains(h, inner.Exterior.Centroid()) {
					return true
				}
			}
		}
	}
	return false
}

func TestSweepBoxes(t *testing.T) {
	if err := Sweep(200, CheckBoxes); err != nil {
		t.Fatal(err)
	}
}

func TestSweepPointIndex(t *testing.T) {
	if err := Sweep(200, CheckPointIndex); err != nil {
		t.Fatal(err)
	}
}

func TestSweepAlbers(t *testing.T) {
	if err := Sweep(300, CheckAlbers); err != nil {
		t.Fatal(err)
	}
}

// TestSweepSharded runs one whole-study shard-count twin in this
// package; the root package's TestShardedDiffcheckSweep runs seeds 0-2,
// so this one takes the next seed.
func TestSweepSharded(t *testing.T) {
	if err := CheckSharded(3); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenFixtures(t *testing.T) {
	names := FixtureNames()
	if len(names) < 3 {
		t.Fatalf("expected at least 3 embedded fixtures, found %v", names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			if err := CheckGolden(name); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFixtureParsing(t *testing.T) {
	features, err := Fixture("rectilinear_perimeter.geojson")
	if err != nil {
		t.Fatal(err)
	}
	if len(features) != 3 {
		t.Fatalf("rectilinear_perimeter has %d features, want 3", len(features))
	}
	if len(features[0]) != 2 {
		t.Errorf("feature 0 has %d members, want 2", len(features[0]))
	}
	if len(features[0][0].Holes) != 1 {
		t.Errorf("feature 0 member 0 has %d holes, want 1", len(features[0][0].Holes))
	}
	// GeoJSON's explicit closing vertex must be stripped.
	ext := features[0][0].Exterior
	if ext[0] == ext[len(ext)-1] {
		t.Error("closing vertex not stripped")
	}
	if _, err := Fixture("no_such.geojson"); err == nil {
		t.Error("missing fixture must error")
	}
}

func TestEqualUlp(t *testing.T) {
	cases := []struct {
		a, b   float64
		maxUlp uint64
		want   bool
	}{
		{1.0, 1.0, 0, true},
		{1.0, math.Nextafter(1, 2), 1, true},
		{1.0, math.Nextafter(math.Nextafter(1, 2), 2), 1, false},
		{0.0, math.Copysign(0, -1), 0, true},
		{math.NaN(), math.NaN(), 0, true},
		{math.NaN(), 1.0, 64, false},
		{math.Inf(1), math.Inf(1), 0, true},
		{math.Inf(1), math.MaxFloat64, 64, false},
		{1e-300, -1e-300, 1 << 40, false},
	}
	for _, c := range cases {
		if got := EqualUlp(c.a, c.b, c.maxUlp); got != c.want {
			t.Errorf("EqualUlp(%g, %g, %d) = %v, want %v", c.a, c.b, c.maxUlp, got, c.want)
		}
	}
}

func TestDivergenceMessageShape(t *testing.T) {
	err := divergef("ring-contains", 42, "detail %d", 7)
	const want = "diffcheck/ring-contains (seed 42): detail 7"
	if err.Error() != want {
		t.Errorf("divergef = %q, want %q", err.Error(), want)
	}
}
