package whp

import (
	"math"
	"testing"

	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
	"fivealarms/internal/rng"
)

// refStateUrban samples the state zone and the urban field separately,
// each raster locating the point itself, as StateAt and UrbanAt did
// before the world grew Locate.
func refStateUrban(m *Map, p geom.Point) (int, float64) {
	v, ok := m.world.StateZone.Sample(p)
	if !ok || v == 0 {
		return -1, 0
	}
	urban, _ := m.world.Urban.Sample(p)
	return int(v) - 1, urban
}

// refEvaluate is the cell evaluation as it read before the point was
// located once: separate state, urban and RoadDistAt lookups, each
// locating the point on the world grid itself.
func refEvaluate(m *Map, p geom.Point) (float64, Class) {
	w := m.world
	si, urban := refStateUrban(m, p)
	if si < 0 {
		return 0, Water
	}
	if urban >= m.Cfg.UrbanCoreThreshold {
		return 0, NonBurnable
	}
	if w.RoadDistAt(p) <= m.Cfg.RoadBufferM {
		return 0, NonBurnable
	}
	h := m.HazardValue(p, si, urban)
	return h, classify(h, m.Cfg.Thresholds)
}

// refFuelAt is FuelAt as it read before the point was located once.
func refFuelAt(m *Map, p geom.Point) float64 {
	w := m.world
	si, urban := refStateUrban(m, p)
	if si < 0 {
		return 0
	}
	if urban >= m.Cfg.UrbanCoreThreshold || w.RoadDistAt(p) <= m.Cfg.RoadBufferM {
		return 0.03
	}
	h := m.HazardValue(p, si, urban)
	if h < 0.05 {
		return 0.05
	}
	return h
}

// fuelProbePoints returns n points around the gazetteer cities (urban
// cores and the road corridors that connect them), anywhere on and
// around the world grid, and non-finite.
func fuelProbePoints(m *Map, src *rng.Source, n int) []geom.Point {
	w := m.world
	b := w.Grid.Bounds()
	pts := []geom.Point{
		{X: math.NaN(), Y: math.NaN()},
		{X: math.Inf(1), Y: b.MinY},
		{X: b.MinX, Y: b.MinY},
		{X: b.MaxX, Y: b.MaxY},
	}
	for len(pts) < n {
		if src.Bool(0.6) {
			c := w.Cities[src.Intn(len(w.Cities))].XY
			r := src.Range(0, 60000)
			th := src.Range(0, 2*math.Pi)
			pts = append(pts, geom.Point{X: c.X + r*math.Cos(th), Y: c.Y + r*math.Sin(th)})
			continue
		}
		pad := 3 * w.Grid.CellSize
		pts = append(pts, geom.Point{X: src.Range(b.MinX-pad, b.MaxX+pad), Y: src.Range(b.MinY-pad, b.MaxY+pad)})
	}
	return pts
}

// TestFusedLookupMatchesSeparateLookups requires FuelAt and the built
// hazard and class grids to carry the same bits as the separate
// state, urban and road-distance lookups, on the national grid and on a
// fine 800 m window, at every worker count.
func TestFusedLookupMatchesSeparateLookups(t *testing.T) {
	// Probes per FuelAt outcome: off-CONUS 0, the 0.03 nonburnable
	// permeability, the 0.05 wildland floor, and a hazard value above it.
	floors := [3]float64{0, 0.03, 0.05}
	var branches [4]int
	for _, p := range fuelProbePoints(testMap, rng.New(11), 40_000) {
		got, want := testMap.FuelAt(p), refFuelAt(testMap, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("FuelAt(%v) = %v, separate lookups give %v", p, got, want)
		}
		gh, gc := testMap.evaluate(p)
		wh, wc := refEvaluate(testMap, p)
		if math.Float64bits(gh) != math.Float64bits(wh) || gc != wc {
			t.Fatalf("evaluate(%v) = %v %v, separate lookups give %v %v", p, gh, gc, wh, wc)
		}
		k := len(floors)
		for i, f := range floors {
			if want == f {
				k = i
			}
		}
		branches[k]++
	}
	for k, n := range branches {
		if n == 0 {
			t.Errorf("no probe reached FuelAt outcome %d (0, 0.03, 0.05, hazard): %v", k, branches)
		}
	}

	la := testWorld.ToXY(geom.Point{X: -118.3, Y: 34.1})
	fine := windowAround(testWorld, la, 100000, 800)
	fineCfg := Config{RoadBufferM: 400}
	for _, tc := range []struct {
		name string
		g    raster.Geometry
		cfg  Config
	}{
		{"national", testWorld.Grid, Config{}},
		{"fine-800m", fine, fineCfg},
	} {
		for _, workers := range []int{1, 3, 0} {
			cfg := tc.cfg
			cfg.Workers = workers
			m := Build(testWorld, tc.g, cfg)
			for cy := 0; cy < tc.g.NY; cy++ {
				for cx := 0; cx < tc.g.NX; cx++ {
					h, c := refEvaluate(m, tc.g.Center(cx, cy))
					if math.Float64bits(m.Hazard.At(cx, cy)) != math.Float64bits(h) || Class(m.Classes.At(cx, cy)) != c {
						t.Fatalf("%s workers=%d cell (%d,%d): built %v %v, separate lookups give %v %v",
							tc.name, workers, cx, cy, m.Hazard.At(cx, cy), Class(m.Classes.At(cx, cy)), h, c)
					}
				}
			}
		}
	}
}

func BenchmarkFuelAt(b *testing.B) {
	pts := fuelProbePoints(testMap, rng.New(5), 4096)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += testMap.FuelAt(pts[i%len(pts)])
	}
	benchSink = sink
}

var benchSink float64
