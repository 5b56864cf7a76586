package conus

import (
	"math"
	"reflect"
	"testing"

	"fivealarms/internal/geom"
	"fivealarms/internal/rng"
)

// mapBuckets rebuilds the road buckets the dense index replaced, with the
// original bucketing: each segment, in registration order, is stepped at
// half-cell resolution, and every newly entered on-grid cell registers
// the segment under its 3x3 neighborhood unless that cell's last entry is
// already the segment.
func mapBuckets(w *World) map[int32][]int32 {
	buckets := map[int32][]int32{}
	for si, s := range w.roadSegs {
		seg := int32(si)
		d := s.b.Sub(s.a)
		steps := int(d.Norm()/(w.Grid.CellSize/2)) + 1
		last := int32(-1)
		for st := 0; st <= steps; st++ {
			p := s.a.Add(d.Scale(float64(st) / float64(steps)))
			cx, cy, ok := w.Grid.CellOf(p)
			if !ok {
				continue
			}
			if idx := int32(cy*w.Grid.NX + cx); idx != last {
				last = idx
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						nx, ny := cx+dx, cy+dy
						if nx < 0 || ny < 0 || nx >= w.Grid.NX || ny >= w.Grid.NY {
							continue
						}
						key := int32(ny*w.Grid.NX + nx)
						list := buckets[key]
						if n := len(list); n > 0 && list[n-1] == seg {
							continue
						}
						buckets[key] = append(list, seg)
					}
				}
			}
		}
	}
	return buckets
}

// refRoadDistAt is RoadDistAt as it read over the map buckets: two
// raster samples and a map lookup per point.
func refRoadDistAt(w *World, buckets map[int32][]int32, p geom.Point) float64 {
	v, ok := w.RoadDist.Sample(p)
	if !ok {
		return math.Inf(1)
	}
	if v > 2.5*w.Grid.CellSize {
		return v
	}
	cx, cy, ok := w.Grid.CellOf(p)
	if !ok {
		return v
	}
	best := math.Inf(1)
	for _, si := range buckets[int32(cy*w.Grid.NX+cx)] {
		s := w.roadSegs[si]
		if d := geom.DistancePointSegment(p, s.a, s.b); d < best {
			best = d
		}
	}
	if math.IsInf(best, 1) {
		for dy := -2; dy <= 2; dy++ {
			for dx := -2; dx <= 2; dx++ {
				key := int32((cy+dy)*w.Grid.NX + (cx + dx))
				if cy+dy < 0 || cx+dx < 0 || cy+dy >= w.Grid.NY || cx+dx >= w.Grid.NX {
					continue
				}
				for _, si := range buckets[key] {
					s := w.roadSegs[si]
					if d := geom.DistancePointSegment(p, s.a, s.b); d < best {
						best = d
					}
				}
			}
		}
	}
	if math.IsInf(best, 1) {
		return v
	}
	return best
}

// refNearestRoadPoint is NearestRoadPoint as it read over the map
// buckets.
func refNearestRoadPoint(w *World, buckets map[int32][]int32, p geom.Point) (geom.Point, bool) {
	cx, cy, ok := w.Grid.CellOf(p)
	if !ok {
		return geom.Point{}, false
	}
	best := math.Inf(1)
	var bestPt geom.Point
	for dy := -2; dy <= 2; dy++ {
		for dx := -2; dx <= 2; dx++ {
			nx, ny := cx+dx, cy+dy
			if nx < 0 || ny < 0 || nx >= w.Grid.NX || ny >= w.Grid.NY {
				continue
			}
			for _, si := range buckets[int32(ny*w.Grid.NX+nx)] {
				s := w.roadSegs[si]
				q := closestOnSegment(p, s.a, s.b)
				if d := p.DistanceTo(q); d < best {
					best = d
					bestPt = q
				}
			}
		}
	}
	return bestPt, !math.IsInf(best, 1)
}

// roadProbePoints returns n points that exercise every branch of the
// road lookups: near a centerline (inside the 3x3 buckets), in the
// 1.5-2.5 cell fallback ring, anywhere on the grid, on and just across
// the grid edges, far off the grid, and non-finite.
func roadProbePoints(w *World, src *rng.Source, n int) []geom.Point {
	g := w.Grid
	cs := g.CellSize
	b := g.Bounds()
	nearSeg := func(lo, hi float64) geom.Point {
		s := w.roadSegs[src.Intn(len(w.roadSegs))]
		on := s.a.Add(s.b.Sub(s.a).Scale(src.Float64()))
		r := src.Range(lo, hi) * cs
		th := src.Range(0, 2*math.Pi)
		return geom.Point{X: on.X + r*math.Cos(th), Y: on.Y + r*math.Sin(th)}
	}
	edge := func() geom.Point {
		eps := []float64{0, -1e-6, 1e-6, -cs / 3, cs / 3}[src.Intn(5)]
		x, y := src.Range(b.MinX, b.MaxX), src.Range(b.MinY, b.MaxY)
		switch src.Intn(4) {
		case 0:
			x = b.MinX + eps
		case 1:
			x = b.MaxX + eps
		case 2:
			y = b.MinY + eps
		default:
			y = b.MaxY + eps
		}
		return geom.Point{X: x, Y: y}
	}
	odd := []geom.Point{
		{X: math.NaN(), Y: math.NaN()},
		{X: math.NaN(), Y: b.MinY + cs},
		{X: b.MinX + cs, Y: math.NaN()},
		{X: math.Inf(1), Y: b.MinY + cs},
		{X: math.Inf(-1), Y: math.Inf(-1)},
		{X: b.MinX - 1e12, Y: b.MinY - 1e12},
		{X: 1e300, Y: 1e300},
		{X: b.MinX, Y: b.MinY},
		{X: b.MaxX, Y: b.MaxY},
	}
	pts := make([]geom.Point, 0, n+len(odd))
	pts = append(pts, odd...)
	for len(pts) < cap(pts) {
		switch k := src.Intn(20); {
		case k < 8:
			pts = append(pts, nearSeg(0, 1.5))
		case k < 13:
			pts = append(pts, nearSeg(1.5, 2.5))
		case k < 16:
			pts = append(pts, geom.Point{X: src.Range(b.MinX, b.MaxX), Y: src.Range(b.MinY, b.MaxY)})
		case k < 19:
			pts = append(pts, edge())
		default:
			pts = append(pts, geom.Point{X: src.Range(b.MinX-5*cs, b.MaxX+5*cs), Y: src.Range(b.MinY-5*cs, b.MaxY+5*cs)})
		}
	}
	return pts
}

// TestRoadIndexMatchesMapBuckets requires the dense road index to hold
// exactly the map buckets it replaced (same cells, same segment order)
// and RoadDistAt and NearestRoadPoint to return the same bits as the
// map-based lookups at ~100k probe points.
func TestRoadIndexMatchesMapBuckets(t *testing.T) {
	worlds := []*World{testWorld, Build(Config{Seed: 1, CellSizeM: 10000})}
	for wi, w := range worlds {
		buckets := mapBuckets(w)
		for i := 0; i < w.Grid.Cells(); i++ {
			got, want := w.cellSegs(i), buckets[int32(i)]
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("world %d cell %d: dense bucket %v, map bucket %v", wi, i, got, want)
			}
		}
		n := 50_000
		if testing.Short() {
			n = 5_000
		}
		src := rng.New(uint64(101 + wi))
		var exact, ring int
		for _, p := range roadProbePoints(w, src, n) {
			got, want := w.RoadDistAt(p), refRoadDistAt(w, buckets, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("world %d RoadDistAt(%v) = %v, map-bucket reference %v", wi, p, got, want)
			}
			gq, gok := w.NearestRoadPoint(p)
			wq, wok := refNearestRoadPoint(w, buckets, p)
			if gok != wok || math.Float64bits(gq.X) != math.Float64bits(wq.X) || math.Float64bits(gq.Y) != math.Float64bits(wq.Y) {
				t.Fatalf("world %d NearestRoadPoint(%v) = %v %v, map-bucket reference %v %v", wi, p, gq, gok, wq, wok)
			}
			if v, ok := w.RoadDist.Sample(p); ok && v <= 2.5*w.Grid.CellSize {
				if cx, cy, _ := w.Grid.CellOf(p); len(buckets[int32(cy*w.Grid.NX+cx)]) > 0 {
					exact++
				} else {
					ring++
				}
			}
		}
		// The probes must reach both the bucketed path and the 5x5
		// fallback, or the comparison proves little.
		if exact < n/10 || ring < n/100 {
			t.Errorf("world %d: %d probes on the bucketed path, %d on the fallback ring", wi, exact, ring)
		}
	}
}

func BenchmarkRoadDistAt(b *testing.B) {
	w := testWorld
	pts := roadProbePoints(w, rng.New(3), 4096)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += w.RoadDistAt(pts[i%len(pts)])
	}
	benchSink = sink
}

var benchSink float64
