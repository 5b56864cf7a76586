package wildfire

import (
	"runtime"
	"testing"

	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
)

// A warm fire takes its window-sized scratch (fuel cache, seen flags,
// frontier heap, burned mask, contour edge table) from pools, so a
// second fire over the same window allocates less than one fresh fuel
// buffer would: only the perimeter and the Fire itself are new.
func TestGrowFireWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// One P: a pooled item put back on one P is not visible to a Get on
	// another P's private slot.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ign := testWorld.ToXY(geom.Point{X: -120.8, Y: 39.3})
	const acres = 10000
	g, _ := fireWindow(ign, acres)
	grow := func() *Fire { return testSim.growFire(newTestSource(3), "Warm", 2019, ign, acres, 45, 0) }
	if grow() == nil {
		t.Fatal("test ignition burned nothing")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := grow()
	runtime.ReadMemStats(&after)
	if f == nil {
		t.Fatal("warm fire burned nothing")
	}
	bound := uint64(g.Cells()) * 8
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Errorf("warm growFire allocated %d B, want < %d B (one %d-cell fuel buffer)", got, bound, g.Cells())
	}
}

// The simulator traces each perimeter serially: a history already runs
// one season per core, so band goroutines inside a fire would only
// oversubscribe it.
func TestSimulatorTraceStartsNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ign := testWorld.ToXY(geom.Point{X: -120.8, Y: 39.3})
	const acres = 10000

	// The window is large enough that an auto-banded trace would start
	// band goroutines — and the counter sees them.
	g, _ := fireWindow(ign, acres)
	mask := raster.NewBitGrid(g)
	mask.Set(g.NX/2, g.NY/2, true)
	before := raster.BandGoroutines()
	raster.TraceContours(mask)
	if raster.BandGoroutines() == before {
		t.Fatalf("an auto-banded trace of the %dx%d window started no band goroutines", g.NX, g.NY)
	}

	before = raster.BandGoroutines()
	if f := testSim.growFire(newTestSource(3), "Serial", 2019, ign, acres, 45, 0); f == nil {
		t.Fatal("test ignition burned nothing")
	}
	if n := raster.BandGoroutines() - before; n != 0 {
		t.Errorf("growFire started %d band goroutines, want 0", n)
	}
}
