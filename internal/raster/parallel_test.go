package raster

import (
	"runtime"
	"testing"
	"time"
)

// TestKernelsLeaveNoGoroutines: every banded kernel joins the band
// goroutines it starts before it returns, so a kernel call leaves the
// goroutine count where it found it.
func TestKernelsLeaveNoGoroutines(t *testing.T) {
	g := Geometry{MinX: 0, MinY: 0, CellSize: 100, NX: 200, NY: 200} // 40,000 cells: above parallelMinCells
	polys := syntheticPerimeters(g, 12, 3)
	mask := NewBitGrid(g)
	FillPolygonsInto(mask, polys, 1)
	const workers = 4
	kernels := []struct {
		name string
		run  func()
	}{
		{"fill", func() { FillPolygonsInto(NewBitGrid(g), polys, workers) }},
		{"distance", func() { DistanceTransformWorkers(mask, workers) }},
		{"dilate", func() { DilateByDistanceWorkers(mask, 250, workers) }},
		{"dilate8", func() { Dilate8Workers(mask, 2, workers) }},
		{"contour", func() { TraceContoursWorkers(mask, workers) }},
	}
	for _, k := range kernels {
		before := runtime.NumGoroutine()
		k.run()
		// A band goroutine may still be unwinding just after its Done;
		// allow it a moment to exit, but no goroutine may persist.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Errorf("%s: goroutines = %d after the call, %d before\n%s", k.name, after, before, buf[:n])
		}
	}
}
