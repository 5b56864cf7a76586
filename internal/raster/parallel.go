package raster

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The tiled execution model: every raster kernel decomposes its grid
// into contiguous bands (row ranges for scanline work, column ranges
// for the distance transform's first pass, word ranges for bit-level
// work) and runs the bands concurrently for the duration of one kernel
// call. Band boundaries are a pure function of (item count, band
// count), each band writes a disjoint region of the output or a private
// tile merged serially in band order, and no band's result depends on
// scheduling — so the parallel kernels are bit-identical to the serial
// path at any worker count, which the diffcheck parallel drivers
// enforce (DESIGN.md, "Raster execution model").

// A bandTask is one kernel invocation's banded execution: runBand
// processes the half-open range [lo, hi) of band index `band`.
type bandTask interface {
	runBand(band, lo, hi int)
}

// parallelMinCells is the grid size below which the auto worker setting
// stays serial: dispatch plus merge overhead is ~µs, so tiny grids are
// faster single-threaded and the parallel machinery only pays for
// itself on study-scale rasters.
const parallelMinCells = 1 << 14

// maxKernelBands caps the band count: more bands than this only adds
// dispatch and merge overhead with no extra hardware parallelism to
// exploit.
const maxKernelBands = 256

// kernelBands resolves a kernel's exported workers parameter to a band
// count for items work units on a cells-sized grid. 0 selects
// GOMAXPROCS (falling back to serial below parallelMinCells), 1 forces
// the serial path, larger values request that many bands; the result is
// always within [1, items] so every band is non-empty.
func kernelBands(workers, cells, items int) int {
	if workers == 0 {
		if cells < parallelMinCells {
			return 1
		}
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > maxKernelBands {
		workers = maxKernelBands
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// bandGoroutines counts the band goroutines runBands has started.
var bandGoroutines atomic.Int64

// BandGoroutines returns how many band goroutines the raster kernels
// have started in this process. A kernel call that leaves it unchanged
// ran entirely on its caller's goroutine.
func BandGoroutines() int64 { return bandGoroutines.Load() }

// runBands executes t over [0, n) split into bands contiguous ranges:
// band b covers [b*n/bands, (b+1)*n/bands). Band 0 runs inline on the
// calling goroutine and bands 1..bands-1 on goroutines started here;
// on return every band has completed, its writes are visible, and no
// goroutine started by the call is still running.
func runBands(t bandTask, n, bands int) {
	if bands <= 1 || n <= 1 {
		t.runBand(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(bands - 1)
	bandGoroutines.Add(int64(bands - 1))
	for b := 1; b < bands; b++ {
		lo, hi := bandRange(b, n, bands)
		go func() {
			defer wg.Done()
			t.runBand(b, lo, hi)
		}()
	}
	t.runBand(0, 0, n/bands)
	wg.Wait()
}

// bandRange returns the [lo, hi) range of band b when n items split
// into bands bands — the same arithmetic runBands uses, exposed so
// merge phases can locate each band's tile.
func bandRange(b, n, bands int) (lo, hi int) {
	return b * n / bands, (b + 1) * n / bands
}
