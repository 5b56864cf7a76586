package risk

import (
	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
	"fivealarms/internal/whp"
	"fivealarms/internal/wildfire"
)

// FineExtension is the §3.8 experiment at sub-kilometer resolution: a
// fine WHP window over the validation region, the true half-mile buffer,
// and the before/after accuracy the paper reports (46% -> 62%). The
// national raster cannot express an 800 m buffer; this window can.
type FineExtension struct {
	// CellSize and DistM describe the window raster and buffer.
	CellSize, DistM float64
	// WindowTransceivers is the fleet inside the window.
	WindowTransceivers int
	// InPerimeter counts window transceivers inside the season's
	// window-intersecting fire perimeters.
	InPerimeter int
	// PredictedBefore/After count those in moderate+ classes before and
	// after the very-high extension.
	PredictedBefore, PredictedAfter int
	// VHBefore/After count window transceivers classified very-high.
	VHBefore, VHAfter int
}

// AccuracyBeforePct returns the pre-extension hit rate.
func (f *FineExtension) AccuracyBeforePct() float64 {
	if f.InPerimeter == 0 {
		return 0
	}
	return 100 * float64(f.PredictedBefore) / float64(f.InPerimeter)
}

// AccuracyAfterPct returns the post-extension hit rate.
func (f *FineExtension) AccuracyAfterPct() float64 {
	if f.InPerimeter == 0 {
		return 0
	}
	return 100 * float64(f.PredictedAfter) / float64(f.InPerimeter)
}

// ExtendAndValidateFine runs the fine-resolution §3.8 experiment over the
// California case-study region: rebuild the WHP at cellSize meters inside
// the window, classify the window's transceivers against it, join them
// against the season's perimeters, then dilate the very-high class by
// distM (the paper: 804.67 m) and re-classify. cellSize 0 selects 800 m;
// distM 0 selects the half mile.
//
// Cost scales with the window cell count (the CA window at 800 m is ~2M
// cells); the national analyses stay on the coarse shared raster.
func (a *Analyzer) ExtendAndValidateFine(season *wildfire.Season, cellSize, distM float64) *FineExtension {
	if cellSize <= 0 {
		cellSize = 800
	}
	if distM <= 0 {
		distM = 0.5 * geom.MetersPerMile
	}
	region := a.CaliforniaRegion().Intersection(a.World.Grid.Bounds())
	g := raster.NewGeometry(region, cellSize)
	fine := whp.Build(a.World, g, whp.Config{
		// Inherit the analyzer's calibration, but give the nonburnable
		// transportation corridor its physical half-width (~400 m of
		// roadway, shoulders and managed verge) rather than the raster-
		// coupled default — this is what the half-mile buffer reaches
		// across, exactly the §3.8 mechanism.
		UrbanCoreThreshold: a.WHP.Cfg.UrbanCoreThreshold,
		WUIDamping:         a.WHP.Cfg.WUIDamping,
		Thresholds:         a.WHP.Cfg.Thresholds,
		NoiseScaleM:        a.WHP.Cfg.NoiseScaleM,
		RoadBufferM:        400,
		Workers:            a.WHP.Cfg.Workers,
	})

	res := &FineExtension{CellSize: cellSize, DistM: distM}

	// Window transceivers and their fine classes.
	ids := a.Data.Index.Query(region, nil)
	res.WindowTransceivers = len(ids)
	classBefore := make(map[int]whp.Class, len(ids))
	for _, ti := range ids {
		classBefore[ti] = fine.ClassAt(a.Data.T[ti].XY)
	}
	for _, c := range classBefore {
		if c == whp.VeryHigh {
			res.VHBefore++
		}
	}

	// Extended classes.
	ext := fine.ExtendVeryHigh(distM)
	classAfter := make(map[int]whp.Class, len(ids))
	for _, ti := range ids {
		v, ok := ext.Sample(a.Data.T[ti].XY)
		if !ok {
			classAfter[ti] = whp.Water
			continue
		}
		classAfter[ti] = whp.Class(v)
		if whp.Class(v) == whp.VeryHigh {
			res.VHAfter++
		}
	}

	// Join against the window's fires.
	inPerimeter := map[int]bool{}
	var buf []int
	for fi := range season.Mapped {
		f := &season.Mapped[fi]
		prep := f.PreparedPerimeter()
		if !prep.BBox().Intersects(region) {
			continue
		}
		buf = a.Data.Index.Query(prep.BBox(), buf[:0])
		for _, ti := range buf {
			if !region.ContainsPoint(a.Data.T[ti].XY) {
				continue
			}
			if prep.Contains(a.Data.T[ti].XY) {
				inPerimeter[ti] = true
			}
		}
	}
	res.InPerimeter = len(inPerimeter)
	for ti := range inPerimeter {
		if classBefore[ti].AtRisk() {
			res.PredictedBefore++
		}
		if classAfter[ti].AtRisk() {
			res.PredictedAfter++
		}
	}
	return res
}
