package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"fivealarms"
	"fivealarms/internal/cellnet"
	"fivealarms/internal/census"
	"fivealarms/internal/conus"
	"fivealarms/internal/geom"
	"fivealarms/internal/powergrid"
	"fivealarms/internal/raster"
	"fivealarms/internal/risk"
	"fivealarms/internal/rng"
	"fivealarms/internal/serve/api"
	"fivealarms/internal/shard"
	"fivealarms/internal/whp"
	"fivealarms/internal/wildfire"
)

// probeShards is the band count of the shard probe, the study-fleet
// workload's own setting.
const probeShards = 4

// halfMileM is the paper's very-high dilation distance.
const halfMileM = 804.67

// kernelReps repeats millisecond-scale probes; the median is reported.
const kernelReps = 5

// layerProbe times direct calls into each layer on the workload's own
// configuration and inputs, one span per call under a "layers" root.
type layerProbe struct {
	clk  clock
	tr   *tracer
	run  int
	root int
	r    *report
}

// time runs f once as span name and records its duration as metric
// name_s.
func (p *layerProbe) time(name string, f func()) time.Duration {
	id := p.tr.begin(name, p.root, p.run)
	d := stopwatch(p.clk, f)
	p.tr.end(id)
	p.r.addDur(name+"_s", d)
	return d
}

// timeMedian runs f kernelReps times and records the median in seconds.
func (p *layerProbe) timeMedian(name string, f func()) {
	var xs []float64
	for i := 0; i < kernelReps; i++ {
		id := p.tr.begin(name, p.root, p.run)
		xs = append(xs, stopwatch(p.clk, f).Seconds())
		p.tr.end(id)
	}
	p.r.addN(name+"_s", "s", median(xs), len(xs))
}

// allocMB runs f and returns the heap bytes it allocated, in MiB, read
// from runtime/metrics (a measured delta, not an estimate).
func allocMB(f func()) float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	f()
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-before) / (1 << 20)
}

// probeLayers records the per-layer metrics of every study-side layer
// for cfg. st is a built study at cfg whose layers the downstream
// probes reuse; build_s is the study build time pipeline.overlap is
// measured against.
func probeLayers(clk clock, tr *tracer, run int, cfg fivealarms.Config, st *fivealarms.Study, buildS float64, r *report) {
	p := &layerProbe{clk: clk, tr: tr, run: run, root: tr.begin("layers", 0, run), r: r}
	defer tr.end(p.root)
	seed, a := st.Cfg.Seed, st.Analyzer
	workers := runtime.GOMAXPROCS(0)

	// The build layers, called serially: world through analyzer.
	var w *conus.World
	var hazard *whp.Map
	var data *cellnet.Dataset
	var counties *census.Counties
	sum := p.time("conus.build", func() { w = conus.Build(conus.Config{Seed: seed, CellSizeM: st.Cfg.CellSizeM}) })
	sum += p.time("whp.build", func() { hazard = whp.Build(w, w.Grid, whp.Config{}) })
	var gen time.Duration
	r.add("cellnet.generate_alloc_mb", "MiB", allocMB(func() {
		gen = p.time("cellnet.generate", func() {
			data = cellnet.Generate(w, cellnet.GenConfig{Seed: seed, Total: st.Cfg.Transceivers})
		})
	}))
	sum += gen
	r.add("cellnet.rows", "count", float64(data.Len()))
	sum += p.time("census.synthesize", func() { counties = census.Synthesize(w, seed) })
	sum += p.time("wildfire.new_sim", func() { wildfire.NewSimulator(w, hazard) })
	var newS time.Duration
	r.add("risk.new_alloc_mb", "MiB", allocMB(func() {
		newS = p.time("risk.new", func() { risk.New(w, hazard, data, counties) })
	}))
	sum += newS
	r.addDur("pipeline.layer_sum_s", sum)
	r.add("pipeline.overlap", "ratio", sum.Seconds()/buildS)
	w, hazard, data, counties = nil, nil, nil, nil
	settle()

	// wildfire: the fire simulator, serial and at GOMAXPROCS.
	fires := st.Cfg.MappedFiresPerSeason
	w1 := p.time("wildfire.history_w1", func() { wildfire.SimulateHistory(st.Sim, seed, fires) })
	var history []*wildfire.Season
	var wmax time.Duration
	r.add("wildfire.history_alloc_mb", "MiB", allocMB(func() {
		wmax = p.time("wildfire.history_wmax", func() {
			history = wildfire.SimulateHistoryParallel(st.Sim, seed, fires, workers)
		})
	}))
	r.add("wildfire.history_speedup", "ratio", w1.Seconds()/wmax.Seconds())
	var s2019 *wildfire.Season
	p.time("wildfire.season2019", func() { s2019 = wildfire.Simulate2019(st.Sim, seed, fires) })
	nFires, nVerts := 0, 0
	for _, s := range history {
		for i := range s.Mapped {
			nFires++
			nVerts += vertices(&s.Mapped[i])
		}
	}
	r.add("wildfire.fires", "count", float64(nFires))
	r.add("wildfire.perimeter_vertices", "count", float64(nVerts))
	settle()

	// raster: the kernels on the study's own grid and perimeters.
	g := st.World.Grid
	polys := risk.SeasonPerimeters(history)
	union := raster.NewBitGrid(g)
	raster.FillPolygonsInto(union, polys, 0)
	for _, k := range []struct {
		tag string
		n   int
	}{{"w1", 1}, {"wmax", workers}} {
		p.timeMedian("raster.fill_"+k.tag, func() { raster.FillPolygonsInto(raster.NewBitGrid(g), polys, k.n) })
		p.timeMedian("raster.distance_"+k.tag, func() { raster.DistanceTransformWorkers(union, k.n) })
		p.timeMedian("raster.dilate_"+k.tag, func() { raster.DilateByDistanceWorkers(union, halfMileM, k.n) })
		p.timeMedian("raster.contour_"+k.tag, func() { raster.TraceContoursWorkers(union, k.n) })
	}
	r.add("raster.cells", "count", float64(g.Cells()))
	// Computed, not measured: the distance transform reads the mask
	// once (1 bit per cell) and moves three float64 planes (column pass
	// write, row pass read, output write).
	r.metricNote("raster.distance_mb", "MiB", float64(g.Cells())*(24+0.125)/(1<<20), "computed")

	// whp: the fine 800 m California window of the §3.8 experiment.
	region := a.CaliforniaRegion().Intersection(g.Bounds())
	var window *whp.Map
	p.time("whp.window_build", func() {
		window = whp.Build(st.World, raster.NewGeometry(region, fineCellM), whp.Config{
			UrbanCoreThreshold: st.WHP.Cfg.UrbanCoreThreshold,
			WUIDamping:         st.WHP.Cfg.WUIDamping,
			Thresholds:         st.WHP.Cfg.Thresholds,
			NoiseScaleM:        st.WHP.Cfg.NoiseScaleM,
			RoadBufferM:        400,
		})
	})
	p.time("whp.extend_very_high", func() { window.ExtendVeryHigh(halfMileM) })
	window = nil
	settle()

	// risk: the joins, on the study's analyzer.
	p.time("risk.table1", func() { a.HistoricalOverlay(history) })
	cand, hits := 0, 0
	for _, s := range history {
		for i := range s.Mapped {
			f := &s.Mapped[i]
			cand += len(st.Data.Index.Query(f.PreparedPerimeter().BBox(), nil))
			hits += len(a.TransceiversInFire(f))
		}
	}
	r.add("risk.table1_candidates", "count", float64(cand))
	r.add("risk.table1_hit_ratio", "ratio", float64(hits)/float64(max(cand, 1)))
	p.time("risk.table2", func() { a.ProviderRisk() })
	p.time("risk.table3", func() { a.RadioTypeRisk() })
	p.time("risk.whp_overlay", func() { a.WHPOverlay() })
	p.time("risk.validate", func() { a.Validate(s2019) })
	p.time("risk.union_mask", func() { a.FireUnionMaskWorkers(history, 0) })
	p.time("risk.fire_distance", func() { a.FireDistance(history, 0) })
	p.time("risk.extend", func() { a.ExtendAndValidate(s2019, max(halfMileM, g.CellSize)) })
	p.time("risk.extend_fine", func() { a.ExtendAndValidateFine(s2019, fineCellM, 0) })
	p.time("risk.case_study", func() { a.CaseStudyFall2019(s2019, powergrid.NetConfig{Seed: seed}, seed) })
	settle()

	// shard: partition the fleet into row bands, overlay each band on
	// its own analyzer, and merge.
	var parts [][]int
	var store *cellnet.Store
	var perr error
	p.time("shard.partition", func() {
		store = cellnet.StoreOf(st.Data.T)
		parts, perr = shard.Partition(shard.MakePlan(g.NY, probeShards), g, store.Y)
	})
	r.check(perr == nil, "shard.Partition: %v", perr)
	overlays := make([]*risk.ShardOverlay, len(parts))
	p.time("risk.shard_overlay", func() {
		for i, idx := range parts {
			rows := store.AppendRows(make([]cellnet.Transceiver, 0, len(idx)), idx)
			sub := risk.New(st.World, st.WHP, cellnet.NewDataset(st.World, rows), st.Counties)
			overlays[i] = sub.ShardOverlay(history, s2019, 0)
		}
	})
	var merr error
	p.time("risk.merge", func() { _, _, _, _, merr = risk.MergeShardOverlays(overlays) })
	r.check(merr == nil, "risk.MergeShardOverlays: %v", merr)
	store, overlays = nil, nil
	settle()

	// powergrid: the PSPS network build and simulation of the case study.
	caRegion := a.CaliforniaRegion()
	var net *powergrid.Network
	p.time("powergrid.build_network", func() {
		net = powergrid.BuildNetwork(st.Data, st.WHP, caRegion, powergrid.NetConfig{Seed: seed})
	})
	var caFires []*wildfire.Fire
	for i := range s2019.Mapped {
		if caRegion.Intersects(s2019.Mapped[i].BBox()) {
			caFires = append(caFires, &s2019.Mapped[i])
		}
	}
	p.time("powergrid.simulate", func() { net.Simulate(powergrid.NewFall2019Scenario(caFires), seed) })
	r.add("powergrid.sites", "count", float64(len(net.Sites)))

	// serve/api encoding and the transceiver spatial index behind the
	// bbox route.
	t1, overlay := st.Table1(), st.WHPOverlay()
	r.add("api.encode_table1_us", "us", medianMicros(clk, 200, func() error {
		_, err := encodeV1(api.Table1From(t1))
		return err
	}, r))
	r.add("api.encode_overlay_us", "us", medianMicros(clk, 200, func() error {
		_, err := encodeV1(api.WHPOverlayFrom(overlay))
		return err
	}, r))
	src := rng.New(seed ^ 0xb0c5)
	var qs []float64
	nCand := 0
	var buf []int
	for i := 0; i < 500; i++ {
		box := projectBox(st, bboxQuery(src))
		qs = append(qs, float64(stopwatch(clk, func() { buf = st.Data.Index.Query(box, buf[:0]) }))/1e3)
		nCand += len(buf)
	}
	r.addN("grid.bbox_query_us", "us", median(qs), len(qs))
	r.add("grid.bbox_candidates", "count", float64(nCand)/float64(len(qs)))
}

// medianMicros runs f n times and returns the median in microseconds;
// an error from f is a failed output check.
func medianMicros(clk clock, n int, f func() error, r *report) float64 {
	xs := make([]float64, 0, n)
	var firstErr error
	for i := 0; i < n; i++ {
		var err error
		xs = append(xs, float64(stopwatch(clk, func() { err = f() }))/1e3)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	r.check(firstErr == nil, "%v", firstErr)
	return median(xs)
}

// lonLatBox is a query box in geographic degrees.
type lonLatBox struct{ MinLon, MinLat, MaxLon, MaxLat float64 }

func (b lonLatBox) query() string {
	return fmt.Sprintf("min_lon=%.4f&min_lat=%.4f&max_lon=%.4f&max_lat=%.4f", b.MinLon, b.MinLat, b.MaxLon, b.MaxLat)
}

// bboxQuery draws a bbox query the way the read mix does.
func bboxQuery(src *rng.Source) lonLatBox {
	lon, lat := src.Range(-124, -67), src.Range(25, 49)
	dl := src.Range(0.5, 3)
	return lonLatBox{lon, lat, lon + dl, lat + dl/2}
}

// projectBox maps a lon/lat box to the projected bounding box of its
// corners, as the bbox route does.
func projectBox(st *fivealarms.Study, b lonLatBox) geom.BBox {
	box := geom.EmptyBBox()
	for _, ll := range []geom.Point{
		{X: b.MinLon, Y: b.MinLat}, {X: b.MinLon, Y: b.MaxLat},
		{X: b.MaxLon, Y: b.MinLat}, {X: b.MaxLon, Y: b.MaxLat},
	} {
		box = box.ExtendPoint(st.World.ToXY(ll))
	}
	return box
}
