package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"fivealarms"
)

// perLayer lists the metrics a --trace 1 run reports on its last line.
// BENCHMARK.json lists the same names.
var perLayer = []string{
	"fivealarms.build_s", "fivealarms.history_s", "fivealarms.season2019_s", "fivealarms.table1_s",
	"fivealarms.tables23_s", "fivealarms.overlay_s", "fivealarms.validate_s", "fivealarms.union_masks_s",
	"fivealarms.case_study_s", "fivealarms.extend_s", "fivealarms.extend_fine_s",
	"pipeline.layer_sum_s", "pipeline.overlap",
	"wildfire.new_sim_s", "wildfire.history_w1_s", "wildfire.history_wmax_s", "wildfire.history_speedup",
	"wildfire.season2019_s", "wildfire.fires", "wildfire.perimeter_vertices", "wildfire.history_alloc_mb",
	"raster.fill_w1_s", "raster.fill_wmax_s", "raster.distance_w1_s", "raster.distance_wmax_s",
	"raster.dilate_w1_s", "raster.dilate_wmax_s", "raster.contour_w1_s", "raster.contour_wmax_s",
	"raster.cells", "raster.distance_mb",
	"whp.build_s", "whp.window_build_s", "whp.extend_very_high_s", "conus.build_s", "census.synthesize_s",
	"cellnet.generate_s", "cellnet.generate_alloc_mb", "cellnet.rows",
	"risk.new_s", "risk.new_alloc_mb", "risk.table1_s", "risk.table1_candidates", "risk.table1_hit_ratio",
	"risk.table2_s", "risk.table3_s", "risk.whp_overlay_s", "risk.validate_s", "risk.union_mask_s",
	"risk.fire_distance_s", "risk.extend_s", "risk.extend_fine_s", "risk.case_study_s",
	"risk.shard_overlay_s", "risk.merge_s",
	"powergrid.build_network_s", "powergrid.simulate_s", "powergrid.sites",
	"shard.partition_s",
	"serve.point_p50_ms", "serve.point_p99_ms", "serve.bbox_p50_ms", "serve.bbox_p99_ms",
	"serve.tables_p50_ms", "serve.tables_p99_ms", "serve.overlay_p50_ms", "serve.overlay_p99_ms",
	"serve.handler_point_us", "serve.handler_bbox_us", "serve.handler_tables_us", "serve.handler_overlay_us",
	"serve.transport_share", "serve.warm_s", "serve.shed",
	"api.encode_table1_us", "api.encode_overlay_us",
	"grid.bbox_query_us", "grid.bbox_candidates",
	"loadgen.late_p99_ms",
}

// bench is one run of one workload.
type bench struct {
	o      options
	cfg    fivealarms.Config
	clk    clock
	tr     *tracer
	r      *report
	golden goldenFile
	dur    time.Duration

	peaks          []float64 // per-operation peak RSS, MiB
	peakCumulative bool      // the high-water mark could not be reset
}

// startPeak resets the RSS high-water mark before a measured operation.
// Where the kernel refuses, the peaks read later are the process's
// running peak, and the report says so.
func (b *bench) startPeak() {
	if err := resetPeakRSS(); err != nil && !b.peakCumulative {
		b.peakCumulative = true
		b.r.note("%v: peak_rss_mb is the process's running peak", err)
	}
}

// endPeak reads the high-water mark since startPeak.
func (b *bench) endPeak() error {
	v, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.peaks = append(b.peaks, v)
	return nil
}

// checkStudy counts one cold study as an attempted operation: it fails
// on a broken invariant, a fingerprint that differs from the run's
// first study, or one that differs from the golden record.
func (b *bench) checkStudy(what string, sr *studyRun, ref fingerprints, goldenOf string) {
	errs := sr.Errs
	if ref != nil {
		errs = append(errs, sr.Prints.diff(ref)...)
	}
	if want, ok := b.golden.goldenFor(goldenOf, b.o.seed); ok {
		errs = append(errs, sr.Prints.diff(want)...)
	}
	b.r.checkErrs(what, errs)
}

// study runs a study workload: studySetups Study builds, then cold
// studies for the measured seconds (study_s). setup_s is the median
// build over the set-up builds and every untraced cold study's own
// build, so it samples the host's load over the whole run rather than
// over its first second.
// A traced run alternates untraced and traced studies, so the
// difference is the tracing overhead, then probes every layer and a
// server at the same scale.
func (b *bench) study(ctx context.Context) error {
	r := b.r
	var setups []float64
	for k := 0; k < studySetups; k++ {
		var st *fivealarms.Study
		var err error
		d := stopwatch(b.clk, func() { st, err = fivealarms.NewStudyWithOptions(fivealarms.WithConfig(b.cfg)) })
		r.check(err == nil, "set-up build %d: %v", k, err)
		if st != nil {
			r.Provenance.Scale = scale(st.Cfg)
		}
		setups = append(setups, d.Seconds())
		settle()
	}

	var plain, traced []float64
	phases := map[string][]float64{}
	var ref fingerprints
	var last *studyRun
	need := minMeasured
	if b.tr != nil {
		need = minTracedEach
	}
	start := b.clk.Now()
	for i := 0; b.clk.Now()-start < b.dur || len(plain) < need || (b.tr != nil && len(traced) < need); i++ {
		last = nil
		settle()
		useTrace := b.tr != nil && i%2 == 1
		var tr *tracer
		if useTrace {
			tr = b.tr
		}
		if !useTrace {
			b.startPeak()
		}
		sr := coldStudy(b.clk, tr, i+1, b.cfg)
		if !useTrace {
			if err := b.endPeak(); err != nil {
				return err
			}
		}
		b.checkStudy(fmt.Sprintf("study %d", i), sr, ref, b.o.workload)
		if ref == nil {
			ref = sr.Prints
		}
		if useTrace {
			traced = append(traced, sr.Total.Seconds())
			for name, d := range sr.Phase {
				phases[name] = append(phases[name], d.Seconds())
			}
		} else {
			plain = append(plain, sr.Total.Seconds())
			setups = append(setups, sr.Phase["build"].Seconds())
		}
		last = sr
	}
	if b.o.writeGolden != "" {
		if err := writeGolden(b.o.writeGolden, b.o.workload, ref); err != nil {
			return err
		}
	}
	r.addN("setup_s", "s", median(setups), len(setups))
	studyS := median(plain)
	r.addN("study_s", "s", studyS, len(plain))
	r.note("builds (s): %.4g; untraced cold studies (s): %.4g", setups, plain)
	// Studies run one at a time, so the rate is the median study's; a
	// mean would let one study slowed by outside load move it.
	r.addN("ops_per_s", "1/s", 1/studyS, len(plain))
	r.addN("peak_rss_mb", "MiB", median(b.peaks), len(b.peaks))
	if b.tr == nil || last.Study == nil {
		return nil
	}

	r.note("tracing overhead: traced study_s %.4f s - untraced %.4f s = %+.4f s", median(traced), studyS, median(traced)-studyS)
	for _, name := range products {
		r.addN("fivealarms."+name+"_s", "s", median(phases[name]), len(phases[name]))
	}
	probeLayers(b.clk, b.tr, 1000, b.cfg, last.Study, median(phases["build"]), r)
	want, err := expectedBodies(last.Study)
	if err != nil {
		return err
	}
	last = nil
	settle()
	up, err := bringUpServer(ctx, b.clk, b.tr, 2000, b.cfg, runtime.NumCPU(), want, r)
	if err != nil {
		return err
	}
	defer up.s.stop()
	r.addDur("serve.warm_s", up.warm)
	hi := up.s.openPhase(b.clk, b.tr, 2001, "open_hi", rateHi, b.share(hiPct), runtime.NumCPU(), b.o.seed)
	hi.tally("open_hi", r)
	b.servePerLayer(up.s, hi)
	b.splitChecks(studyS)
	return nil
}

// splitChecks reports whether the traced run confirms the workload's
// design: which layers dominate its study_s.
func (b *bench) splitChecks(studyS float64) {
	r := b.r
	get := func(name string) float64 {
		m, _ := r.lookup(name)
		return m.Value
	}
	switch b.o.workload {
	case "study-default":
		share := get("wildfire.history_wmax_s") / studyS
		r.note("design split: wildfire.history_wmax_s / study_s = %.2f (want >= 0.50): %s", share, verdict(share >= 0.5))
	case "study-fleet":
		fleet := (get("risk.case_study_s") + get("cellnet.generate_s") + get("risk.new_s")) / studyS
		fire := get("wildfire.history_wmax_s") / studyS
		r.note("design split: (risk.case_study_s + cellnet.generate_s + risk.new_s) / study_s = %.2f (want >= 0.50): %s", fleet, verdict(fleet >= 0.5))
		r.note("design split: wildfire.history_wmax_s / study_s = %.3f (want <= 0.10): %s", fire, verdict(fire <= 0.1))
	}
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "NOT MET"
}

// serveRead runs the serving workload. A directly built study gives the
// expected response bytes. The measured seconds are then rounds of
// server bring-ups (New, Warm, the first /v1/tables/1, a warm pass),
// which give setup_s, study_s and first_read_ms, each followed by a
// slice of the three load phases of the read mix on the round's last
// server: open-loop at rateLo, closed-loop with one client per CPU,
// open-loop at rateHi. Spread over the run, every metric samples the
// host's load over all of it rather than over one stretch.
func (b *bench) serveRead(ctx context.Context) error {
	r := b.r
	direct := coldStudy(b.clk, b.tr, 1, b.cfg)
	b.checkStudy("direct study", direct, nil, "study-default")
	if direct.Study == nil {
		return fmt.Errorf("direct study: %v", direct.Errs)
	}
	r.Provenance.Scale = scale(direct.Study.Cfg)
	want, err := expectedBodies(direct.Study)
	if err != nil {
		return err
	}
	if b.tr == nil {
		direct = nil // keep peak_rss_mb the server's own
	}
	settle()

	senders := runtime.NumCPU()
	var s *server
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	var totals, cold, first, warm []float64
	// bringUps replaces s with fresh servers for one round: at least
	// minRoundBringUps, and more while the round's share of the
	// measured seconds lasts.
	bringUps := func() error {
		start := b.clk.Now()
		for k := 0; k < minRoundBringUps || b.clk.Now()-start < b.share(bringUpPct)/rounds; k++ {
			if s != nil {
				s.stop()
				s = nil
				settle()
			}
			b.startPeak()
			up, err := bringUpServer(ctx, b.clk, nil, 0, b.cfg, senders, want, r)
			if err != nil {
				return err
			}
			s = up.s
			if err := b.endPeak(); err != nil {
				return err
			}
			totals = append(totals, up.total.Seconds())
			cold = append(cold, (up.warm + up.firstRead).Seconds())
			first = append(first, float64(up.firstRead)/1e6)
			warm = append(warm, up.warm.Seconds())
		}
		return nil
	}

	// Each round brings servers up, then runs a slice of every load
	// phase on the last one, so each phase samples the whole run too.
	lo, hi := &loadPhase{}, &loadPhase{}
	var rates []float64
	for k := uint64(0); k < rounds; k++ {
		if err := bringUps(); err != nil {
			return err
		}
		seed := b.o.seed + 3*k
		ph := s.openPhase(b.clk, b.tr, 3, "open_lo", rateLo, b.share(loPct)/rounds, senders, seed)
		ph.tally("open_lo", r)
		lo.merge(ph)
		ph = s.closedPhase(b.clk, nil, 5, "closed", b.share(closedPct)/rounds, senders, seed+1)
		ph.tally("closed", r)
		rates = append(rates, windowRates(ph.samples, ph.elapsed, qpsWindow)...)
		ph = s.openPhase(b.clk, b.tr, 4, "open_hi", rateHi, b.share(hiPct)/rounds, senders, seed+2)
		ph.tally("open_hi", r)
		hi.merge(ph)
	}

	r.addN("setup_s", "s", median(totals), len(totals))
	r.addN("study_s", "s", median(cold), len(cold))
	r.addN("first_read_ms", "ms", median(first), len(first))
	for _, ph := range []struct {
		tag  string
		p    *loadPhase
		rate float64
		dur  time.Duration
	}{{"lo", lo, rateLo, b.share(loPct)}, {"hi", hi, rateHi, b.share(hiPct)}} {
		r.addLatency("p50_ms."+ph.tag, "p99_ms."+ph.tag, latenciesMs(ph.p.samples))
		r.note("open loop %s: %.0f req/s for %v in %d slices from %d senders", ph.tag, ph.rate, ph.dur, rounds, senders)
	}
	qps := median(rates)
	r.addN("closed_qps", "1/s", qps, len(rates))
	r.addN("ops_per_s", "1/s", qps, len(rates))
	r.note("closed loop: %d clients for %v in %d slices; closed_qps is the median over %v windows (p10 %.0f, p90 %.0f req/s)",
		senders, b.share(closedPct), rounds, qpsWindow, quantile(rates, 0.1), quantile(rates, 0.9))
	r.addN("peak_rss_mb", "MiB", median(b.peaks), len(b.peaks))
	if b.tr == nil {
		return nil
	}

	for _, name := range products {
		r.add("fivealarms."+name+"_s", "s", direct.Phase[name].Seconds())
	}
	r.addN("serve.warm_s", "s", median(warm), len(warm))
	b.servePerLayer(s, hi)
	tracedClosed := s.closedPhase(b.clk, b.tr, 6, "closed_traced", b.share(closedPct), senders, b.o.seed+2)
	tracedClosed.tally("closed_traced", r)
	tqps := median(windowRates(tracedClosed.samples, tracedClosed.elapsed, qpsWindow))
	r.note("tracing overhead: traced closed_qps %.1f - untraced %.1f = %+.1f req/s", tqps, qps, tqps-qps)
	probeLayers(b.clk, b.tr, 1000, b.cfg, direct.Study, direct.Phase["build"].Seconds(), r)
	return nil
}

// share is pct percent of the measured seconds.
func (b *bench) share(pct int) time.Duration { return b.dur * time.Duration(pct) / 100 }

// servePerLayer records the serve-layer metrics: per-route latency of
// the hi-rate open loop, the same routes through the handler with no
// transport, the transport's share of a mix-weighted median request,
// the server's shed count and the generator's lateness.
func (b *bench) servePerLayer(s *server, hi *loadPhase) {
	r := b.r
	handler := s.handlerMicros(b.clk, b.o.seed+3, 100, r)
	var inHandler, total float64
	for k := 0; k < nRoutes; k++ {
		lat := hi.routeLatencies(k)
		r.addLatency("serve."+routeNames[k]+"_p50_ms", "serve."+routeNames[k]+"_p99_ms", lat)
		p50 := median(lat)
		r.add("serve.handler_"+routeNames[k]+"_us", "us", handler[k])
		inHandler += routeWeight[k] * handler[k]
		total += routeWeight[k] * p50 * 1e3
	}
	r.add("serve.transport_share", "ratio", 1-inHandler/total)
	r.add("serve.shed", "count", s.shed())
	late := make([]float64, len(hi.samples))
	for i, x := range hi.samples {
		late[i] = float64(x.lateness()) / 1e6
	}
	p99 := quantile(late, 0.99)
	r.addN("loadgen.late_p99_ms", "ms", p99, len(late))
}
