package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"fivealarms"
	"fivealarms/internal/raster"
	"fivealarms/internal/risk"
	"fivealarms/internal/serve/api"
	"fivealarms/internal/whp"
	"fivealarms/internal/wildfire"
)

// products are the phases of one cold study, in call order: the build,
// then every paper product. Each becomes a fivealarms.<name>_s span.
var products = []string{
	"build", "history", "season2019", "table1", "tables23", "overlay",
	"validate", "union_masks", "case_study", "extend", "extend_fine",
}

// fineCellM is the fine extension's raster cell, the paper's own 800 m
// California window.
const fineCellM = 800

// studyRun is one cold study through every product.
type studyRun struct {
	Study  *fivealarms.Study
	Total  time.Duration
	Phase  map[string]time.Duration
	Prints fingerprints
	Errs   []string
}

// coldStudy builds a Study from cfg and runs it through every product,
// timing each phase, checking the invariants and fingerprinting the
// products' v1 JSON. With a tracer, each phase is a span under a root
// "study" span on track run.
func coldStudy(clk clock, tr *tracer, run int, cfg fivealarms.Config) *studyRun {
	res := &studyRun{Phase: map[string]time.Duration{}, Prints: fingerprints{}}
	root := tr.begin("study", 0, run)
	t0 := clk.Now()
	phase := func(name string, f func()) {
		id := tr.begin("fivealarms."+name, root, run)
		res.Phase[name] = stopwatch(clk, f)
		tr.end(id)
	}
	var st *fivealarms.Study
	var err error
	phase("build", func() { st, err = fivealarms.NewStudyWithOptions(fivealarms.WithConfig(cfg)) })
	if err != nil {
		tr.end(root)
		res.Errs = append(res.Errs, fmt.Sprintf("build: %v", err))
		return res
	}
	res.Study = st
	var (
		history  []*wildfire.Season
		s2019    *wildfire.Season
		t1       []risk.YearOverlay
		t2       []risk.ProviderRow
		t3       []risk.RadioRow
		overlay  *risk.WHPResult
		val      *risk.ValidationResult
		case19   *risk.CaseStudyResult
		ext, fin *fivealarms.ExtendReport
	)
	phase("history", func() { history = st.History() })
	phase("season2019", func() { s2019 = st.Season2019() })
	phase("table1", func() { t1 = st.Table1() })
	phase("tables23", func() { t2, t3 = st.Table2(), st.Table3() })
	phase("overlay", func() { overlay = st.WHPOverlay() })
	phase("validate", func() { val = st.Validate() })
	var histMask, mask2019 *raster.BitGrid
	phase("union_masks", func() { histMask, mask2019 = st.HistoryUnionMask(), st.Season2019UnionMask() })
	phase("case_study", func() { case19 = st.CaseStudy() })
	phase("extend", func() { ext = st.ExtendWith(fivealarms.ExtendOptions{}) })
	phase("extend_fine", func() { fin = st.ExtendWith(fivealarms.ExtendOptions{CellSizeM: fineCellM}) })
	res.Total = clk.Now() - t0
	tr.end(root)

	res.Errs = append(res.Errs, invariants(t1, t2, t3, overlay, histMask.Count())...)
	p := res.Prints
	p.hashSeasons("history", history)
	p.hashSeasons("season2019", []*wildfire.Season{s2019})
	for name, dto := range map[string]any{
		"table1":      api.Table1From(t1),
		"table2":      api.Table2From(t2),
		"table3":      api.Table3From(t3),
		"overlay":     api.WHPOverlayFrom(overlay),
		"validate":    api.ValidationFrom(val),
		"extend":      api.ExtendFrom(ext),
		"extend_fine": api.ExtendFrom(fin),
	} {
		b, err := encodeV1(dto)
		if err != nil {
			res.Errs = append(res.Errs, err.Error())
			continue
		}
		p.hash(name, b)
	}
	p["union_history"] = fmt.Sprintf("%016x", histMask.Fingerprint())
	p["union_2019"] = fmt.Sprintf("%016x", mask2019.Fingerprint())
	p.hash("case_study", []byte(fmt.Sprintf("%d|%d|%d|%d|%x|%d|%d|%d", case19.Sites, case19.Substations,
		case19.PeakDay, case19.PeakOut, math.Float64bits(case19.PeakPowerShare), case19.FinalOut,
		case19.FinalDamaged, case19.Counties)))
	return res
}

// invariants checks the products against each other: 19 Table 1 rows,
// a non-empty history union mask, and Table 2/3 class totals equal to
// the WHP overlay's.
func invariants(t1 []risk.YearOverlay, t2 []risk.ProviderRow, t3 []risk.RadioRow, o *risk.WHPResult, histCells int) []string {
	var errs []string
	if len(t1) != 19 {
		errs = append(errs, fmt.Sprintf("table1 has %d rows, want 19 (2000-2018)", len(t1)))
	}
	if histCells == 0 {
		errs = append(errs, "history union mask is empty")
	}
	var m2, h2, v2, m3, h3, v3 int
	for _, r := range t2 {
		m2, h2, v2 = m2+r.Moderate, h2+r.High, v2+r.VHigh
	}
	for _, r := range t3 {
		m3, h3, v3 = m3+r.Moderate, h3+r.High, v3+r.VHigh
		if r.Total != r.Moderate+r.High+r.VHigh {
			errs = append(errs, fmt.Sprintf("table3 %v total %d != class sum", r.Radio, r.Total))
		}
	}
	want := [3]int{o.ByClass[whp.Moderate], o.ByClass[whp.High], o.ByClass[whp.VeryHigh]}
	if [3]int{m2, h2, v2} != want {
		errs = append(errs, fmt.Sprintf("table2 class totals %v != overlay %v", [3]int{m2, h2, v2}, want))
	}
	if [3]int{m3, h3, v3} != want {
		errs = append(errs, fmt.Sprintf("table3 class totals %v != overlay %v", [3]int{m3, h3, v3}, want))
	}
	return errs
}

// encodeV1 encodes a v1 DTO exactly as the server writes it: two-space
// indent and a trailing newline.
func encodeV1(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, fmt.Errorf("encoding %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// fingerprints maps a product name to the hex FNV-64a of its encoding.
type fingerprints map[string]string

func (p fingerprints) hash(name string, b []byte) {
	h := fnv.New64a()
	h.Write(b)
	p[name] = fmt.Sprintf("%016x", h.Sum64())
}

// hashSeasons fingerprints simulated seasons: per season its totals,
// and per mapped fire its identity, size and perimeter vertex count.
func (p fingerprints) hashSeasons(name string, seasons []*wildfire.Season) {
	h := fnv.New64a()
	for _, s := range seasons {
		fmt.Fprintf(h, "%d|%d|%x|%d;", s.Year, s.TotalFires, math.Float64bits(s.TotalAcres), len(s.Mapped))
		for i := range s.Mapped {
			f := &s.Mapped[i]
			fmt.Fprintf(h, "%d|%x|%d,", f.ID, math.Float64bits(f.Acres), vertices(f))
		}
	}
	p[name] = fmt.Sprintf("%016x", h.Sum64())
}

// vertices counts a fire perimeter's vertices over every ring.
func vertices(f *wildfire.Fire) int {
	n := 0
	for _, poly := range f.Perimeter {
		n += len(poly.Exterior)
		for _, hole := range poly.Holes {
			n += len(hole)
		}
	}
	return n
}

// diff lists the products whose fingerprints differ from want. Products
// missing on either side count as differing.
func (p fingerprints) diff(want fingerprints) []string {
	var out []string
	for _, name := range sortedKeys(want) {
		if p[name] != want[name] {
			out = append(out, fmt.Sprintf("%s fingerprint %s, want %s", name, p[name], want[name]))
		}
	}
	for _, name := range sortedKeys(p) {
		if _, ok := want[name]; !ok {
			out = append(out, fmt.Sprintf("%s fingerprint %s not expected", name, p[name]))
		}
	}
	return out
}

// settle collects garbage between measured operations, so one cold
// study does not pay for the previous one's heap.
func settle() { runtime.GC() }
