package fivealarms

import (
	"context"
	"fmt"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/risk"
	"fivealarms/internal/shard"
)

// The fleet overlay: Table 1 and the §3.4 validation are sums of
// independent per-transceiver contributions, computed over
// max(Config.Shards, 1) CONUS row bands — one risk.ShardOverlay per
// band, merged in band order by risk.MergeShardOverlays (DESIGN.md §10
// has the exactness argument). Prepare runs the steps as graph tasks;
// the lazy accessors run them in sequence. Either way the merged
// product lands in the same memo cell.

// fleetOverlay is the merged fleet product behind Table1 and Validate.
type fleetOverlay struct {
	table1     []risk.YearOverlay
	validation *risk.ValidationResult
}

// fleetBuild is one computation of the fleet overlay. Each band's
// overlay is written by exactly one step and read only by merge, so
// the graph's dependency edges make a parallel run race-free.
type fleetBuild struct {
	s        *Study
	store    *cellnet.Store // nil for one band
	parts    [][]int
	overlays []*risk.ShardOverlay
}

func (s *Study) newFleetBuild() *fleetBuild {
	return &fleetBuild{s: s, overlays: make([]*risk.ShardOverlay, max(s.Cfg.Shards, 1))}
}

// partition splits the fleet into the study's row bands: a columnar
// copy of the fleet and each band's row indices, in input order.
func (s *Study) partition() (*cellnet.Store, [][]int, error) {
	store := cellnet.StoreOf(s.Data.T)
	parts, err := shard.Partition(shard.MakePlan(s.World.Grid.NY, s.Cfg.Shards), s.World.Grid, store.Y)
	return store, parts, err
}

// plan partitions the fleet when there is more than one band. A single
// band is the whole fleet in input order and needs no partition.
func (fb *fleetBuild) plan() (err error) {
	if len(fb.overlays) > 1 {
		fb.store, fb.parts, err = fb.s.partition()
	}
	return err
}

// overlay computes band i's partial products. A single band runs on the
// study's own analyzer; otherwise the band's rows are rematerialized
// from the store under a private analyzer that dies with the call.
func (fb *fleetBuild) overlay(i int) {
	s := fb.s
	a := s.Analyzer
	if fb.store != nil {
		idx := fb.parts[i]
		rows := fb.store.AppendRows(make([]cellnet.Transceiver, 0, len(idx)), idx)
		a = risk.New(s.World, s.WHP, cellnet.NewDataset(s.World, rows), s.Counties)
	}
	fb.overlays[i] = a.ShardOverlay(s.History(), s.Season2019(), s.Cfg.Workers)
}

// merge folds the band overlays, in band order, into the fleet product.
// Tables 2 and 3 are dropped: their accessors read the analyzer
// directly, which needs no fire season.
func (fb *fleetBuild) merge() (*fleetOverlay, error) {
	t1, _, _, v, err := risk.MergeShardOverlays(fb.overlays)
	if err != nil {
		return nil, err
	}
	return &fleetOverlay{table1: t1, validation: v}, nil
}

// run computes the fleet product step by step.
func (fb *fleetBuild) run() (*fleetOverlay, error) {
	if err := fb.plan(); err != nil {
		return nil, err
	}
	for i := range fb.overlays {
		fb.overlay(i)
	}
	return fb.merge()
}

// fleet returns the memoized fleet product, computing it on first use.
// It panics if the partition or the band merge fails: both derive
// every band from the study's own grid and seasons, so a failure is a
// programming error, never a data condition.
func (s *Study) fleet() *fleetOverlay {
	fo, err := s.mem.fleet.GetErr(func() (*fleetOverlay, error) { return s.newFleetBuild().run() })
	if err != nil {
		panic(fmt.Sprintf("fivealarms: fleet overlay: %v", err))
	}
	return fo
}

// Prepare computes the fleet products ahead of use: the 2000-2018
// seasons, the 2019 hold-out season, the fleet overlay behind Table1
// and Validate, and both perimeter union masks. They run as one
// pipeline graph at Config.Workers — tasks history, season2019,
// shards/plan, shard<i>/overlay per band, shards/merge, union/history
// and union/2019 — and each task fills the memo cell its accessor
// reads, so the accessors afterwards are cache hits.
//
// ctx governs the run: cancelling it stops the history simulation
// between seasons and stops the graph from scheduling further tasks,
// and the returned error wraps ctx.Err(). A failed or cancelled Prepare
// caches nothing half built; products it completed stay cached, and a
// later Prepare or accessor call computes the rest. Concurrent callers
// of the accessors never inherit Prepare's cancellation. Prepare is
// optional: without it every accessor computes what it needs on first
// use.
func (s *Study) Prepare(ctx context.Context) error {
	g := s.graph()
	g.Add("history", func() error {
		_, err := s.mem.history.GetContext(ctx, s.simulateHistory)
		return err
	})
	g.Add("season2019", func() error {
		s.Season2019()
		return nil
	})
	fb := s.newFleetBuild()
	g.Add("shards/plan", fb.plan)
	bands := make([]string, len(fb.overlays))
	for i := range bands {
		bands[i] = fmt.Sprintf("shard%d/overlay", i)
		g.Add(bands[i], func() error {
			fb.overlay(i)
			return nil
		}, "shards/plan", "history", "season2019")
	}
	g.Add("shards/merge", func() error {
		_, err := s.mem.fleet.GetErr(fb.merge)
		return err
	}, bands...)
	g.Add("union/history", func() error {
		s.HistoryUnionMask()
		return nil
	}, "history")
	g.Add("union/2019", func() error {
		s.Season2019UnionMask()
		return nil
	}, "season2019")
	if err := g.RunContext(ctx); err != nil {
		return fmt.Errorf("fivealarms: preparing study: %w", err)
	}
	return nil
}

// ShardStats reports the fleet's per-band transceiver counts in band
// order (see Config.Shards): [N] for a single band. The slice is the
// caller's own.
func (s *Study) ShardStats() []int {
	if s.Cfg.Shards <= 1 {
		return []int{s.Data.Len()}
	}
	_, parts, err := s.partition()
	if err != nil {
		return nil
	}
	rows := make([]int, len(parts))
	for i, p := range parts {
		rows[i] = len(p)
	}
	return rows
}
