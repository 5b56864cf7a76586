package fivealarms

// Fault containment for Study.Prepare: every Prepare task — the season
// simulations, the band partition, each band's overlay, the merge and
// both union masks — is chaos-tested with injected errors and panics
// under both schedules, at one band and at three. A failed task must
// skip its dependents and fail Prepare, leak no goroutine, and cache
// nothing half built: a later clean Prepare on the same Study is
// fingerprint-identical to an untouched one.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fivealarms/internal/faults"
	"fivealarms/internal/pipeline"
	"fivealarms/internal/wildfire"
)

// chaosBandCounts are the band counts every Prepare sweep runs at.
var chaosBandCounts = []int{1, 3}

// prepareBases holds one built Study per band count, shared by the
// Prepare sweeps: the built layers are immutable, and freshProducts
// hands each run its own empty memo cells over them.
var prepareBases = struct {
	sync.Mutex
	m map[int]*Study
}{m: map[int]*Study{}}

// freshProducts returns a Study over the stress-scale layers with n
// bands, on the serial schedule when serial is set, with nothing
// computed yet.
func freshProducts(t *testing.T, n int, serial bool) *Study {
	t.Helper()
	prepareBases.Lock()
	base := prepareBases.m[n]
	if base == nil {
		prev := buildFaultHook
		buildFaultHook = nil
		var err error
		base, err = NewStudyWithOptions(WithConfig(stressCfg), WithShards(n))
		buildFaultHook = prev
		if err != nil {
			prepareBases.Unlock()
			t.Fatal(err)
		}
		prepareBases.m[n] = base
	}
	prepareBases.Unlock()
	cfg := base.Cfg
	if serial {
		cfg.Workers = 1
	}
	return &Study{Cfg: cfg, World: base.World, WHP: base.WHP, Data: base.Data,
		Counties: base.Counties, Analyzer: base.Analyzer, Sim: base.Sim}
}

// seasonsFingerprint summarizes simulated seasons exactly enough to
// tell a full, correct history from a partial or different one.
func seasonsFingerprint(seasons []*wildfire.Season) string {
	var b strings.Builder
	for _, s := range seasons {
		fmt.Fprintf(&b, "%d/%d/%v/%d/%v;", s.Year, s.TotalFires, s.TotalAcres, len(s.Mapped), s.MappedAcres())
	}
	return b.String()
}

// preparedFingerprint serializes every product Prepare computes.
func preparedFingerprint(s *Study) string {
	return fmt.Sprintf("history=%s s2019=%s table1=%s validate=%s hist=%#x s2019mask=%#x",
		seasonsFingerprint(s.History()), seasonsFingerprint([]*wildfire.Season{s.Season2019()}),
		asJSON(s.Table1()), asJSON(s.Validate()),
		s.HistoryUnionMask().Fingerprint(), s.Season2019UnionMask().Fingerprint())
}

// prepareTaskNames discovers Prepare's task list at n bands with a
// recording hook, so the sweeps stay in sync with the graph.
func prepareTaskNames(t *testing.T, n int) []string {
	t.Helper()
	var mu sync.Mutex
	var names []string
	installHook(t, func(task string) error {
		mu.Lock()
		names = append(names, task)
		mu.Unlock()
		return nil
	})
	if err := freshProducts(t, n, false).Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	buildFaultHook = nil
	// 2 simulations + plan + merge + 2 masks + one overlay per band.
	if want := 6 + n; len(names) != want {
		t.Fatalf("discovered %d Prepare tasks %v, want %d", len(names), names, want)
	}
	return names
}

// chaosSweep injects a fault into every Prepare task, one at a time,
// at every chaos band count under both schedules. check inspects the
// failed Prepare's error; afterwards the same Study must Prepare
// cleanly to the reference products, with no goroutine leaked.
func chaosSweep(t *testing.T, arm func(in *faults.Injector, victim string), check func(t *testing.T, label, victim string, err error)) {
	want := preparedFingerprint(mustStudy(stressCfg))
	for _, n := range chaosBandCounts {
		names := prepareTaskNames(t, n)
		for _, serial := range []bool{false, true} {
			for _, victim := range names {
				label := fmt.Sprintf("bands=%d serial=%v victim=%s", n, serial, victim)
				s := freshProducts(t, n, serial)
				time.Sleep(time.Millisecond)
				before := runtime.NumGoroutine()
				in := faults.New(1)
				arm(in, victim)
				installHook(t, in.Hook())
				err := s.Prepare(context.Background())
				buildFaultHook = nil
				if err == nil {
					t.Fatalf("%s: Prepare succeeded despite the injected fault", label)
				}
				check(t, label, victim, err)
				studyAssertNoGoroutineLeak(t, before)
				if err := s.Prepare(context.Background()); err != nil {
					t.Fatalf("%s: clean Prepare after the fault: %v", label, err)
				}
				if got := preparedFingerprint(s); got != want {
					t.Fatalf("%s: products after a failed then clean Prepare differ:\n got %s\nwant %s", label, got, want)
				}
			}
		}
	}
}

// TestShardedChaosPanicEveryTask: a panic in any Prepare task surfaces
// as a pipeline.PanicError naming the task.
func TestShardedChaosPanicEveryTask(t *testing.T) {
	chaosSweep(t, func(in *faults.Injector, victim string) { in.PanicOn(victim, nil) },
		func(t *testing.T, label, victim string, err error) {
			var pe *pipeline.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%s: err = %v, want pipeline.PanicError", label, err)
			}
			if pe.Task != victim {
				t.Errorf("%s: PanicError.Task = %q", label, pe.Task)
			}
		})
}

// TestShardedChaosErrorEveryTask: an error in any Prepare task keeps
// the injected sentinel in the chain and names the failed task.
func TestShardedChaosErrorEveryTask(t *testing.T) {
	chaosSweep(t, func(in *faults.Injector, victim string) { in.ErrorOn(victim, nil) },
		func(t *testing.T, label, victim string, err error) {
			if !errors.Is(err, faults.ErrInjected) {
				t.Errorf("%s: injected sentinel lost: %v", label, err)
			}
			if !strings.Contains(err.Error(), `"`+victim+`"`) {
				t.Errorf("%s: error does not name the task: %v", label, err)
			}
		})
}

// TestShardedChaosUpstreamFailureSkipsShards: a failed history
// simulation skips every task downstream of it — the band overlays,
// the merge and the history union mask never run against a missing
// history.
func TestShardedChaosUpstreamFailureSkipsShards(t *testing.T) {
	downstream := map[string]bool{"shards/merge": true, "union/history": true}
	for _, serial := range []bool{false, true} {
		var mu sync.Mutex
		var ran []string
		in := faults.New(1)
		in.ErrorOn("history", nil)
		inner := in.Hook()
		installHook(t, func(task string) error {
			mu.Lock()
			ran = append(ran, task)
			mu.Unlock()
			return inner(task)
		})
		err := freshProducts(t, 3, serial).Prepare(context.Background())
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("serial=%v: err = %v", serial, err)
		}
		mu.Lock() // the graph run has joined; lock for the race detector's sake
		for _, task := range ran {
			if downstream[task] || strings.HasSuffix(task, "/overlay") {
				t.Errorf("serial=%v: task %q ran despite its failed upstream", serial, task)
			}
		}
		mu.Unlock()
	}
}

// TestShardedBuildCancellation: a context cancelled while Prepare's
// graph runs stops scheduling and surfaces ctx.Err() in both
// schedules; a later Prepare completes the products.
func TestShardedBuildCancellation(t *testing.T) {
	want := preparedFingerprint(mustStudy(stressCfg))
	for _, serial := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		installHook(t, func(task string) error {
			if task == "shards/plan" {
				cancel()
			}
			return nil
		})
		s := freshProducts(t, chaosBandCounts[1], serial)
		if err := s.Prepare(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("serial=%v: err = %v, want context.Canceled", serial, err)
		}
		buildFaultHook = nil
		cancel()
		if err := s.Prepare(context.Background()); err != nil {
			t.Fatalf("serial=%v: Prepare after cancellation: %v", serial, err)
		}
		if got := preparedFingerprint(s); got != want {
			t.Errorf("serial=%v: products after a cancelled Prepare differ", serial)
		}
	}
}

// TestShardedChaosCleanRunIdentical: Prepare with an inert chaos
// harness fills the memo cells with exactly what the lazy accessors
// compute, for every downstream analysis too.
func TestShardedChaosCleanRunIdentical(t *testing.T) {
	in := faults.New(5) // no rules: fires nothing
	installHook(t, in.Hook())
	prepared := freshProducts(t, chaosBandCounts[1], false)
	if err := prepared.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	buildFaultHook = nil
	a, b := analysisFingerprints(prepared), analysisFingerprints(mustStudy(stressCfg))
	for name, want := range b {
		if a[name] != want {
			t.Errorf("%s differs between a prepared and a lazy study", name)
		}
	}
	if len(in.Events()) != 0 {
		t.Errorf("inert injector fired: %v", in.Events())
	}
}

// TestPrepareCancelDuringHistory: cancelling Prepare's context while
// the history simulation runs and a concurrent History() call is
// waiting on it fails Prepare with context.Canceled, and History()
// still returns the full, correct seasons — a caller never inherits
// another caller's cancellation.
func TestPrepareCancelDuringHistory(t *testing.T) {
	want := seasonsFingerprint(mustStudy(stressCfg).History())
	for _, serial := range []bool{false, true} {
		s := freshProducts(t, 1, serial)
		ctx, cancel := context.WithCancel(context.Background())
		got := make(chan string, 1)
		installHook(t, func(task string) error {
			if task != "history" {
				return nil
			}
			// The history task's own flight starts as this hook returns;
			// the waiter joins it, then the cancel lands mid-simulation.
			go func() {
				time.Sleep(2 * time.Millisecond)
				go func() { got <- seasonsFingerprint(s.History()) }()
				time.Sleep(2 * time.Millisecond)
				cancel()
			}()
			return nil
		})
		err := s.Prepare(ctx)
		buildFaultHook = nil
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("serial=%v: Prepare err = %v, want context.Canceled", serial, err)
		}
		if g := <-got; g != want {
			t.Fatalf("serial=%v: History() after a cancelled Prepare:\n got %s\nwant %s", serial, g, want)
		}
		cancel()
	}
}
