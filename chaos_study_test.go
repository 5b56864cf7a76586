package fivealarms

// Fault-containment tests for the public Study surface: every pipeline
// task is chaos-tested with injected panics, errors and cancellation
// (via the internal/faults harness hooked into the build graph), and in
// every case NewStudyWithOptions must return a descriptive error with a
// nil Study — no crash, no goroutine leak, no partially built state.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fivealarms/internal/faults"
	"fivealarms/internal/pipeline"
)

// chaosOptions assembles the stress-scale configuration for one chaos
// build; serial selects the one-worker schedule.
func chaosOptions(serial bool, extra ...Option) []Option {
	opts := []Option{WithConfig(stressCfg)}
	if serial {
		opts = append(opts, WithWorkers(1))
	}
	return append(opts, extra...)
}

// installHook swaps the build-graph injection hook for the test's
// lifetime. The hook is package state, so chaos tests must not run in
// parallel with each other (none call t.Parallel).
func installHook(t *testing.T, hook func(string) error) {
	t.Helper()
	prev := buildFaultHook
	buildFaultHook = hook
	t.Cleanup(func() { buildFaultHook = prev })
}

// buildTaskNames discovers the pipeline's task names by running one
// clean build with a recording hook, so the chaos sweep stays in sync
// with the graph definition without a hand-maintained list.
func buildTaskNames(t *testing.T) []string {
	t.Helper()
	var mu sync.Mutex
	var names []string
	installHook(t, func(task string) error {
		mu.Lock()
		names = append(names, task)
		mu.Unlock()
		return nil
	})
	if _, err := NewStudyWithOptions(chaosOptions(false)...); err != nil {
		t.Fatal(err)
	}
	buildFaultHook = nil
	if len(names) == 0 {
		t.Fatal("recording hook saw no tasks")
	}
	return names
}

func studyAssertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStudyChaosPanicEveryTask is the acceptance-criterion sweep: inject
// a panic into every build task, one at a time, in both schedules. Each
// run must surface a pipeline.PanicError naming the task, return a nil
// Study, and leak no goroutines.
func TestStudyChaosPanicEveryTask(t *testing.T) {
	names := buildTaskNames(t)
	for _, serial := range []bool{false, true} {
		for _, victim := range names {
			time.Sleep(time.Millisecond)
			before := runtime.NumGoroutine()
			in := faults.New(1)
			in.PanicOn(victim, nil)
			installHook(t, in.Hook())
			s, err := NewStudyWithOptions(chaosOptions(serial)...)
			if s != nil {
				t.Fatalf("serial=%v victim=%s: partially built Study escaped", serial, victim)
			}
			var pe *pipeline.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("serial=%v victim=%s: err = %v, want pipeline.PanicError", serial, victim, err)
			}
			if pe.Task != victim {
				t.Errorf("serial=%v victim=%s: PanicError.Task = %q", serial, victim, pe.Task)
			}
			studyAssertNoGoroutineLeak(t, before)
		}
	}
}

// TestStudyChaosErrorInjection: injected task errors surface through
// NewStudyWithOptions wrapped with the task name, in both schedules.
func TestStudyChaosErrorInjection(t *testing.T) {
	for _, serial := range []bool{false, true} {
		in := faults.New(1)
		in.ErrorOn("cellnet", nil)
		installHook(t, in.Hook())
		s, err := NewStudyWithOptions(chaosOptions(serial)...)
		if s != nil || err == nil {
			t.Fatalf("serial=%v: s=%v err=%v", serial, s != nil, err)
		}
		if !errors.Is(err, faults.ErrInjected) {
			t.Errorf("serial=%v: injected sentinel lost: %v", serial, err)
		}
		if !strings.Contains(err.Error(), `"cellnet"`) {
			t.Errorf("serial=%v: error does not name the task: %v", serial, err)
		}
	}
}

// TestStudyBuildCancellation: WithContext makes the build cancellable.
// A pre-cancelled context builds nothing; a context cancelled mid-build
// (from inside the first task, via the hook) stops scheduling and
// surfaces ctx.Err() in the chain. Either way the Study is nil.
func TestStudyBuildCancellation(t *testing.T) {
	for _, serial := range []bool{false, true} {
		pre, cancel := context.WithCancel(context.Background())
		cancel()
		s, err := NewStudyWithOptions(chaosOptions(serial, WithContext(pre))...)
		if s != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("serial=%v pre-cancel: s=%v err=%v", serial, s != nil, err)
		}

		ctx, cancelMid := context.WithCancel(context.Background())
		installHook(t, func(task string) error {
			if task == "world" {
				cancelMid()
			}
			return nil
		})
		start := time.Now()
		s, err = NewStudyWithOptions(chaosOptions(serial, WithContext(ctx))...)
		if s != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("serial=%v mid-cancel: s=%v err=%v", serial, s != nil, err)
		}
		if d := time.Since(start); d > 30*time.Second {
			t.Errorf("serial=%v: cancelled build took %v", serial, d)
		}
		buildFaultHook = nil
	}
}

// TestStudyChaosCleanRunIdentical: with the harness attached but firing
// nothing, the build must be bit-identical to an uninstrumented one —
// injection off may not perturb results.
func TestStudyChaosCleanRunIdentical(t *testing.T) {
	in := faults.New(5) // no rules, no rates: fires nothing
	installHook(t, in.Hook())
	instrumented, err := NewStudyWithOptions(chaosOptions(false)...)
	if err != nil {
		t.Fatal(err)
	}
	buildFaultHook = nil
	clean := mustStudy(stressCfg)
	a, b := analysisFingerprints(instrumented), analysisFingerprints(clean)
	for name, want := range b {
		if a[name] != want {
			t.Errorf("%s differs with inert chaos harness attached", name)
		}
	}
	if len(in.Events()) != 0 {
		t.Errorf("inert injector fired: %v", in.Events())
	}
}
