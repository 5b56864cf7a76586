package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countGoroutines samples the goroutine count once the runtime settles.
func countGoroutines() int {
	time.Sleep(time.Millisecond)
	return runtime.NumGoroutine()
}

// assertNoGoroutineLeak fails the test if the goroutine count has not
// returned to the baseline within two seconds (executor workers and the
// context watcher must all exit with the run).
func assertNoGoroutineLeak(t *testing.T, before int) {
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

func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, serial := range []bool{false, true} {
		var ran atomic.Int32
		g := New(4)
		g.Add("a", func() error { ran.Add(1); return nil })
		g.Add("b", func() error { ran.Add(1); return nil }, "a")
		var err error
		if serial {
			err = g.RunSerialContext(ctx)
		} else {
			err = g.RunContext(ctx)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("serial=%v: err = %v, want context.Canceled in chain", serial, err)
		}
		if ran.Load() != 0 {
			t.Errorf("serial=%v: %d tasks ran under a pre-cancelled context", serial, ran.Load())
		}
		if !strings.Contains(err.Error(), "0 of 2") {
			t.Errorf("serial=%v: error lacks progress info: %v", serial, err)
		}
	}
}

func TestRunContextCancelMidFlight(t *testing.T) {
	// Cancel while the first task is in flight: the in-flight task
	// drains, no dependent is scheduled, ctx.Err() is in the chain, and
	// the run returns within one task granularity.
	before := countGoroutines()
	ctx, cancel := context.WithCancel(context.Background())
	var afterRan atomic.Bool
	g := New(4)
	g.Add("slow", func() error {
		cancel()
		<-ctx.Done() // the task itself survives cancellation; it drains
		return nil
	})
	g.Add("after", func() error { afterRan.Store(true); return nil }, "slow")
	start := time.Now()
	err := g.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if afterRan.Load() {
		t.Error("dependent scheduled after cancellation")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("run took %v after cancellation", d)
	}
	assertNoGoroutineLeak(t, before)
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	g := New(2)
	g.Add("sleepy", func() error {
		<-ctx.Done()
		return nil
	})
	g.Add("next", func() error { return nil }, "sleepy")
	err := g.RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded in chain", err)
	}
}

func TestRunContextCompletionBeatsLateCancel(t *testing.T) {
	// A context that fires only after every task completed is not an
	// error: the work is done and the result is whole.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := New(2)
	g.Add("a", func() error { return nil })
	if err := g.RunContext(ctx); err != nil {
		t.Fatalf("err = %v", err)
	}
}

func TestPanicContainment(t *testing.T) {
	for _, serial := range []bool{false, true} {
		before := countGoroutines()
		g := New(4)
		g.Add("fine", func() error { return nil })
		g.Add("bomb", func() error { panic("boom") })
		g.Add("downstream", func() error { t.Error("dependent of panicking task ran"); return nil }, "bomb")
		var err error
		if serial {
			err = g.RunSerialContext(context.Background())
		} else {
			err = g.Run()
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("serial=%v: err = %v, want *PanicError", serial, err)
		}
		if pe.Task != "bomb" {
			t.Errorf("serial=%v: PanicError.Task = %q", serial, pe.Task)
		}
		if pe.Value != "boom" {
			t.Errorf("serial=%v: PanicError.Value = %v", serial, pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "panic") {
			t.Errorf("serial=%v: PanicError.Stack missing", serial)
		}
		assertNoGoroutineLeak(t, before)
	}
}

func TestJoinErrorsAggregatesInDeclarationOrder(t *testing.T) {
	errA := errors.New("layer A broken")
	errC := errors.New("layer C broken")
	for _, serial := range []bool{false, true} {
		var dRan, okRan atomic.Bool
		g := New(4)
		g.JoinErrors()
		g.Add("a", func() error { return errA })
		g.Add("b", func() error { return nil })
		g.Add("c", func() error { time.Sleep(2 * time.Millisecond); return errC })
		g.Add("d", func() error { dRan.Store(true); return nil }, "a")
		g.Add("ok", func() error { okRan.Store(true); return nil }, "b")
		var err error
		if serial {
			err = g.RunSerialContext(context.Background())
		} else {
			err = g.Run()
		}
		if !errors.Is(err, errA) || !errors.Is(err, errC) {
			t.Fatalf("serial=%v: aggregate %v missing a failure", serial, err)
		}
		if dRan.Load() {
			t.Errorf("serial=%v: dependent of failed task ran", serial)
		}
		if !okRan.Load() {
			t.Errorf("serial=%v: independent task skipped after unrelated failure", serial)
		}
		// Aggregation order is declaration order, not completion order:
		// "a" must be reported before the slower-declared "c".
		msg := err.Error()
		if ia, ic := strings.Index(msg, "layer A"), strings.Index(msg, "layer C"); ia < 0 || ic < 0 || ia > ic {
			t.Errorf("serial=%v: aggregate order wrong: %q", serial, msg)
		}
	}
}

func TestJoinErrorsCollectsPanics(t *testing.T) {
	boom := errors.New("plain failure")
	g := New(4)
	g.JoinErrors()
	g.Add("fails", func() error { return boom })
	g.Add("panics", func() error { panic(42) })
	err := g.Run()
	var pe *PanicError
	if !errors.Is(err, boom) || !errors.As(err, &pe) {
		t.Fatalf("aggregate %v lost a failure mode", err)
	}
	if pe.Task != "panics" || pe.Value != 42 {
		t.Errorf("PanicError = %+v", pe)
	}
}

func TestFirstErrorModeStillWins(t *testing.T) {
	// Without JoinErrors the legacy contract holds: one error comes back
	// and not-yet-started tasks are abandoned.
	boom := errors.New("boom")
	g := New(1)
	g.Add("fail", func() error { return boom })
	g.Add("after", func() error { t.Error("ran after failure"); return nil }, "fail")
	if err := g.Run(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestCycleDetectionUnderRunContext(t *testing.T) {
	// Add cannot declare a cycle (deps must pre-exist), so splice one in
	// behind its back: the executor must report it, not deadlock.
	g := New(2)
	g.Add("a", func() error { return nil })
	g.Add("b", func() error { return nil }, "a")
	g.byName["a"].deps = []string{"b"} // a <-> b
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := g.RunContext(ctx)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want cycle report", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("cycle detection relied on the deadline")
	}
}

func TestTaskNames(t *testing.T) {
	g := New(1)
	g.Add("x", func() error { return nil })
	g.Add("y", func() error { return nil }, "x")
	names := g.TaskNames()
	if fmt.Sprint(names) != "[x y]" {
		t.Fatalf("TaskNames = %v", names)
	}
}

// TestCellGetContextRetriesAfterOwnerCancel: a waiter whose own context
// is live never inherits the cancellation of the flight's owner. The
// owner gets its ctx error; the waiter re-runs the build and gets the
// value, which is then memoized.
func TestCellGetContextRetriesAfterOwnerCancel(t *testing.T) {
	var c Cell[int]
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var builds atomic.Int32
	build := func(ctx context.Context) (int, error) {
		if builds.Add(1) > 1 {
			return 7, nil
		}
		close(started)
		<-ctx.Done()
		return 0, fmt.Errorf("interrupted: %w", ctx.Err())
	}
	ownerErr := make(chan error, 1)
	go func() {
		_, err := c.GetContext(ctx, build)
		ownerErr <- err
	}()
	<-started
	waiter := make(chan int, 1)
	go func() {
		v, err := c.GetContext(context.Background(), build)
		if err != nil {
			t.Errorf("waiter inherited an error: %v", err)
		}
		waiter <- v
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter join the owner's flight
	cancel()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	if v := <-waiter; v != 7 {
		t.Fatalf("waiter got %d, want 7", v)
	}
	if b := builds.Load(); b != 2 {
		t.Errorf("%d builds, want the cancelled one and the waiter's retry", b)
	}
	if v, err := c.GetContext(ctx, build); err != nil || v != 7 {
		t.Fatalf("memoized read under a cancelled ctx: %d, %v", v, err)
	}
}

// TestCellGetContextWaiterCancel: a waiter whose own context fires
// detaches with its ctx error while the shared flight keeps running
// for its owner, and the failure it saw is its own, not the flight's.
func TestCellGetContextWaiterCancel(t *testing.T) {
	var c Cell[string]
	release := make(chan struct{})
	started := make(chan struct{})
	owner := make(chan string, 1)
	go func() {
		v, _ := c.GetContext(context.Background(), func(context.Context) (string, error) {
			close(started)
			<-release
			return "built", nil
		})
		owner <- v
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := c.GetContext(ctx, func(context.Context) (string, error) {
		t.Error("a waiter on a live flight ran its own builder")
		return "", nil
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want its own DeadlineExceeded", err)
	}
	close(release)
	if v := <-owner; v != "built" {
		t.Fatalf("owner got %q", v)
	}
}

// TestCellGetContextSharesOwnFailure: a flight that fails while its
// owner's ctx is live is a real failure: its waiters share it instead
// of retrying.
func TestCellGetContextSharesOwnFailure(t *testing.T) {
	var c Cell[int]
	boom := errors.New("boom")
	started := make(chan struct{})
	release := make(chan struct{})
	var builds atomic.Int32
	build := func(context.Context) (int, error) {
		if builds.Add(1) == 1 {
			close(started)
			<-release
		}
		return 0, boom
	}
	go func() {
		<-started
		time.Sleep(100 * time.Millisecond) // let the waiter join the flight
		close(release)
	}()
	owner := make(chan error, 1)
	go func() {
		_, err := c.GetContext(context.Background(), build)
		owner <- err
	}()
	<-started
	if _, err := c.GetContext(context.Background(), build); !errors.Is(err, boom) {
		t.Fatalf("waiter err = %v, want the shared failure", err)
	}
	if err := <-owner; !errors.Is(err, boom) {
		t.Fatalf("owner err = %v", err)
	}
	if b := builds.Load(); b != 1 {
		t.Errorf("%d builds, want the one shared failing flight", b)
	}
}
