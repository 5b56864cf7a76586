package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when told to: SleepUntil jumps forward and a
// send advances by its service time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	clk := &fakeClock{}
	// 100 req/s for 100 ms: requests due at 0, 10, ..., 90 ms. Request
	// 2 stalls for 35 ms, so requests 3-5 go out late and their latency
	// includes the wait.
	service := map[int]time.Duration{2: 35 * time.Millisecond}
	samples := openLoop(clk, 100, 100*time.Millisecond, 1, func(_, i int) error {
		d, ok := service[i]
		if !ok {
			d = time.Millisecond
		}
		clk.advance(d)
		return nil
	})
	if len(samples) != 10 {
		t.Fatalf("got %d samples, want 10", len(samples))
	}
	ms := time.Millisecond
	want := []struct{ sched, sent, lat time.Duration }{
		{0, 0, 1 * ms},
		{10 * ms, 10 * ms, 1 * ms},
		{20 * ms, 20 * ms, 35 * ms},
		{30 * ms, 55 * ms, 26 * ms}, // sent 25 ms late, replied at 56 ms
		{40 * ms, 56 * ms, 17 * ms},
		{50 * ms, 57 * ms, 8 * ms},
		{60 * ms, 60 * ms, 1 * ms}, // back on schedule
	}
	for i, w := range want {
		s := samples[i]
		if s.Sched != w.sched || s.Sent != w.sent || s.latency() != w.lat {
			t.Errorf("request %d: sched=%v sent=%v latency=%v, want %v %v %v",
				i, s.Sched, s.Sent, s.latency(), w.sched, w.sent, w.lat)
		}
	}
	if got := samples[3].lateness(); got != 25*ms {
		t.Errorf("lateness of request 3 = %v, want 25ms", got)
	}
	var late []float64
	for _, s := range samples {
		late = append(late, float64(s.lateness())/1e6)
	}
	if d := summarize(late); d.P50 != 0 {
		t.Errorf("median lateness = %v ms, want 0 (most requests on time)", d.P50)
	}
}

func TestOpenLoopKeepsScheduleWithSpareSenders(t *testing.T) {
	clk := &fakeClock{}
	samples := openLoop(clk, 1000, 50*time.Millisecond, 2, func(_, _ int) error { return nil })
	if len(samples) != 50 {
		t.Fatalf("got %d samples, want 50", len(samples))
	}
	for i, s := range samples {
		if s.I != i || s.Sched != time.Duration(i)*time.Millisecond {
			t.Fatalf("sample %d: index %d sched %v", i, s.I, s.Sched)
		}
		if s.Sent < s.Sched {
			t.Fatalf("sample %d sent before its schedule", i)
		}
	}
}

func TestClosedLoopWaitsForReplies(t *testing.T) {
	clk := &fakeClock{}
	samples, elapsed := closedLoop(clk, 10*time.Millisecond, 1, func(_, _ int) error {
		clk.advance(2 * time.Millisecond)
		return nil
	})
	if len(samples) != 5 || elapsed != 10*time.Millisecond {
		t.Fatalf("got %d samples in %v, want 5 in 10ms", len(samples), elapsed)
	}
	for _, s := range samples {
		if s.latency() != 2*time.Millisecond || s.lateness() != 0 {
			t.Fatalf("closed-loop sample %+v: want 2ms latency, no lateness", s)
		}
	}
}

func TestWindowRatesCountsWholeWindows(t *testing.T) {
	ms := time.Millisecond
	var samples []sample
	// 10 replies in the first 100 ms window, 4 in the second, 1 in the
	// partial third window, which is dropped.
	for i := 0; i < 15; i++ {
		done := time.Duration(i)*10*ms + 5*ms
		if i >= 10 {
			done = 100*ms + time.Duration(i-10)*25*ms + 5*ms
		}
		samples = append(samples, sample{I: i, Sent: done - 5*ms, Done: done})
	}
	got := windowRates(samples, 250*ms, 100*ms)
	if len(got) != 2 || got[0] != 100 || got[1] != 40 {
		t.Fatalf("window rates = %v, want [100 40]", got)
	}
	if got := windowRates(samples, 50*ms, 100*ms); got != nil {
		t.Fatalf("a phase shorter than one window has no rate, got %v", got)
	}
}
