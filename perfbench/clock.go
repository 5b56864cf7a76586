package main

import "time"

// clock is the benchmark's only source of time. Offsets are measured
// from the clock's origin on Go's monotonic clock; tests substitute a
// fake.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

// wallClock reads the monotonic wall clock.
type wallClock struct{ origin time.Time }

func newWallClock() *wallClock {
	return &wallClock{origin: time.Now()} //fivealarms:allow(seededrand) the benchmark measures real elapsed time; no measured value feeds a study input
}

func (c *wallClock) Now() time.Duration { return time.Since(c.origin) }

func (c *wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// stopwatch times f on clk.
func stopwatch(clk clock, f func()) time.Duration {
	t0 := clk.Now()
	f()
	return clk.Now() - t0
}
