package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sendFunc issues request i; a non-nil error means the request or its
// output check failed.
type sendFunc func(sender, i int) error

// sample is one request of a load phase. Sched is when it was due to be
// sent (open loop) or when it was sent (closed loop); Sent and Done are
// the send and reply times.
type sample struct {
	I                 int
	Sched, Sent, Done time.Duration
	Err               error
}

// latency is measured from the scheduled send time, so a stall also
// counts against the requests queued behind it.
func (s sample) latency() time.Duration { return s.Done - s.Sched }

// lateness is how far behind its schedule the generator sent.
func (s sample) lateness() time.Duration { return s.Sent - s.Sched }

// openLoop sends requests on a fixed schedule, request i due at start +
// i/rate, for dur. The senders goroutines take the next due request
// whenever they are free, so a slow reply makes later requests late
// rather than thinning the schedule; every sender is joined before
// openLoop returns.
func openLoop(clk clock, rate float64, dur time.Duration, senders int, send sendFunc) []sample {
	period := time.Duration(float64(time.Second) / rate)
	total := int(dur / period)
	start := clk.Now()
	out := make([]sample, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				sched := start + time.Duration(i)*period
				clk.SleepUntil(sched)
				sent := clk.Now()
				err := send(w, i)
				out[i] = sample{I: i, Sched: sched, Sent: sent, Done: clk.Now(), Err: err}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// closedLoop runs clients that each send their next request only after
// the previous reply, until dur has passed. Request numbers interleave
// across clients (client c sends c, c+clients, ...).
func closedLoop(clk clock, dur time.Duration, clients int, send sendFunc) (samples []sample, elapsed time.Duration) {
	start := clk.Now()
	deadline := start + dur
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i += clients {
				sent := clk.Now()
				if sent >= deadline {
					return
				}
				err := send(c, i)
				per[c] = append(per[c], sample{I: i, Sched: sent, Sent: sent, Done: clk.Now(), Err: err})
			}
		}(c)
	}
	wg.Wait()
	elapsed = clk.Now() - start
	for _, p := range per {
		samples = append(samples, p...)
	}
	return samples, elapsed
}

// latenciesMs returns the samples' latencies in milliseconds.
func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.latency()) / 1e6
	}
	return out
}

// windowRates splits a phase that ran for elapsed into whole windows and
// returns each window's completions per second, timed by reply. A
// median over windows keeps a burst of outside load in one window from
// moving a whole phase's throughput.
func windowRates(samples []sample, elapsed, window time.Duration) []float64 {
	n := int(elapsed / window)
	if n == 0 || len(samples) == 0 {
		return nil
	}
	start := samples[0].Sent
	for _, s := range samples {
		start = min(start, s.Sent)
	}
	counts := make([]int, n)
	for _, s := range samples {
		if w := int((s.Done - start) / window); w < n {
			counts[w]++
		}
	}
	rates := make([]float64, n)
	for i, c := range counts {
		rates[i] = float64(c) / window.Seconds()
	}
	return rates
}
