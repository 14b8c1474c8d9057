package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// timing is one open-loop request: lat is its latency, lag how late the
// generator sent it.
type timing struct {
	lat, lag time.Duration
}

// openLoop sends request i at start + i/rate for dur, from a fixed set of
// worker goroutines (independent users: the schedule does not wait for
// replies). do(w, i) performs request i on worker w and returns when its
// reply was complete; what it does with the reply afterwards is not timed.
// A request picked up after its due time — every worker was busy, so the
// system is behind — is timed from when it was due, which charges a stall
// to every request it delayed. A worker that was idle sleeps until the due
// time and the request is timed from when it was sent: oversleeping is the
// generator's lateness, reported as lag, not the system's.
func openLoop(ctx context.Context, rate float64, dur time.Duration, workers int, do func(w, i int) time.Time) []timing {
	n := requests(rate, dur)
	out := make([]timing, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				from := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					from = time.Now()
				}
				sent := time.Now()
				done := do(w, i)
				out[i] = timing{lat: done.Sub(from), lag: sent.Sub(due)}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// closedLoop runs requests back to back on each of workers goroutines for
// dur: a worker sends its next request as soon as its previous reply was
// complete (users who wait for each answer). do(w, i) performs request i
// on worker w and returns when its reply was complete; what it does with
// the reply afterwards is not timed. It returns every request's latency,
// indexed by request number. The processors do not idle between requests,
// so the latency is the system's work and queueing, not how fast an idle
// virtual CPU wakes up — which an open loop far below capacity measures as
// much as the system.
func closedLoop(ctx context.Context, dur time.Duration, workers int, do func(w, i int) time.Time) []time.Duration {
	type sample struct {
		i   int
		lat time.Duration
	}
	end := time.Now().Add(dur)
	var next atomic.Int64
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				done := do(w, i)
				per[w] = append(per[w], sample{i, done.Sub(t0)})
			}
		}(w)
	}
	wg.Wait()
	out := make([]time.Duration, next.Load())
	for _, ss := range per {
		for _, s := range ss {
			out[s.i] = s.lat
		}
	}
	return out
}

// requests is how many requests openLoop sends at rate for dur.
func requests(rate float64, dur time.Duration) int { return int(rate * dur.Seconds()) }

// lagP99US is the generator's p99 lateness over ts (µs).
func lagP99US(ts []timing) float64 {
	lags := make([]float64, len(ts))
	for i, t := range ts {
		lags[i] = us(t.lag)
	}
	return percentile(lags, 99)
}
