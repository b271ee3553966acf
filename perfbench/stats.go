package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail value:
// a tail percentile is only reported where at least this many samples
// are worse than it.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middles for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank q-quantile of xs, lowered to the
// highest rank that still has minBeyond samples above it. It also
// returns the percentile actually reported ((rank+1)/n), so a caller
// can print it beside the sample count. With fewer than minBeyond+1
// samples no tail can be reported and ok is false.
func tail(xs []float64, q float64) (value, effective float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return math.NaN(), 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	// Samples strictly beyond rank r (0-based) number n-1-r.
	if limit := n - 1 - minBeyond; rank > limit {
		rank = limit
	}
	return s[rank], float64(rank+1) / float64(n), true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// openLoop sends ops on a fixed schedule, independent of how long each
// takes: op k is due at start + k*interval. Each op's latency runs from
// its due time to its completion, so a stall also charges the ops that
// queued behind it (no coordinated omission). Lateness is how far
// behind schedule the sender started an op.
type openLoop struct {
	start    time.Time
	interval time.Duration
	// now and sleepUntil default to the wall clock; tests replace them.
	now        func() time.Time
	sleepUntil func(time.Time)
}

// run sends ops first..n-1 with the given stride (so several senders
// can interleave one schedule) and returns per-op latency and
// lateness. It stops at the first error.
func (o openLoop) run(first, stride, n int, send func(k int) error) (latency, late []time.Duration, err error) {
	now, sleepUntil := o.now, o.sleepUntil
	if now == nil {
		now = time.Now
	}
	if sleepUntil == nil {
		sleepUntil = func(t time.Time) { time.Sleep(time.Until(t)) }
	}
	for k := first; k < n; k += stride {
		due := o.start.Add(time.Duration(k) * o.interval)
		if now().Before(due) {
			sleepUntil(due)
		}
		sent := now()
		if err := send(k); err != nil {
			return latency, late, fmt.Errorf("op %d: %w", k, err)
		}
		latency = append(latency, now().Sub(due))
		behind := sent.Sub(due)
		if behind < 0 {
			behind = 0
		}
		late = append(late, behind)
	}
	return latency, late, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
