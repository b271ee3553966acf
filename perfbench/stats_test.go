package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		q       float64
		value   float64
		percent float64
	}{
		// 1000 samples: p99 is rank 990, with exactly 10 beyond it.
		{1000, 0.99, 990, 0.99},
		// 100 samples: p99 would leave 1 beyond, so the rule lowers it
		// to rank 90 (10 beyond).
		{100, 0.99, 90, 0.90},
		{100, 0.90, 90, 0.90},
		// 11 samples: the only rank with 10 beyond is the minimum.
		{11, 0.90, 1, 1.0 / 11},
	} {
		v, eff, ok := tail(seq(tc.n), tc.q)
		if !ok || v != tc.value || math.Abs(eff-tc.percent) > 1e-12 {
			t.Errorf("tail(n=%d, q=%v) = %v at p%v (ok %v), want %v at p%v", tc.n, tc.q, v, eff*100, ok, tc.value, tc.percent*100)
			continue
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the reported tail, want >= %d", tc.n, beyond, minBeyond)
		}
	}
	if _, _, ok := tail(seq(10), 0.5); ok {
		t.Error("tail of 10 samples reported a value; no rank has 10 beyond it")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// fakeClock advances only when told to, so the open loop's accounting
// can be checked exactly.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) sleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	loop := openLoop{start: clk.t, interval: 10 * time.Millisecond, now: clk.now, sleepUntil: clk.sleepUntil}
	// Op 1 stalls for 35ms; every other op takes 2ms.
	cost := map[int]time.Duration{1: 35 * time.Millisecond}
	lat, late, err := loop.run(0, 1, 5, func(k int) error {
		d, ok := cost[k]
		if !ok {
			d = 2 * time.Millisecond
		}
		clk.t = clk.t.Add(d)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Due times 0,10,20,30,40. Op 1 runs 10..45; op 2 (due 20) starts at
	// 45 and ends at 47; op 3 (due 30) 47..49; op 4 (due 40) 49..51.
	wantLat := []time.Duration{2, 35, 27, 19, 11}
	wantLate := []time.Duration{0, 0, 25, 17, 9}
	for i := range wantLat {
		if lat[i] != wantLat[i]*time.Millisecond || late[i] != wantLate[i]*time.Millisecond {
			t.Errorf("op %d: latency %v late %v, want %vms and %vms", i, lat[i], late[i], wantLat[i], wantLate[i])
		}
	}
}

func TestOpenLoopStrideAndError(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	loop := openLoop{start: clk.t, interval: time.Millisecond, now: clk.now, sleepUntil: clk.sleepUntil}
	var sent []int
	boom := errors.New("boom")
	lat, _, err := loop.run(1, 2, 9, func(k int) error {
		sent = append(sent, k)
		if k == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(sent) != 3 || sent[0] != 1 || sent[1] != 3 || sent[2] != 5 || len(lat) != 2 {
		t.Errorf("sent %v with %d latencies, want [1 3 5] and 2", sent, len(lat))
	}
}
