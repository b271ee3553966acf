package main

import (
	"fmt"
	"math"
	"sync"
)

// maxFailureLines caps how many failure descriptions a run keeps for
// the report; the failed count is always exact.
const maxFailureLines = 8

// recorder collects one run's samples and its operation outcomes. The
// cluster workload records from several goroutines, so every method
// locks.
type recorder struct {
	mu        sync.Mutex
	eps       float64
	attempted int64
	failed    int64
	failures  []string
	series    map[string][]float64
	totals    map[string]float64
}

func newRecorder(eps float64) *recorder {
	return &recorder{eps: eps, series: make(map[string][]float64), totals: make(map[string]float64)}
}

// add appends samples to a named series.
func (r *recorder) add(key string, vs ...float64) {
	r.mu.Lock()
	r.series[key] = append(r.series[key], vs...)
	r.mu.Unlock()
}

// count adds v to a named running total (counters and ratio bases).
func (r *recorder) count(key string, v float64) {
	r.mu.Lock()
	r.totals[key] += v
	r.mu.Unlock()
}

func (r *recorder) get(key string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.series[key]...)
}

func (r *recorder) total(key string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totals[key]
}

// op counts one attempted operation; a non-nil err fails it. It reports
// whether the operation succeeded.
func (r *recorder) op(what string, err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return true
	}
	r.failLocked(fmt.Sprintf("%s: %v", what, err))
	return false
}

// estimate counts a query: it fails when the call errored or the
// answer is NaN or infinite.
func (r *recorder) estimate(what string, got float64, err error) bool {
	if err == nil && (math.IsNaN(got) || math.IsInf(got, 0)) {
		err = fmt.Errorf("estimate is %v", got)
	}
	return r.op(what, err)
}

// final counts a checked answer against the exact g-SUM: besides the
// estimate checks it fails when the relative error exceeds the Spec's
// ε. The relative error is recorded as series "rel_err".
func (r *recorder) final(what string, got, exact float64, err error) bool {
	if !r.estimate(what, got, err) {
		return false
	}
	rel := math.Abs(got-exact) / math.Abs(exact)
	r.add("rel_err", rel)
	if rel > r.eps {
		r.mu.Lock()
		r.failLocked(fmt.Sprintf("%s: estimate %.10g vs exact %.10g: relative error %.3g > eps %g", what, got, exact, rel, r.eps))
		r.mu.Unlock()
		return false
	}
	return true
}

// absorbOutcomes adds another recorder's operation counts to r,
// labelling its failure lines with where they came from.
func (r *recorder) absorbOutcomes(o *recorder, from string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < maxFailureLines {
			r.failures = append(r.failures, from+": "+f)
		}
	}
}

func (r *recorder) failLocked(msg string) {
	r.failed++
	if len(r.failures) < maxFailureLines {
		r.failures = append(r.failures, msg)
	}
}

// endToEnd turns an untraced run's samples into the end-to-end
// metrics: medians over the run's samples (per call, or once per
// round), plus one tail percentile under the minBeyond rule.
func endToEnd(r *recorder) (map[string]metric, error) {
	out := make(map[string]metric)
	med := func(name, key, unit string) error {
		xs := r.get(key)
		if len(xs) == 0 {
			return fmt.Errorf("no %s samples", key)
		}
		out[name] = metric{median(xs), unit, len(xs), "median"}
		return nil
	}
	tailOf := func(name, key, unit string, q float64) error {
		xs := r.get(key)
		v, eff, ok := tail(xs, q)
		if !ok {
			return fmt.Errorf("%d %s samples: too few for a tail percentile (need more than %d; raise --seconds)", len(xs), key, minBeyond)
		}
		out[name] = metric{v, unit, len(xs), fmt.Sprintf("p%.4g", eff*100)}
		return nil
	}
	for _, err := range []error{
		med("setup_s", "setup_s", "s"),
		med("ingest_mups", "ingest_mups", "Mupd/s"),
		med("query_ms_p50", "query_ms", "ms"),
		tailOf("query_ms_p90", "query_ms", "ms", 0.90),
		med("ack_ms_p50", "ack_ms", "ms"),
		med("space_bytes", "space_bytes", "B"),
		med("heap_live_bytes", "heap_live_bytes", "B"),
		med("alloc_bytes_per_update", "alloc_bytes_per_update", "B/update"),
	} {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
