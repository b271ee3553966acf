package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/hotpath"
	"repro/internal/recursive"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/wire"
)

// traceModules are the layers the main loop's spans may belong to;
// trace.<module>.self_share is reported for each.
var traceModules = []string{"bench", "backend", "core", "hotpath", "daemon"}

// repeats is how many times a probe times a single call (set-up,
// estimate, merge, marshal); the metric is the median.
const repeats = 5

// tracedRun is the -trace 1 run. It runs the workload's loop for half
// of dur untraced and half traced (their ingest rates give the tracing
// overhead), reports each module's self-time share from the traced
// half's spans, then replays the workload's own batches through each
// lower layer's public functions.
func tracedRun(b *bench, dur time.Duration) (map[string]metric, error) {
	w := b.w
	plain := *b
	plain.rec = newRecorder(b.rec.eps)
	if err := w.loop(&plain, dur/2, nil); err != nil {
		return nil, err
	}
	b.rec.absorbOutcomes(plain.rec, "untraced half")
	tr := newTracer()
	if err := w.loop(b, dur/2, tr); err != nil {
		return nil, err
	}
	out := make(map[string]metric)
	// The ack tail is too unsteady across runs on a shared host to gate
	// on, so it is reported here, from the untraced half.
	acks := plain.rec.get("ack_ms")
	v, eff, ok := tail(acks, 0.99)
	if !ok {
		return nil, fmt.Errorf("%d ack_ms samples: too few for a tail percentile (need more than %d; raise --seconds)", len(acks), minBeyond)
	}
	out["bench.ack_ms_p99"] = metric{v, "ms", len(acks), fmt.Sprintf("p%.4g of the untraced half", eff*100)}
	tracedRate, plainRate := b.rec.get("ingest_mups"), plain.rec.get("ingest_mups")
	out["bench.trace_overhead"] = metric{median(tracedRate) / median(plainRate), "ratio", len(tracedRate) + len(plainRate),
		fmt.Sprintf("traced %.4g / untraced %.4g Mupd/s (medians over rounds)", median(tracedRate), median(plainRate))}
	spans := tr.snapshot()
	shares, err := selfShares(spans, traceModules)
	if err != nil {
		return nil, err
	}
	for m, v := range shares {
		out["trace."+m+".self_share"] = metric{v, "ratio", len(spans), "of summed span self time"}
	}

	// The probes replay the last round's stream.
	in := b.last
	p := &prober{in: in, tr: newTracer(), out: out}
	if err := p.run(); err != nil {
		return nil, err
	}

	// Cluster-side layers: the cluster workload's own rounds, or one
	// cluster round over this workload's stream.
	cl := b.rec
	if w.name != "cluster-stream" {
		cin := *in
		cin.spec.Kind, cin.spec.Workers = backend.KindOnePass, 0
		cl = newRecorder(b.rec.eps)
		err := clusterRound(b, &cin, cl, 1, p.tr)
		b.rec.absorbOutcomes(cl, "cluster probe")
		if err := stopOn(err); err != nil {
			return nil, err
		}
	}
	if err := clusterLayers(cl, out); err != nil {
		return nil, err
	}

	// Output quality, reported here because it varies with the seed far
	// beyond any end-to-end bound.
	rel := b.rec.get("rel_err")
	out["bench.rel_err"] = metric{median(rel), "ratio", len(rel), "|est-exact|/exact, median over rounds"}
	refDiff, note, err := refRelDiff(b)
	if err != nil {
		return nil, err
	}
	out["bench.ref_rel_diff"] = metric{refDiff, "ratio", 1, note} // one round's final estimate
	out["bench.fail_ratio"] = metric{float64(b.rec.failed) / float64(b.rec.attempted), "ratio", int(b.rec.attempted),
		fmt.Sprintf("%d failed / %d attempted", b.rec.failed, b.rec.attempted)}
	gen := b.rec.get("gen_s")
	out["workload.gen_s"] = metric{median(gen), "s", len(gen), fmt.Sprintf("median over rounds, %d updates each", streamLen)}
	repeats, total := b.rec.total("dup_repeats"), b.rec.total("dup_total")
	out["bench.dup_share"] = metric{repeats / total, "ratio", int(total),
		fmt.Sprintf("%g repeats / %g updates in %d-update batches", repeats, total, batchSize)}

	prefix := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d", w.name, b.seed))
	if err := writeSpans(prefix+"-main.jsonl", spans); err != nil {
		return nil, err
	}
	if err := writeSpans(prefix+"-probes.jsonl", p.tr.snapshot()); err != nil {
		return nil, err
	}
	return out, nil
}

// refRelDiff compares the last round's final estimate with the onepass
// kind's serial estimate on the same stream, fed as many times.
func refRelDiff(b *bench) (float64, string, error) {
	passes := 1
	switch b.w.name {
	case "serial-uniform":
		return 0, "the onepass kind is its own serial reference", nil
	case "cluster-stream":
		passes = phaseAPasses + phaseBPasses
	}
	finals := b.rec.get("final_estimate")
	if len(finals) == 0 {
		return 0, "", fmt.Errorf("no round finished")
	}
	last := finals[len(finals)-1]
	ref, err := serialReference(b.last, passes)
	if err != nil {
		return 0, "", err
	}
	return math.Abs(last-ref) / math.Abs(ref), fmt.Sprintf("|%s - serial|/serial on the last round's stream: %.10g vs %.10g", b.w.name, last, ref), nil
}

// clusterLayers turns a recorder holding cluster rounds into the
// daemon-side per-layer metrics.
func clusterLayers(r *recorder, out map[string]metric) error {
	med := func(name, key string) error {
		xs := r.get(key)
		if len(xs) == 0 {
			return fmt.Errorf("no %s samples", key)
		}
		out[name] = metric{median(xs), "ms", len(xs), "median"}
		return nil
	}
	tailOf := func(name, key string) error {
		xs := r.get(key)
		v, eff, ok := tail(xs, 0.99)
		if !ok {
			return fmt.Errorf("%d %s samples: too few for a tail percentile (need more than %d; raise --seconds)", len(xs), key, minBeyond)
		}
		out[name] = metric{v, "ms", len(xs), fmt.Sprintf("p%.4g", eff*100)}
		return nil
	}
	ratio := func(name, unit, num, den string) error {
		n, d := r.total(num), r.total(den)
		if d == 0 {
			return fmt.Errorf("%s: zero %s", name, den)
		}
		out[name] = metric{n / d, unit, int(d), fmt.Sprintf("%s %g / %s %g", num, n, den, d)}
		return nil
	}
	for _, err := range []error{
		tailOf("daemon.push_block_ms_p99", "push_block_ms"),
		med("daemon.pull_ms", "pull_ms"),
		med("daemon.estimate_ms", "daemon_estimate_ms"),
		med("daemon.scrape_ms", "scrape_ms"),
		tailOf("bench.late_ms_p99", "late_ms"),
		ratio("daemon.rebuild_ms", "ms", "rebuild_s_sum", "rebuild_count"),
		ratio("daemon.checkpoint_ms", "ms", "checkpoint_s_sum", "checkpoint_count"),
		ratio("daemon.acked_ratio", "ratio", "pusher_acked", "pusher_enqueued"),
		ratio("daemon.flush_age_share", "ratio", "pusher_flush_age", "pusher_frames"),
	} {
		if err != nil {
			return err
		}
	}
	// The histograms are in seconds.
	for _, n := range []string{"daemon.rebuild_ms", "daemon.checkpoint_ms"} {
		m := out[n]
		m.value *= 1000
		out[n] = m
	}
	out["daemon.rejected_frames"] = metric{r.total("rejected_frames"), "count", 1, "gsumd_stream_rejected_frames_total, summed over nodes and rounds"}
	return nil
}

// prober replays one workload's generated batches through each lower
// layer's public functions, one span per call.
type prober struct {
	in  *inputs
	tr  *tracer
	out map[string]metric
	op  int64
}

func (p *prober) run() error {
	for _, probe := range []func() error{
		p.setup, p.core, p.heavyLevel0, p.sketchRows, p.subsample, p.hotpath, p.wire, p.apply,
	} {
		p.op++
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// spec returns the workload's normalized Spec as the given kind.
func (p *prober) spec(kind backend.Kind) (backend.Spec, error) {
	s := p.in.spec
	s.Kind, s.Workers = kind, 0
	if kind == backend.KindSharded {
		s.Workers = runtime.NumCPU()
	}
	return s.Normalize()
}

// timeCalls runs fn repeats times, each in a span, and records the
// median duration in ms under metric name.
func (p *prober) timeCalls(metricName, spanName string, fn func() error) error {
	var xs []float64
	for i := 0; i < repeats; i++ {
		t := time.Now()
		id := p.tr.begin(spanName, 0, p.op)
		err := fn()
		p.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", spanName, err)
		}
		xs = append(xs, ms(time.Since(t)))
	}
	p.out[metricName] = metric{median(xs), "ms", len(xs), "median"}
	return nil
}

// perUpdate feeds every batch to fn in its own span and returns the
// median over batches of ns per update.
func (p *prober) perUpdate(spanName string, batches [][]stream.Update, fn func([]stream.Update) error) (float64, error) {
	xs := make([]float64, 0, len(batches))
	for _, b := range batches {
		t := time.Now()
		id := p.tr.begin(spanName, 0, p.op)
		err := fn(b)
		p.tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", spanName, err)
		}
		xs = append(xs, float64(time.Since(t).Nanoseconds())/float64(len(b)))
	}
	return median(xs), nil
}

// recordPerUpdate runs perUpdate and records its result as metricName.
func (p *prober) recordPerUpdate(metricName, spanName string, batches [][]stream.Update, fn func([]stream.Update) error) error {
	v, err := p.perUpdate(spanName, batches, fn)
	if err == nil {
		p.out[metricName] = metric{v, "ns/update", len(batches), fmt.Sprintf("median over %d-update calls", len(batches[0]))}
	}
	return err
}

// setup times the pieces of set-up: the envelope scan, Spec
// normalization, Open of the workload's kind, and a daemon server.
func (p *prober) setup() error {
	g, m := p.in.g, uint64(p.in.spec.Options.M)
	var env gfunc.Envelope
	if err := p.timeCalls("gfunc.envelope_ms", "gfunc.MeasureEnvelope", func() error {
		env = gfunc.MeasureEnvelope(g, m)
		return nil
	}); err != nil {
		return err
	}
	if math.IsNaN(env.H()) {
		return fmt.Errorf("envelope H(M) is NaN")
	}
	if err := p.timeCalls("backend.normalize_ms", "backend.Normalize", func() error {
		_, err := p.in.spec.Normalize()
		return err
	}); err != nil {
		return err
	}
	if err := p.timeCalls("backend.open_ms", "backend.Open", func() error {
		_, err := backend.Open(p.in.spec)
		return err
	}); err != nil {
		return err
	}
	onepass, err := p.spec(backend.KindOnePass)
	if err != nil {
		return err
	}
	return p.timeCalls("daemon.new_server_ms", "daemon.NewServer", func() error {
		_, err := daemon.NewServer(onepass)
		return err
	})
}

// openOnePass opens a fresh onepass estimator under the workload's
// options.
func (p *prober) openOnePass() (*core.OnePassEstimator, error) {
	s, err := p.spec(backend.KindOnePass)
	if err != nil {
		return nil, err
	}
	est, err := backend.Open(s)
	if err != nil {
		return nil, err
	}
	op, ok := est.(*core.OnePassEstimator)
	if !ok {
		return nil, fmt.Errorf("onepass kind opened %T", est)
	}
	return op, nil
}

// core times the onepass estimator: per-update ingest, Estimate,
// Merge of two half-stream estimators, and the snapshot round trip.
func (p *prober) core() error {
	est, err := p.openOnePass()
	if err != nil {
		return err
	}
	if err := p.recordPerUpdate("core.update_ns", "core.UpdateBatch", p.in.batches, func(b []stream.Update) error {
		est.UpdateBatch(b)
		return nil
	}); err != nil {
		return err
	}
	if err := p.timeCalls("core.estimate_ms", "core.Estimate", func() error {
		if v := est.Estimate(); math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("estimate is %v", v)
		}
		return nil
	}); err != nil {
		return err
	}
	var snap []byte
	if err := p.timeCalls("core.marshal_ms", "core.MarshalBinary", func() (err error) {
		snap, err = est.MarshalBinary()
		return err
	}); err != nil {
		return err
	}
	p.out["core.snapshot_bytes"] = metric{float64(len(snap)), "B", 1, "MarshalBinary after the full stream"}
	into, err := p.openOnePass()
	if err != nil {
		return err
	}
	if err := p.timeCalls("core.unmarshal_ms", "core.UnmarshalBinary", func() error {
		return into.UnmarshalBinary(snap)
	}); err != nil {
		return err
	}
	halves := [2]*core.OnePassEstimator{}
	for h := range halves {
		if halves[h], err = p.openOnePass(); err != nil {
			return err
		}
	}
	for i, b := range p.in.batches {
		halves[i%2].UpdateBatch(b)
	}
	return p.timeCalls("core.merge_ms", "core.Merge", func() error {
		return halves[0].Merge(halves[1])
	})
}

// level0 is the Algorithm 2 configuration core gives every recursive
// level, with the envelope core measures.
func (p *prober) level0() (heavy.OnePassConfig, error) {
	s, err := p.spec(backend.KindOnePass)
	if err != nil {
		return heavy.OnePassConfig{}, err
	}
	o := s.Options.WithDefaults()
	return heavy.OnePassConfig{G: p.in.g, Lambda: o.Lambda, Eps: o.Eps, Delta: o.Delta,
		H: core.EnvelopeFor(p.in.g, o), WidthFactor: o.WidthFactor}, nil
}

func (p *prober) heavyLevel0() error {
	cfg, err := p.level0()
	if err != nil {
		return err
	}
	hh := heavy.NewOnePass(cfg, util.NewSplitMix64(p.in.spec.Options.Seed))
	return p.recordPerUpdate("heavy.update_ns", "heavy.UpdateBatch", p.in.batches, func(b []stream.Update) error {
		hh.UpdateBatch(b)
		return nil
	})
}

// sketchRows compares a plain CountSketch with a top-k tracking one of
// the level-0 size on the same batches: the difference is the tracker's
// upkeep.
func (p *prober) sketchRows() error {
	cfg, err := p.level0()
	if err != nil {
		return err
	}
	rows, buckets, k := level0Dims(cfg)
	rng := util.NewSplitMix64(p.in.spec.Options.Seed)
	plain := sketch.NewCountSketch(rows, buckets, rng.Fork())
	topk := sketch.NewCountSketchTopK(rows, buckets, k, rng.Fork())
	rowNs, err := p.perUpdate("sketch.UpdateBatch", p.in.batches, func(b []stream.Update) error {
		plain.UpdateBatch(b)
		return nil
	})
	if err != nil {
		return err
	}
	p.out["sketch.rowhash_ns"] = metric{rowNs, "ns/update", len(p.in.batches), fmt.Sprintf("plain %d x %d CountSketch", rows, buckets)}
	topNs, err := p.perUpdate("sketch.UpdateBatch", p.in.batches, func(b []stream.Update) error {
		topk.UpdateBatch(b)
		return nil
	})
	if err != nil {
		return err
	}
	p.out["sketch.tracker_ns"] = metric{topNs - rowNs, "ns/update", len(p.in.batches),
		fmt.Sprintf("top-%d %.4g - plain %.4g ns/update (%d x %d)", k, topNs, rowNs, rows, buckets)}
	return nil
}

// level0Dims mirrors heavy.NewOnePass's CountSketch sizing (rows from
// δ/2, buckets from λ/3 and ε, tracked candidates from λ/3).
func level0Dims(cfg heavy.OnePassConfig) (rows int, buckets uint64, topk int) {
	lambda, delta := cfg.Lambda/3, cfg.Delta/2
	h := math.Max(cfg.H, 1)
	wf := cfg.WidthFactor
	if wf == 0 {
		wf = 1
	}
	rows = int(math.Ceil(2 * math.Log(2/delta)))
	if rows < 5 {
		rows = 5
	}
	if rows%2 == 0 {
		rows++
	}
	b := math.Max(8, wf*math.Max(16*h/lambda, h/(lambda*cfg.Eps*cfg.Eps)))
	return rows, util.NextPow2(uint64(b)), int(math.Ceil(2*h/lambda)) + 1
}

// nopSketcher is a per-level sketcher that does nothing, so the
// recursive sketch's own work (batch collapse, level subsampling and
// routing) is all that is timed.
type nopSketcher struct{}

func (nopSketcher) Update(uint64, int64)        {}
func (nopSketcher) UpdateBatch([]stream.Update) {}
func (nopSketcher) Cover() heavy.Cover          { return nil }
func (nopSketcher) SpaceBytes() int             { return 0 }

func (p *prober) subsample() error {
	s, err := p.spec(backend.KindOnePass)
	if err != nil {
		return err
	}
	o := s.Options.WithDefaults()
	sk := recursive.New(recursive.Config{N: o.N, Levels: o.Levels,
		MakeSketcher: func(int) heavy.Sketcher { return nopSketcher{} }}, util.NewSplitMix64(o.Seed))
	return p.recordPerUpdate("recursive.subsample_ns", "recursive.UpdateBatch", p.in.batches, func(b []stream.Update) error {
		sk.UpdateBatch(b)
		return nil
	})
}

// hotpath feeds the stream to the sharded kind in chunkSize Process
// calls and reads its ring counters and merge-on-Estimate cost.
func (p *prober) hotpath() error {
	s, err := p.spec(backend.KindSharded)
	if err != nil {
		return err
	}
	est, err := backend.Open(s)
	if err != nil {
		return err
	}
	se, ok := est.(*hotpath.ShardedEstimator)
	if !ok {
		return fmt.Errorf("sharded kind opened %T", est)
	}
	if err := p.recordPerUpdate("hotpath.process_ns", "hotpath.Process", split(p.in.updates, chunkSize), se.Process); err != nil {
		return err
	}
	st := se.Stats()
	p.out["hotpath.producer_stalls"] = metric{float64(st.ProducerStalls), "count", 1, fmt.Sprintf("spin-yields over %d updates, %d shards", st.Updates, st.Shards)}
	p.out["hotpath.consumer_stalls"] = metric{float64(st.ConsumerStalls), "count", 1, fmt.Sprintf("spin-yields over %d updates, %d shards", st.Updates, st.Shards)}
	if st.Batches == 0 {
		return fmt.Errorf("hotpath published no batches")
	}
	p.out["hotpath.updates_per_batch"] = metric{float64(st.Updates) / float64(st.Batches), "upd/batch", int(st.Batches),
		fmt.Sprintf("%d updates / %d ring batches", st.Updates, st.Batches)}
	return p.timeCalls("hotpath.estimate_ms", "hotpath.Estimate", func() error {
		if v := se.Estimate(); math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("estimate is %v", v)
		}
		return nil
	})
}

// wire encodes and decodes every batch as an ingest frame, then counts
// encode allocations in a second, untraced pass.
func (p *prober) wire() error {
	s, err := p.spec(backend.KindOnePass)
	if err != nil {
		return err
	}
	fp := s.Fingerprint()
	frames := make([][]byte, len(p.in.batches))
	seq := 0
	if err := p.recordPerUpdate("wire.frame_encode_ns", "wire.AppendIngestFrame", p.in.batches, func(b []stream.Update) error {
		frames[seq] = wire.AppendIngestFrame(fp, uint64(seq), b)
		seq++
		return nil
	}); err != nil {
		return err
	}
	seq = 0
	if err := p.recordPerUpdate("wire.frame_decode_ns", "wire.UnmarshalIngestFrame", p.in.batches, func(b []stream.Update) error {
		_, got, err := wire.UnmarshalIngestFrame(frames[seq], fp)
		seq++
		if err == nil && len(got) != len(b) {
			err = fmt.Errorf("decoded %d updates, encoded %d", len(got), len(b))
		}
		return err
	}); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, b := range p.in.batches {
		frames[i] = wire.AppendIngestFrame(fp, uint64(i), b)
	}
	runtime.ReadMemStats(&after)
	p.out["wire.frame_encode_allocs"] = metric{float64(after.Mallocs-before.Mallocs) / float64(len(frames)), "allocs/frame", len(frames),
		fmt.Sprintf("%d mallocs / %d frames of %d updates", after.Mallocs-before.Mallocs, len(frames), batchSize)}
	return nil
}

// apply times the daemon's apply step (state lock + estimator ingest)
// per batch, with no transport in front of it.
func (p *prober) apply() error {
	s, err := p.spec(backend.KindOnePass)
	if err != nil {
		return err
	}
	srv, err := daemon.NewServer(s)
	if err != nil {
		return err
	}
	ns, err := p.perUpdate("daemon.IngestBatch", p.in.batches, srv.IngestBatch)
	if err != nil {
		return err
	}
	p.out["daemon.apply_ms"] = metric{ns * batchSize / 1e6, "ms", len(p.in.batches), fmt.Sprintf("median per %d-update IngestBatch", batchSize)}
	return nil
}
