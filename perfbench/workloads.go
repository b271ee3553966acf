package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/workload"
)

// Sizes shared by every workload. Each round generates its own stream
// (see roundInputs), so its exact g-SUM is known before timing starts.
const (
	logN      = 20
	items     = 50000
	streamLen = 1 << 20
	// batchSize is the UpdateBatch / pushed-frame size.
	batchSize = 4096
	// chunkSize is the sharded workload's Process call size.
	chunkSize = 1 << 16
	// estimateEvery is how many batches the serial caller feeds between
	// two Estimate calls.
	estimateEvery = 32
)

func options(seed uint64) core.Options {
	return core.Options{N: 1 << logN, M: 1 << 10, Eps: 0.25, Lambda: 1.0 / 16, Seed: seed}
}

// errRecorded stops a run after an operation failure that the recorder
// has already counted: the run still reports, with correct = false.
var errRecorded = errors.New("operation failed")

// workloadDef is one named workload: the Spec it opens, the generator
// its stream comes from, and the loop that drives it.
type workloadDef struct {
	name  string
	kind  backend.Kind
	g     string
	gen   workload.Generator
	round func(b *bench, in *inputs, rec *recorder, op int64, tr *tracer) error
}

var workloads = []*workloadDef{
	{name: "serial-uniform", kind: backend.KindOnePass, g: "x^2",
		gen: workload.Uniform{}, round: serialRound},
	{name: "sharded-zipf", kind: backend.KindSharded, g: "(2+sin log(1+x))x^2",
		gen: workload.Zipf{Alpha: 1.1}, round: shardedRound},
	{name: "cluster-stream", kind: backend.KindOnePass, g: "x^2 lg(1+x)",
		gen: workload.Zipf{Alpha: 1.1}, round: clusterRound},
}

func lookupWorkload(name string, bf benchmarkFile) (*workloadDef, error) {
	declared := false
	for _, w := range bf.Workloads {
		declared = declared || w.Name == name
	}
	for _, w := range workloads {
		if w.name == name && declared {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (BENCHMARK.json declares %v)", name, bf.Workloads)
}

// bench is one run's state: its settings, samples, and the inputs of
// its latest round.
type bench struct {
	w    *workloadDef
	seed uint64
	cfg  config
	rec  *recorder
	last *inputs
}

// inputs is one generated stream and its Spec, with everything derived
// from it before timing starts.
type inputs struct {
	spec    backend.Spec
	g       gfunc.Func
	updates []stream.Update
	batches [][]stream.Update
	// chunks are the sharded workload's Process inputs.
	chunks     []*stream.Stream
	vec        stream.Vector
	exact      float64
	genSeconds float64
	// dupRepeats of dupTotal updates repeat an item already seen in
	// their batch: the share that batch collapse removes.
	dupRepeats, dupTotal int
}

// roundInputs generates round op's stream and Spec. Every round gets
// its own stream and sketch seed, both derived from the run's seed:
// which items turn out heavy (and so, for instance, how the sharded
// kind's hash routing balances) depends on the stream, and a run that
// replayed one stream would report a property of its seed.
func (b *bench) roundInputs(op int64) (*inputs, error) {
	return prepare(b.w, util.NewSplitMix64(b.seed+uint64(op)*0x9e3779b97f4a7c15).Next())
}

func prepare(w *workloadDef, seed uint64) (*inputs, error) {
	in := &inputs{spec: backend.Spec{Kind: w.kind, G: w.g, Options: options(seed)}}
	if w.kind == backend.KindSharded {
		in.spec.Workers = runtime.NumCPU()
	}
	g, err := backend.CatalogFunc(w.g)
	if err != nil {
		return nil, err
	}
	in.g = g
	t := time.Now()
	s := w.gen.Generate(workload.Config{N: 1 << logN, Items: items, Length: streamLen, Seed: seed})
	in.genSeconds = time.Since(t).Seconds()
	in.updates = s.Updates()
	in.batches = split(in.updates, batchSize)
	seen := make([]int32, 1<<logN) // batch number + 1 that last saw each item
	for i, b := range in.batches {
		for _, u := range b {
			if seen[u.Item] == int32(i+1) {
				in.dupRepeats++
			}
			seen[u.Item] = int32(i + 1)
		}
		in.dupTotal += len(b)
	}
	in.vec = s.Vector()
	in.exact = in.exactTimes(1)
	if w.kind == backend.KindSharded {
		for _, c := range split(in.updates, chunkSize) {
			cs := stream.New(s.N())
			for _, u := range c {
				cs.Add(u.Item, u.Delta)
			}
			in.chunks = append(in.chunks, cs)
		}
	}
	return in, nil
}

// exactTimes is the exact g-SUM of the stream replayed k times.
func (in *inputs) exactTimes(k int64) float64 {
	scaled := make(map[uint64]int64, len(in.vec))
	for i, v := range in.vec {
		scaled[i] = k * v
	}
	return heavy.GSumExact(in.g, scaled)
}

// serialReference is the onepass kind's estimate after the stream is
// fed k times, serially, under the workload's Spec.
func serialReference(in *inputs, k int) (float64, error) {
	spec := in.spec
	spec.Kind, spec.Workers = backend.KindOnePass, 0
	est, err := backend.Open(spec)
	if err != nil {
		return 0, err
	}
	for i := 0; i < k; i++ {
		for _, b := range in.batches {
			est.UpdateBatch(b)
		}
	}
	return est.Estimate(), nil
}

func split(us []stream.Update, size int) [][]stream.Update {
	var out [][]stream.Update
	for len(us) > 0 {
		n := min(size, len(us))
		out = append(out, us[:n])
		us = us[n:]
	}
	return out
}

// loop runs one warm-up round, whose outcomes count but whose samples
// are dropped, then rounds until dur has passed. Each round generates
// its stream (untimed), sets the system up from scratch, and makes one
// full pass of the workload over the stream.
func (w *workloadDef) loop(b *bench, dur time.Duration, tr *tracer) error {
	in, err := b.roundInputs(0)
	if err != nil {
		return err
	}
	warm := newRecorder(b.rec.eps)
	err = w.round(b, in, warm, 0, nil)
	b.rec.absorbOutcomes(warm, "warm-up")
	if err != nil {
		return stopOn(err)
	}
	deadline := time.Now().Add(dur)
	for op := int64(1); op == 1 || time.Now().Before(deadline); op++ {
		if in, err = b.roundInputs(op); err != nil {
			return err
		}
		b.rec.add("gen_s", in.genSeconds)
		b.rec.count("dup_repeats", float64(in.dupRepeats))
		b.rec.count("dup_total", float64(in.dupTotal))
		b.last = in
		if err := w.round(b, in, b.rec, op, tr); err != nil {
			return stopOn(err)
		}
	}
	return nil
}

// stopOn turns a recorded operation failure into a normal end of the
// run (it is reported through the failed count) and passes any other
// error through.
func stopOn(err error) error {
	if errors.Is(err, errRecorded) {
		return nil
	}
	return err
}

// liveHeap is the live heap after a full collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// serialRound is serial-uniform: one caller feeds the stream in
// batchSize UpdateBatch calls to a fresh onepass estimator, reading an
// Estimate every estimateEvery batches. A batch's "ack" is its
// UpdateBatch call returning.
func serialRound(b *bench, in *inputs, rec *recorder, op int64, tr *tracer) error {
	root := tr.begin("bench.round", 0, op)
	defer tr.end(root)
	base := liveHeap()
	est, err := openTimed(in, rec, tr, root, op)
	if err != nil {
		return err
	}
	alloc0 := totalAlloc()
	var ingest time.Duration
	last := math.NaN()
	for i, batch := range in.batches {
		t := time.Now()
		id := tr.begin("core.UpdateBatch", root, op)
		est.UpdateBatch(batch)
		tr.end(id)
		d := time.Since(t)
		ingest += d
		rec.add("ack_ms", ms(d))
		rec.op("update batch", nil)
		if (i+1)%estimateEvery == 0 {
			t = time.Now()
			id = tr.begin("core.Estimate", root, op)
			last = est.Estimate()
			tr.end(id)
			rec.add("query_ms", ms(time.Since(t)))
			rec.estimate("estimate", last, nil)
		}
	}
	rec.add("alloc_bytes_per_update", float64(totalAlloc()-alloc0)/float64(len(in.updates)))
	rec.add("ingest_mups", float64(len(in.updates))/ingest.Seconds()/1e6)
	rec.final("final estimate", last, in.exact, nil)
	rec.add("space_bytes", float64(est.SpaceBytes()))
	rec.add("heap_live_bytes", liveHeap()-base)
	runtime.KeepAlive(est)
	return nil
}

// shardedRound is sharded-zipf: the caller hands each chunkSize chunk
// to backend.Process on a fresh sharded estimator and reads Estimate
// after every chunk, so every read merges all shards. A chunk's "ack"
// is its Process call returning.
func shardedRound(b *bench, in *inputs, rec *recorder, op int64, tr *tracer) error {
	root := tr.begin("bench.round", 0, op)
	defer tr.end(root)
	base := liveHeap()
	est, err := openTimed(in, rec, tr, root, op)
	if err != nil {
		return err
	}
	alloc0 := totalAlloc()
	var ingest time.Duration
	last := math.NaN()
	for _, chunk := range in.chunks {
		t := time.Now()
		// backend.Process hands a sharded estimator's updates straight
		// to hotpath's ShardedEstimator.Process.
		id := tr.begin("hotpath.Process", root, op)
		err := backend.Process(est, chunk)
		tr.end(id)
		d := time.Since(t)
		ingest += d
		rec.add("ack_ms", ms(d))
		if !rec.op("process", err) {
			return errRecorded
		}
		t = time.Now()
		id = tr.begin("hotpath.Estimate", root, op)
		last = est.Estimate()
		tr.end(id)
		rec.add("query_ms", ms(time.Since(t)))
		rec.estimate("estimate", last, nil)
	}
	rec.add("alloc_bytes_per_update", float64(totalAlloc()-alloc0)/float64(len(in.updates)))
	rec.add("ingest_mups", float64(len(in.updates))/ingest.Seconds()/1e6)
	rec.final("final estimate", last, in.exact, nil)
	rec.add("final_estimate", last)
	rec.add("space_bytes", float64(est.SpaceBytes()))
	rec.add("heap_live_bytes", liveHeap()-base)
	runtime.KeepAlive(est)
	return nil
}

// openTimed opens the stream's Spec as one set-up sample.
func openTimed(in *inputs, rec *recorder, tr *tracer, root, op int64) (backend.Estimator, error) {
	t := time.Now()
	id := tr.begin("backend.Open", root, op)
	est, err := backend.Open(in.spec)
	tr.end(id)
	if !rec.op("open", err) {
		return nil, errRecorded
	}
	rec.add("setup_s", time.Since(t).Seconds())
	return est, nil
}
