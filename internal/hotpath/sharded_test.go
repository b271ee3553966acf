package hotpath_test

// The bit-identity acceptance tests for the sharded hot path: for EVERY
// workload generator in the catalog, the ring-fed concurrent ingest
// (backend.Process on the sharded kind), the synchronous routed path
// (UpdateBatch), and several shard counts must reproduce the serial
// one-pass estimate and marshaled snapshot bit for bit. They live in an
// external test package so they can open estimators through the backend
// registry — the same construction path every frontend uses — without
// creating an import cycle (backend imports hotpath).

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hotpath"
	"repro/internal/workload"
)

var shardedTestCfg = workload.Config{N: 1 << 12, Items: 200, Length: 8000, Seed: 5}

func shardedTestSpec(workers int) backend.Spec {
	return backend.Spec{
		Kind: backend.KindSharded, G: "x^2", Workers: workers,
		Options: core.Options{N: shardedTestCfg.N, M: 1 << 10, Eps: 0.25, Seed: 21, Lambda: 1.0 / 16},
	}
}

// serialReference ingests the generator's stream through the serial
// onepass kind and returns its estimate and snapshot.
func serialReference(t *testing.T, gen workload.Generator) (float64, []byte) {
	t.Helper()
	sp := shardedTestSpec(0)
	sp.Kind = backend.KindOnePass
	sp.Workers = 0
	e, err := backend.Open(sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Process(e, gen.Generate(shardedTestCfg)); err != nil {
		t.Fatal(err)
	}
	blob, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return e.Estimate(), blob
}

// TestShardedMatchesSerialEveryWorkload is the tentpole property test:
// estimates AND marshaled snapshots bit-identical to serial for every
// generator in the catalog, across shard counts, through the concurrent
// ring path. Run it under -race to also exercise the ring handoff.
func TestShardedMatchesSerialEveryWorkload(t *testing.T) {
	for _, gen := range workload.Generators() {
		gen := gen
		t.Run(gen.Name(), func(t *testing.T) {
			wantEst, wantBlob := serialReference(t, gen)
			for _, workers := range []int{1, 2, 4, 8} {
				e, err := backend.Open(shardedTestSpec(workers))
				if err != nil {
					t.Fatal(err)
				}
				if err := backend.Process(e, gen.Generate(shardedTestCfg)); err != nil {
					t.Fatal(err)
				}
				if got := e.Estimate(); got != wantEst {
					t.Fatalf("workers=%d: estimate %v != serial %v", workers, got, wantEst)
				}
				blob, err := e.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(blob, wantBlob) {
					t.Fatalf("workers=%d: marshaled snapshot differs from serial (%d vs %d bytes)",
						workers, len(blob), len(wantBlob))
				}
			}
		})
	}
}

// TestShardedSynchronousPathMatchesSerial covers the routed
// Update/UpdateBatch path (what the daemon's ingest handlers drive)
// rather than the ring path.
func TestShardedSynchronousPathMatchesSerial(t *testing.T) {
	gen := workload.Zipf{Alpha: 1.1}
	wantEst, wantBlob := serialReference(t, gen)
	e, err := backend.Open(shardedTestSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Generate(shardedTestCfg)
	// Half through UpdateBatch chunks, half through single Updates: both
	// entry points must land in the same shard state.
	updates := s.Updates()
	half := len(updates) / 2
	engine.Ingest(e, updates[:half], 0)
	for _, u := range updates[half:] {
		e.Update(u.Item, u.Delta)
	}
	if got := e.Estimate(); got != wantEst {
		t.Fatalf("estimate %v != serial %v", got, wantEst)
	}
	blob, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, wantBlob) {
		t.Fatal("marshaled snapshot differs from serial")
	}
}

// TestShardedUnmarshalMerges: decoding a snapshot folds it INTO the
// receiver (merge semantics), so two sharded workers combine to the
// serial estimate over the union stream — the distributed contract.
func TestShardedUnmarshalMerges(t *testing.T) {
	gen := workload.Uniform{}
	s := gen.Generate(shardedTestCfg)
	updates := s.Updates()
	half := len(updates) / 2

	sp := shardedTestSpec(3)
	a, err := backend.Open(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := backend.Open(sp)
	if err != nil {
		t.Fatal(err)
	}
	engine.Ingest(a, updates[:half], 0)
	engine.Ingest(b, updates[half:], 0)
	blob, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}

	wantEst, _ := serialReference(t, gen)
	if got := a.Estimate(); got != wantEst {
		t.Fatalf("merged estimate %v != serial %v", got, wantEst)
	}
}

// TestShardedEstimateIsRepeatable: Estimate only reads the shards, so
// calling it twice (or marshaling in between) cannot double-count them.
func TestShardedEstimateIsRepeatable(t *testing.T) {
	e, err := backend.Open(shardedTestSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.Zipf{Alpha: 1.1}
	if err := backend.Process(e, gen.Generate(shardedTestCfg)); err != nil {
		t.Fatal(err)
	}
	first := e.Estimate()
	if _, err := e.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if again := e.Estimate(); again != first {
		t.Fatalf("second Estimate %v != first %v (merge mutated the shards)", again, first)
	}
}

// TestShardedStats: the ring counters account for exactly the stream
// that went through Process, and the rings quiesce empty.
func TestShardedStats(t *testing.T) {
	est, err := backend.Open(shardedTestSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	se := est.(*hotpath.ShardedEstimator)
	s := workload.Zipf{Alpha: 1.1}.Generate(shardedTestCfg)
	if err := se.Process(s.Updates()); err != nil {
		t.Fatal(err)
	}
	st := se.Stats()
	if st.Shards != 4 {
		t.Fatalf("Stats.Shards = %d, want 4", st.Shards)
	}
	if st.RingDepth == 0 {
		t.Fatal("Stats.RingDepth = 0")
	}
	if st.Updates != uint64(s.Len()) {
		t.Fatalf("Stats.Updates = %d, want the full stream %d", st.Updates, s.Len())
	}
	if st.Batches == 0 {
		t.Fatal("Stats.Batches = 0 after a ring-path Process")
	}
	if st.Occupancy != 0 {
		t.Fatalf("Stats.Occupancy = %d after Process returned (rings must quiesce)", st.Occupancy)
	}
}

// nopReader is a Reader that never runs: New fails before any read.
type nopReader struct{}

func (nopReader) Estimate([]hotpath.Shard) (float64, error) { return 0, nil }
func (nopReader) Marshal([]hotpath.Shard) ([]byte, error)   { return nil, nil }

// TestShardedConfigErrors: the factory and the reader are required, and
// a failing factory surfaces instead of panicking later.
func TestShardedConfigErrors(t *testing.T) {
	if _, err := hotpath.New(hotpath.Config{}); err == nil {
		t.Fatal("New without a factory succeeded")
	}
	open := func() (hotpath.Shard, error) { return backend.Open(shardedTestSpec(1)) }
	if _, err := hotpath.New(hotpath.Config{NewShard: open}); err == nil {
		t.Fatal("New without Config.Read succeeded")
	}
	broken := func() (hotpath.Shard, error) { return nil, errors.New("broken factory") }
	if _, err := hotpath.New(hotpath.Config{NewShard: broken, Read: nopReader{}}); err == nil {
		t.Fatal("New with a failing factory succeeded")
	}
}
