package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
)

func TestShardAndMergeMatchesSinglePass(t *testing.T) {
	g := gfunc.F2Func()
	for _, shards := range []int{2, 4, 8} {
		for seed := uint64(1); seed <= 3; seed++ {
			s := zipfStream(seed)
			opts := Options{N: s.N(), M: 1 << 10, Eps: 0.25, Seed: 777, Lambda: 1.0 / 16}

			single := NewOnePass(g, opts)
			single.Process(s)

			merged, err := ShardAndMerge(func() *OnePassEstimator {
				return NewOnePass(g, opts)
			}, s, shards)
			if err != nil {
				t.Fatalf("shards=%d seed=%d: %v", shards, seed, err)
			}

			a, b := single.Estimate(), merged.Estimate()
			// Same seed => same hash functions => identical counters; the
			// only permissible difference is top-k tie ordering. Estimates
			// must agree to well under the accuracy target.
			if util.RelErr(b, a) > 0.05 {
				t.Errorf("shards=%d seed=%d: merged %.6g vs single %.6g",
					shards, seed, b, a)
			}
			exact := NewExact(g)
			exact.Process(s)
			if err := util.RelErr(b, exact.Estimate()); err > 0.3 {
				t.Errorf("shards=%d seed=%d: merged rel err %.3f vs exact", shards, seed, err)
			}
		}
	}
}

func TestMergeRejectsMismatchedConfig(t *testing.T) {
	g := gfunc.F2Func()
	a := NewOnePass(g, Options{N: 1 << 10, M: 1 << 8, Seed: 1, Lambda: 1.0 / 8})
	b := NewOnePass(g, Options{N: 1 << 10, M: 1 << 8, Seed: 1, Lambda: 1.0 / 16})
	if err := a.Merge(b); err == nil {
		t.Error("expected merge rejection for mismatched lambda (different dims)")
	}
}

// TestMergeRejectsFingerprintMismatch: an estimator with another Seed,
// or another g over the same pinned envelope, has the same shape but
// different hash functions or weights. Merge, EstimateMerged and
// MarshalMerged refuse it by Fingerprint, as UnmarshalBinary does on the
// wire, and the receiver's state is left untouched.
func TestMergeRejectsFingerprintMismatch(t *testing.T) {
	opts := Options{N: 1 << 12, M: 1 << 10, Seed: 1, Lambda: 1.0 / 8, Envelope: 4}
	otherSeed := opts
	otherSeed.Seed = 2
	s := zipfStream(3)
	a := NewOnePass(gfunc.F2Func(), opts)
	a.Process(s)
	before, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		b    *OnePassEstimator
	}{
		{"seed", NewOnePass(gfunc.F2Func(), otherSeed)},
		{"g", NewOnePass(gfunc.SinLogX2(), opts)},
	} {
		name, b := c.name, c.b
		b.Process(s)
		if err := a.Merge(b); err == nil {
			t.Errorf("%s: Merge accepted a fingerprint mismatch", name)
		}
		if _, err := EstimateMerged([]*OnePassEstimator{a, b}); err == nil {
			t.Errorf("%s: EstimateMerged accepted a fingerprint mismatch", name)
		}
		if _, err := MarshalMerged([]*OnePassEstimator{a, b}); err == nil {
			t.Errorf("%s: MarshalMerged accepted a fingerprint mismatch", name)
		}
		blob, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := a.UnmarshalBinary(blob); err == nil {
			t.Errorf("%s: UnmarshalBinary accepted a fingerprint mismatch", name)
		}
		after, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("%s: a rejected merge changed the receiver", name)
		}
	}
	if _, err := EstimateMerged(nil); err == nil {
		t.Error("EstimateMerged of no estimators succeeded")
	}
}

// TestMergedReadsMatchMerge: EstimateMerged and MarshalMerged answer
// exactly as merging the estimators, in order, into a fresh one.
func TestMergedReadsMatchMerge(t *testing.T) {
	g := gfunc.F2Func()
	opts := Options{N: 1 << 12, M: 1 << 10, Eps: 0.25, Seed: 9, Lambda: 1.0 / 16}
	parts := make([]*OnePassEstimator, 3)
	for i := range parts {
		parts[i] = NewOnePass(g, opts)
		parts[i].Process(zipfStreamShard(5, i, len(parts)))
	}
	ref := NewOnePass(g, opts)
	for _, p := range parts {
		if err := ref.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateMerged(parts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(est) != math.Float64bits(ref.Estimate()) {
		t.Errorf("EstimateMerged %v != merged Estimate %v", est, ref.Estimate())
	}
	got, err := MarshalMerged(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("MarshalMerged differs from the merged MarshalBinary")
	}
}

func TestDistributedTurnstileCancellation(t *testing.T) {
	// An item inserted on one shard and deleted on another must cancel in
	// the merged sketch — the defining property of linear sketches.
	g := gfunc.F2Func()
	opts := Options{N: 1 << 10, M: 1 << 8, Eps: 0.25, Seed: 5, Lambda: 1.0 / 8}
	a := NewOnePass(g, opts)
	b := NewOnePass(g, opts)
	a.Update(42, 100)
	a.Update(7, 30)
	b.Update(42, -100) // cancels on merge
	b.Update(9, 4)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got := a.Estimate()
	want := float64(30*30 + 4*4)
	if util.RelErr(got, want) > 0.1 {
		t.Errorf("merged estimate %.4g, want %.4g (cancellation failed)", got, want)
	}
}

func zipfStreamShard(seed uint64, part, of int) *stream.Stream {
	s := zipfStream(seed)
	out := stream.New(s.N())
	i := 0
	s.Each(func(u stream.Update) {
		if i%of == part {
			out.Add(u.Item, u.Delta)
		}
		i++
	})
	return out
}

func TestSerializeRoundTripAcrossWorkers(t *testing.T) {
	// Worker A and worker B sketch disjoint shards; B ships bytes to A;
	// A's estimate matches a single-pass run.
	g := gfunc.F2Func()
	opts := Options{N: 1 << 12, M: 1 << 10, Eps: 0.25, Seed: 99, Lambda: 1.0 / 16}
	full := zipfStream(4)

	single := NewOnePass(g, opts)
	single.Process(full)

	workerA := NewOnePass(g, opts)
	workerA.Process(zipfStreamShard(4, 0, 2))
	workerB := NewOnePass(g, opts)
	workerB.Process(zipfStreamShard(4, 1, 2))

	if err := workerA.Merge(workerB); err != nil {
		t.Fatal(err)
	}
	if util.RelErr(workerA.Estimate(), single.Estimate()) > 0.05 {
		t.Errorf("distributed %.6g vs single %.6g", workerA.Estimate(), single.Estimate())
	}
}
