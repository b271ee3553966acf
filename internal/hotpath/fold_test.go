package hotpath_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/hotpath"
	"repro/internal/workload"
)

// referenceFold is the read path the level-by-level fold replaced: every
// shard merged, in shard order, into a fresh one-pass estimator, which
// then answers Estimate and MarshalBinary.
func referenceFold(t *testing.T, sp backend.Spec, shards []hotpath.Shard) (float64, []byte) {
	t.Helper()
	sp.Kind, sp.Workers = backend.KindOnePass, 0
	e, err := backend.Open(sp)
	if err != nil {
		t.Fatal(err)
	}
	dst := e.(*core.OnePassEstimator)
	for i, sh := range shards {
		if err := dst.Merge(sh.(*core.OnePassEstimator)); err != nil {
			t.Fatalf("merge shard %d: %v", i, err)
		}
	}
	blob, err := dst.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return dst.Estimate(), blob
}

// TestShardedFoldMatchesFreshTarget: the sharded kind's Estimate and
// MarshalBinary, which fold one subsampling level at a time on up to
// GOMAXPROCS goroutines, equal the fresh-target fold bit for bit — the
// estimate by Float64bits, the snapshot byte for byte. The scale is the
// repository benchmark's domain and cardinality (2^20, 50k items), where
// the per-level trackers overflow, so the merged candidate sets depend on
// merge order and a fold that reordered anything would show.
func TestShardedFoldMatchesFreshTarget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []uint64{1, 7} {
		s := workload.Zipf{Alpha: 1.1}.Generate(workload.Config{N: 1 << 20, Items: 50000, Length: 1 << 18, Seed: seed})
		for _, g := range []string{"x^2", "(2+sin log(1+x))x^2"} {
			for _, shards := range []int{1, 2, 3, 4, 8} {
				sp := backend.Spec{
					Kind: backend.KindSharded, G: g, Workers: shards,
					Options: core.Options{N: 1 << 20, M: 1 << 10, Eps: 0.25, Lambda: 1.0 / 16, Seed: seed},
				}
				e, err := backend.Open(sp)
				if err != nil {
					t.Fatal(err)
				}
				if err := backend.Process(e, s); err != nil {
					t.Fatal(err)
				}
				wantEst, wantBlob := referenceFold(t, sp, hotpath.ShardsOf(e.(*hotpath.ShardedEstimator)))
				for _, procs := range []int{1, 4} {
					name := fmt.Sprintf("seed=%d g=%s shards=%d procs=%d", seed, g, shards, procs)
					runtime.GOMAXPROCS(procs)
					if got := e.Estimate(); math.Float64bits(got) != math.Float64bits(wantEst) {
						t.Errorf("%s: estimate %v != fresh-target fold %v", name, got, wantEst)
					}
					blob, err := e.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(blob, wantBlob) {
						t.Errorf("%s: snapshot differs from the fresh-target fold (%d vs %d bytes)", name, len(blob), len(wantBlob))
					}
				}
			}
		}
	}
}
