package core

import (
	"fmt"

	"repro/internal/recursive"
	"repro/internal/stream"
)

// Merge folds another one-pass estimator (built with the same g and
// identical Options, including Seed) into e, yielding the estimator state
// of the union stream. This is the distributed-sketching mode: shard the
// stream across workers, give every worker the same Options, merge the
// results. A Fingerprint mismatch is an error, reported before any
// counter is touched — the check UnmarshalBinary makes on the wire.
func (e *OnePassEstimator) Merge(other *OnePassEstimator) error {
	if err := sameFingerprint(e, other); err != nil {
		return err
	}
	return e.sk.Merge(other.sk)
}

// sameFingerprint is the equal-configuration check every in-memory
// merge makes before touching a counter.
func sameFingerprint(a, b *OnePassEstimator) error {
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		return fmt.Errorf("core: OnePassEstimator merge: fingerprint mismatch %#x vs %#x", fa, fb)
	}
	return nil
}

// EstimateMerged returns the Estimate that merging every estimator, in
// order, into a fresh one would give, without building that estimator:
// recursive.FoldEstimate merges one level at a time into a level-sized
// scratch, with the levels spread over up to GOMAXPROCS goroutines. The
// estimators are only read. They must share one Fingerprint; a mismatch
// is an error.
func EstimateMerged(ests []*OnePassEstimator) (float64, error) {
	sks, err := foldable(ests)
	if err != nil {
		return 0, err
	}
	return recursive.FoldEstimate(sks)
}

// MarshalMerged returns the MarshalBinary bytes of the same merge as
// EstimateMerged, computed the same way.
func MarshalMerged(ests []*OnePassEstimator) ([]byte, error) {
	sks, err := foldable(ests)
	if err != nil {
		return nil, err
	}
	blob, err := recursive.FoldMarshal(sks)
	if err != nil {
		return nil, err
	}
	return ests[0].frame(blob), nil
}

// foldable checks that the estimators share one Fingerprint and returns
// their recursive sketches.
func foldable(ests []*OnePassEstimator) ([]*recursive.Sketch, error) {
	if len(ests) == 0 {
		return nil, fmt.Errorf("core: merge of no estimators")
	}
	sks := make([]*recursive.Sketch, len(ests))
	for i, e := range ests {
		if err := sameFingerprint(ests[0], e); err != nil {
			return nil, err
		}
		sks[i] = e.sk
	}
	return sks, nil
}

// ShardAndMerge is a convenience harness (used by tests, benches, and
// examples/distributed): it splits the stream round-robin into `shards`
// estimators with identical options, processes each shard independently,
// merges everything into the first estimator, and returns it.
func ShardAndMerge(g estimatorFactory, s *stream.Stream, shards int) (*OnePassEstimator, error) {
	if shards < 1 {
		shards = 1
	}
	workers := make([]*OnePassEstimator, shards)
	for i := range workers {
		workers[i] = g()
	}
	i := 0
	s.Each(func(u stream.Update) {
		workers[i%shards].Update(u.Item, u.Delta)
		i++
	})
	for _, w := range workers[1:] {
		if err := workers[0].Merge(w); err != nil {
			return nil, err
		}
	}
	return workers[0], nil
}

// estimatorFactory builds identically-configured estimators (same Options
// and Seed) for the sharding harness.
type estimatorFactory func() *OnePassEstimator
