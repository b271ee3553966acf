package heavy

import (
	"fmt"

	"repro/internal/sketch"
)

// Merge folds another OnePass instance (same configuration and seed, i.e.
// identical hash functions) into o. The result is the Algorithm 2 state
// that a single pass over the concatenated streams would have produced,
// up to the top-k tracker's admission order — candidate sets may differ on
// ties, covers of genuinely heavy items do not. This is what makes the
// one-pass estimator distributable: shard the stream, sketch each shard
// with the same seed, merge.
func (o *OnePass) Merge(other *OnePass) error {
	if o.eps != other.eps || o.h != other.h || o.topk != other.topk {
		return fmt.Errorf("heavy: OnePass merge config mismatch")
	}
	return o.cs.MergeTopK(other.cs)
}

// EmptyLike returns an empty OnePass with o's configuration and hash
// functions, the state a fresh instance from o's seed starts in: merging
// o's peers into it is exactly merging them into a new instance. The
// hash functions are shared with o, read-only. A non-nil reuse of o's
// dimensions lends its counter storage (see sketch.CountSketch.EmptyLike),
// so one buffer can fold many levels in turn.
func (o *OnePass) EmptyLike(reuse *OnePass) *OnePass {
	var buf *sketch.CountSketch
	if reuse != nil {
		buf = reuse.cs
	}
	out := *o
	out.cs = o.cs.EmptyLike(buf)
	return &out
}
