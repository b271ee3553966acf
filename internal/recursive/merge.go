package recursive

import (
	"fmt"

	"repro/internal/heavy"
)

// Merger is implemented by level sketchers that support distributed
// merging (heavy.OnePass does).
type Merger interface {
	Merge(other *heavy.OnePass) error
}

// Merge folds another recursive sketch (same configuration and seed) into
// s, level by level. Both sketches must have been built by New with
// identical Config and rng seed so that the subsampling hashes and
// per-level sketcher hashes coincide; the Fingerprints, which digest
// both, must be equal, and this is checked before any level is merged.
func (s *Sketch) Merge(other *Sketch) error {
	if fa, fb := s.Fingerprint(), other.Fingerprint(); fa != fb {
		return fmt.Errorf("recursive: merge fingerprint mismatch %#x vs %#x", fa, fb)
	}
	for k := range s.levels {
		a, okA := s.levels[k].(*heavy.OnePass)
		b, okB := other.levels[k].(*heavy.OnePass)
		if !okA || !okB {
			return fmt.Errorf("recursive: level %d sketcher does not support merging", k)
		}
		if err := a.Merge(b); err != nil {
			return fmt.Errorf("recursive: level %d: %w", k, err)
		}
	}
	return nil
}
