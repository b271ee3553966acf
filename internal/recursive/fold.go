package recursive

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/heavy"
	"repro/internal/wire"
)

// fold reads several identically-configured sketches as their merge
// without building a merged sketch. Levels meet only in the final
// combine step, so each level is merged on its own: level k of every
// sketch, in slice order, is merged into a level-sized scratch that
// starts as a fresh level k (level k's hash functions, zeroed counters,
// an empty tracker), and visit receives the merged level. That is the
// same sequence of operations Merge performs on level k of a fresh
// target, so whatever visit reads is bit-identical to reading level k of
// the merged sketch.
//
// Levels are handed out through an atomic counter to
// min(levels, GOMAXPROCS) goroutines, each folding through one scratch,
// so visit runs concurrently for distinct levels and must not retain
// merged after it returns. The sketches are only read. Every level must
// be a *heavy.OnePass, and every sketch must match the first one's
// Fingerprint; both are checked before any level is merged.
func fold(sketches []*Sketch, visit func(level int, merged *heavy.OnePass) error) error {
	if len(sketches) == 0 {
		return fmt.Errorf("recursive: fold of no sketches")
	}
	first := sketches[0]
	fp := first.Fingerprint()
	for i, s := range sketches {
		if i > 0 && s.Fingerprint() != fp {
			return fmt.Errorf("recursive: fold: sketch %d fingerprint %#x != %#x", i, s.Fingerprint(), fp)
		}
		for k, lv := range s.levels {
			if _, ok := lv.(*heavy.OnePass); !ok {
				return fmt.Errorf("recursive: level %d sketcher %T does not support merging", k, lv)
			}
		}
	}

	n := len(first.levels)
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		var scratch *heavy.OnePass
		for {
			k := int(next.Add(1) - 1)
			if k >= n {
				return
			}
			scratch = first.levels[k].(*heavy.OnePass).EmptyLike(scratch)
			for _, s := range sketches {
				if err := scratch.Merge(s.levels[k].(*heavy.OnePass)); err != nil {
					errs[k] = fmt.Errorf("recursive: level %d: %w", k, err)
					break
				}
			}
			if errs[k] == nil {
				errs[k] = visit(k, scratch)
			}
		}
	}
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// FoldEstimate returns the Estimate of the merged sketches, computed
// level by level by fold.
func FoldEstimate(sketches []*Sketch) (float64, error) {
	if len(sketches) == 0 {
		return 0, fmt.Errorf("recursive: fold of no sketches")
	}
	covers := make([]heavy.Cover, len(sketches[0].levels))
	err := fold(sketches, func(k int, merged *heavy.OnePass) error {
		covers[k] = merged.Cover()
		return nil
	})
	if err != nil {
		return 0, err
	}
	return sketches[0].combine(covers), nil
}

// FoldMarshal returns the MarshalBinary bytes of the merged sketches,
// computed level by level by fold.
func FoldMarshal(sketches []*Sketch) ([]byte, error) {
	if len(sketches) == 0 {
		return nil, fmt.Errorf("recursive: fold of no sketches")
	}
	blobs := make([][]byte, len(sketches[0].levels))
	err := fold(sketches, func(k int, merged *heavy.OnePass) error {
		blob, err := merged.MarshalBinary()
		if err != nil {
			return fmt.Errorf("recursive: level %d: %w", k, err)
		}
		blobs[k] = blob
		return nil
	})
	if err != nil {
		return nil, err
	}
	return frameLevels(sketchMagic, sketches[0].Fingerprint(), blobs), nil
}

// frameLevels writes the recursive wire framing: the header, the level
// count, and one length-framed blob per level.
func frameLevels(magic uint32, fp uint64, blobs [][]byte) []byte {
	var w wire.Writer
	w.Header(magic, fp)
	w.U32(uint32(len(blobs)))
	for _, blob := range blobs {
		w.Blob(blob)
	}
	return w.Bytes()
}
