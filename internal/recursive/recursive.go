package recursive

import (
	"repro/internal/heavy"
	"repro/internal/stream"
	"repro/internal/util"
	"repro/internal/xhash"
)

// Config parameterizes the recursive sketch.
type Config struct {
	// N is the domain size; the number of levels defaults to log2(N).
	N uint64
	// Levels overrides the level count (0 means log2 N, capped at 30).
	Levels int
	// MakeSketcher builds the per-level heavy-hitter algorithm. Level 0
	// sees the full stream; deeper levels see subsampled streams.
	MakeSketcher func(level int) heavy.Sketcher
}

// Sketch is a one-pass recursive g-SUM sketch.
type Sketch struct {
	levels  []heavy.Sketcher
	sub     []*xhash.Bernoulli // sub[k] gates membership of U_{k+1} within U_k
	scratch [][]stream.Update  // reusable UpdateBatch survivor buffers
}

// New returns a fresh recursive sketch.
func New(cfg Config, rng *util.SplitMix64) *Sketch {
	if cfg.N == 0 {
		panic("recursive: domain must be positive")
	}
	if cfg.MakeSketcher == nil {
		panic("recursive: MakeSketcher is required")
	}
	levels := cfg.Levels
	if levels == 0 {
		levels = util.Log2Ceil(cfg.N)
	}
	if levels > 30 {
		levels = 30
	}
	if levels < 1 {
		levels = 1
	}
	s := &Sketch{
		levels: make([]heavy.Sketcher, levels+1),
		sub:    make([]*xhash.Bernoulli, levels),
	}
	for k := 0; k <= levels; k++ {
		s.levels[k] = cfg.MakeSketcher(k)
	}
	for k := 0; k < levels; k++ {
		s.sub[k] = xhash.NewBernoulli(2, 1, 2, rng.Fork())
	}
	return s
}

// Update feeds one turnstile update to every level whose sub-universe
// contains the item. Expected work is O(1) level updates (geometric
// survival), plus level 0 which always fires.
func (s *Sketch) Update(item uint64, delta int64) {
	s.levels[0].Update(item, delta)
	for k := 0; k < len(s.sub); k++ {
		if !s.sub[k].Hash(item) {
			return
		}
		s.levels[k+1].Update(item, delta)
	}
}

// member reports whether item belongs to sub-universe U_k.
func (s *Sketch) member(item uint64, k int) bool {
	for j := 0; j < k; j++ {
		if !s.sub[j].Hash(item) {
			return false
		}
	}
	return true
}

// Estimate assembles the bottom-up estimator from the per-level covers.
// Reading a cover leaves the level state untouched, so Estimate may be
// called any number of times, between updates as well as after the
// stream: each call answers for exactly the updates applied so far.
func (s *Sketch) Estimate() float64 {
	covers := make([]heavy.Cover, len(s.levels))
	for k, lv := range s.levels {
		covers[k] = lv.Cover()
	}
	return s.combine(covers)
}

// combine is CombineCovers with s's subsampling hashes.
func (s *Sketch) combine(covers []heavy.Cover) float64 {
	return CombineCovers(covers, func(level int, item uint64) bool {
		return s.sub[level].Hash(item)
	})
}

// CombineCovers assembles the bottom-up Braverman-Ostrovsky estimator from
// per-level covers. survives(k, item) must report whether item belongs to
// sub-universe U_{k+1} (i.e. passed the level-k subsampling hash). It is
// exported so that multi-pass and universal estimators can reuse the
// combine step with their own cover extraction.
func CombineCovers(covers []heavy.Cover, survives func(level int, item uint64) bool) float64 {
	l := len(covers) - 1
	est := covers[l].WeightSum()
	for k := l - 1; k >= 0; k-- {
		var heavySum, survivorSum float64
		for _, e := range covers[k] {
			heavySum += e.Weight
			if survives(k, e.Item) {
				survivorSum += e.Weight
			}
		}
		est = heavySum + 2*(est-survivorSum)
		if est < heavySum {
			// The doubled remainder went negative (sampling noise on a
			// nearly exhausted tail); clamp to the certain heavy mass.
			est = heavySum
		}
	}
	return est
}

// SpaceBytes reports the total counter storage across levels.
func (s *Sketch) SpaceBytes() int {
	total := 0
	for _, lv := range s.levels {
		total += lv.SpaceBytes()
	}
	return total
}

// Levels returns the number of subsampling levels (excluding level 0).
func (s *Sketch) Levels() int { return len(s.sub) }
