package heavy

import (
	"math"

	"repro/internal/gfunc"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/util"
)

// OnePass implements Algorithm 2, the 1-pass (g, λ, ε, δ)-heavy-hitter
// algorithm:
//
//	Ŝ, V̂ ← CountSketch(λ/3H(M), ε/2H(M), δ/2)
//	F̂2  ← AMS(ε, δ/2)
//	S   ← { i ∈ Ŝ : |g(v̂_i) - g(v̂_i + y)| ≤ ε g(v̂_i + y)
//	        for all |y| ≤ (ε/2H(M)) √F̂2 }
//	return (j, v̂_j) for j ∈ S
//
// The pruning step is where predictability enters: for a predictable g,
// every genuine (g, λ)-heavy hitter's estimate v̂ sits in a stability
// window wider than the CountSketch error, so it survives, while items
// whose g-value the sketch cannot pin down to (1±ε) are discarded. For an
// unpredictable g the window collapses and genuine heavy hitters are
// pruned — the experimentally visible face of the Lemma 25 lower bound.
type OnePass struct {
	g       gfunc.Func
	cs      *sketch.CountSketch
	eps     float64
	h       float64
	topk    int
	noPrune bool
}

// OnePassConfig configures Algorithm 2.
type OnePassConfig struct {
	G      gfunc.Func
	Lambda float64 // heaviness λ
	Eps    float64 // weight accuracy ε
	Delta  float64 // failure probability δ
	// H is the envelope H(M) from gfunc.MeasureEnvelope.
	H float64
	// WidthFactor scales the bucket count for experiment sweeps; 0 means 1.
	WidthFactor float64
	// DisablePruning turns off the stability pruning (ablation: shows why
	// Algorithm 2 needs the step for unpredictable functions).
	DisablePruning bool
}

// NewOnePass returns a fresh Algorithm 2 instance.
func NewOnePass(cfg OnePassConfig, rng *util.SplitMix64) *OnePass {
	wf := cfg.WidthFactor
	if wf == 0 {
		wf = 1
	}
	h := cfg.H
	if h < 1 {
		h = 1
	}
	rows, buckets, topk := dims(cfg.Lambda/3, cfg.Eps, cfg.Delta/2, h, wf)
	return &OnePass{
		g:       cfg.G,
		cs:      sketch.NewCountSketchTopK(rows, buckets, topk, rng.Fork()),
		eps:     cfg.Eps,
		h:       h,
		topk:    topk,
		noPrune: cfg.DisablePruning,
	}
}

// Update feeds one turnstile update.
func (o *OnePass) Update(item uint64, delta int64) {
	o.cs.Update(item, delta)
}

// UpdateBatch feeds a batch of turnstile updates through the CountSketch
// batch path, which aggregates duplicate items and re-scores the top-k
// tracker once per distinct item instead of once per update.
func (o *OnePass) UpdateBatch(batch []stream.Update) {
	o.cs.UpdateBatch(batch)
}

// ErrorWindow returns the additive frequency-error bound the pruning step
// guards against. The paper writes it as (ε/2H(M))√F̂2 for a CountSketch
// sized with λ' = λ/3H, ε' = ε/2H; with the sketch's dimensions made
// explicit the same quantity is the point-query error bound relative to
// the *tail* F2 — §3.1's guarantee is |v̂_ij - v_ij| <= ε (Σ_{j>k} v̄²)^{1/2},
// the residual after the top-k items are excluded — namely 2√(F̂2tail/b).
// F̂2 comes from the CountSketch row norms (an AMS-equivalent estimator;
// see sketch.CountSketch.EstimateF2), so Algorithm 2 needs no second
// structure.
func (o *OnePass) ErrorWindow() int64 {
	return o.errorWindow(o.cs.TopK())
}

func (o *OnePass) errorWindow(cands []sketch.Candidate) int64 {
	f2 := o.cs.EstimateF2()
	for _, c := range cands {
		e := float64(c.Est)
		f2 -= e * e
	}
	if f2 < 0 {
		f2 = 0
	}
	w := 2 * math.Sqrt(f2/float64(o.cs.Buckets()))
	if w < 1 {
		// The residual tail is below one unit of frequency: point queries
		// are exact and no stability pruning is warranted. (Flooring this
		// at 1 would permanently prune items with |v| <= 1/ε for g with
		// unit-scale variation, losing their mass at every level.)
		return 0
	}
	return int64(w)
}

// Cover extracts candidates, prunes unstable ones, and returns the
// surviving (item, v̂, g(|v̂|)) entries. It leaves the sketch state as it
// found it.
func (o *OnePass) Cover() Cover {
	return o.CoverFor(o.g)
}

// CoverFor extracts a cover for an arbitrary function g against the same
// sketch state. This is the universal-sketch property the paper's
// Section 1.1.1 application relies on: the linear sketch is independent of
// g, so one pass supports post-hoc queries for a whole family {g_θ}
// (each correct with the sketch's own probability). The sketch width must
// have been sized for an envelope H dominating every queried function.
func (o *OnePass) CoverFor(g gfunc.Func) Cover {
	cands := o.cs.TopK()
	window := o.errorWindow(cands)
	cover := make(Cover, 0, o.topk)
	for _, c := range cands {
		if c.Est == 0 {
			continue
		}
		v := uint64(util.AbsInt64(c.Est))
		if !o.noPrune && !stableUnder(g, v, window, o.eps) {
			continue
		}
		cover = append(cover, Entry{
			Item:   c.Item,
			Freq:   c.Est,
			Weight: g.Eval(v),
		})
	}
	cover.sortByWeight()
	return cover
}

// SpaceBytes reports the CountSketch counters plus the candidate table.
func (o *OnePass) SpaceBytes() int {
	return o.cs.SpaceBytes() + o.topk*16
}

// stableUnder reports whether |g(v) - g(v+y)| <= eps * g(v+y) for all
// offsets |y| <= window (clamped to keep v+y >= 0). The scan is dense for
// small offsets and geometric beyond 64, which catches every failure mode
// in the catalog (oscillations reveal themselves within a few steps of
// their wavelength, and the geometric tail covers scale changes).
func stableUnder(g gfunc.Func, v uint64, window int64, eps float64) bool {
	gv := g.Eval(v)
	check := func(z uint64) bool {
		gz := g.Eval(z)
		return math.Abs(gv-gz) <= eps*gz
	}
	probe := func(y int64) bool {
		if y >= 0 {
			return check(v + uint64(y))
		}
		u := uint64(-y)
		if u > v {
			return true // below zero: outside the domain, no constraint
		}
		return check(v - u)
	}
	for y := int64(1); y <= window && y <= 64; y++ {
		if !probe(y) || !probe(-y) {
			return false
		}
	}
	for y := int64(96); y <= window; y = y + y/2 {
		if !probe(y) || !probe(-y) {
			return false
		}
	}
	if window > 64 {
		if !probe(window) || !probe(-window) {
			return false
		}
	}
	return true
}
