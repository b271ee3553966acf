package sketch

import (
	"fmt"
	"sort"

	"repro/internal/util"
	"repro/internal/xhash"
)

// CountSketch is the r x b counter matrix of Charikar, Chen, and
// Farach-Colton. Row j hashes each item to one of b buckets (pairwise
// independent) and multiplies its contribution by a 4-wise independent sign.
// A point query returns the median over rows of sign * counter.
//
// With r = O(log(n/δ)) rows and b buckets, every point estimate satisfies
// |v̂_i - v_i| <= sqrt(F2 / b) * O(1) with probability 1 - δ (the paper uses
// the equivalent parameterization |v̂_i - v_i| <= ε sqrt(λ F2) for a
// CountSketch(λ, ε, δ)).
type CountSketch struct {
	rows    int
	buckets uint64
	// flat is the contiguous r*b counter matrix; counts[j] is the row-j
	// view flat[j*b:(j+1)*b]. One backing array keeps row walks
	// cache-friendly and lets Merge and EstimateF2 run a single loop.
	flat   []int64
	counts [][]int64
	bucket []*xhash.Buckets
	sign   []*xhash.Sign
	// coef caches every row's hash-function coefficients in one flat
	// array, coefPerRow words per row: [b0 b1 | s0 s1 s2 s3]. The hot
	// paths (Update, Estimate, UpdateBatch) evaluate the polynomials
	// inline from this cache instead of chasing bucket[j]/sign[j]
	// pointers; values are bit-identical to the Buckets/Sign evaluations
	// (see xhash.Poly.AppendCoeffs).
	coef    []uint64
	scratch []int64 // per-row estimates, reused across point queries
	// topK, if non-nil, maintains the items with the largest |estimate|
	// seen so far, giving one-pass candidate extraction without a domain
	// scan. It is sized by NewCountSketchTopK.
	topK *topTracker
	agg  batchAgg // reusable UpdateBatch scratch; sketches are not goroutine-safe
}

// coefPerRow is the per-row stride of the coef cache: 2 bucket-hash
// coefficients (pairwise independence) + 4 sign coefficients (4-wise).
const coefPerRow = 6

// NewCountSketch returns a CountSketch with r rows and b buckets, drawing
// hash functions from rng. It panics on non-positive dimensions.
func NewCountSketch(r int, b uint64, rng *util.SplitMix64) *CountSketch {
	if r <= 0 || b == 0 {
		panic("sketch: CountSketch needs positive dimensions")
	}
	cs := &CountSketch{
		rows:    r,
		buckets: b,
		flat:    make([]int64, uint64(r)*b),
		counts:  make([][]int64, r),
		bucket:  make([]*xhash.Buckets, r),
		sign:    make([]*xhash.Sign, r),
		coef:    make([]uint64, 0, coefPerRow*r),
		scratch: make([]int64, r),
	}
	for j := 0; j < r; j++ {
		cs.counts[j] = cs.flat[uint64(j)*b : uint64(j+1)*b : uint64(j+1)*b]
		cs.bucket[j] = xhash.NewBuckets(2, b, rng.Fork())
		cs.sign[j] = xhash.NewSign(4, rng.Fork())
		cs.coef = cs.bucket[j].AppendCoeffs(cs.coef)
		cs.coef = cs.sign[j].AppendCoeffs(cs.coef)
	}
	return cs
}

// rowBucketSign evaluates row j's bucket index and ±1 sign for xp (the
// item already reduced mod 2^61-1) from the flat coefficient cache. It
// reproduces bucket[j].Hash and sign[j].Hash exactly: a degree-1 and a
// degree-3 Horner evaluation over GF(2^61-1), bucket reduced mod b, sign
// taken from the low bit.
func (cs *CountSketch) rowBucketSign(j int, xp uint64) (uint64, int64) {
	c := cs.coef[coefPerRow*j : coefPerRow*j+coefPerRow : coefPerRow*j+coefPerRow]
	h := xhash.AddMod(xhash.MulMod(c[1], xp), c[0]) % cs.buckets
	acc := c[5]
	acc = xhash.AddMod(xhash.MulMod(acc, xp), c[4])
	acc = xhash.AddMod(xhash.MulMod(acc, xp), c[3])
	acc = xhash.AddMod(xhash.MulMod(acc, xp), c[2])
	s := int64(-1)
	if acc&1 == 1 {
		s = 1
	}
	return h, s
}

// rowBucketSign4 is the four-lane rowBucketSign: it evaluates row j's
// bucket indices and signs for four reduced items in one pass, built on
// xhash.HornerStep4 so the four Horner chains interleave and the row
// walk runs at multiply throughput instead of latency. Each lane is
// bit-identical to rowBucketSign on the same item.
func (cs *CountSketch) rowBucketSign4(j int, xp *[4]uint64) (h [4]uint64, s [4]int64) {
	c := cs.coef[coefPerRow*j : coefPerRow*j+coefPerRow : coefPerRow*j+coefPerRow]
	// Bucket hash: c[1]*x + c[0], i.e. Horner from acc = c[1], one step.
	acc := [4]uint64{c[1], c[1], c[1], c[1]}
	xhash.HornerStep4(&acc, xp, c[0])
	b := cs.buckets
	h[0], h[1], h[2], h[3] = acc[0]%b, acc[1]%b, acc[2]%b, acc[3]%b
	// Sign hash: degree-3 Horner from acc = c[5] through c[4], c[3], c[2].
	sg := [4]uint64{c[5], c[5], c[5], c[5]}
	xhash.HornerStep4(&sg, xp, c[4])
	xhash.HornerStep4(&sg, xp, c[3])
	xhash.HornerStep4(&sg, xp, c[2])
	for k := 0; k < 4; k++ {
		if sg[k]&1 == 1 {
			s[k] = 1
		} else {
			s[k] = -1
		}
	}
	return h, s
}

// NewCountSketchTopK returns a CountSketch that additionally tracks the k
// items with the largest estimated |frequency| among items that appeared in
// the stream, supporting one-pass heavy hitter candidate extraction.
func NewCountSketchTopK(r int, b uint64, k int, rng *util.SplitMix64) *CountSketch {
	cs := NewCountSketch(r, b, rng)
	if k <= 0 {
		panic("sketch: top-k tracker needs k > 0")
	}
	cs.topK = newTopTracker(k)
	return cs
}

// Rows returns the number of rows r.
func (cs *CountSketch) Rows() int { return cs.rows }

// Buckets returns the number of buckets b per row.
func (cs *CountSketch) Buckets() uint64 { return cs.buckets }

// SpaceBytes returns the counter storage in bytes (the quantity the paper's
// space bounds govern; hash seeds are O(1) words each).
func (cs *CountSketch) SpaceBytes() int {
	return cs.rows * int(cs.buckets) * 8
}

// Update processes the turnstile update (item, delta).
func (cs *CountSketch) Update(item uint64, delta int64) {
	xp := item % xhash.MersennePrime61
	b := cs.buckets
	for j := 0; j < cs.rows; j++ {
		h, s := cs.rowBucketSign(j, xp)
		cs.flat[uint64(j)*b+h] += s * delta
	}
	if cs.topK != nil {
		cs.topK.offer(item, cs.Estimate(item))
	}
}

// Estimate returns the point query v̂_item: the median over rows of
// sign(item) * counter[bucket(item)]. It is allocation-free (point queries
// run on every update when top-k tracking is enabled).
func (cs *CountSketch) Estimate(item uint64) int64 {
	xp := item % xhash.MersennePrime61
	b := cs.buckets
	for j := 0; j < cs.rows; j++ {
		h, s := cs.rowBucketSign(j, xp)
		cs.scratch[j] = s * cs.flat[uint64(j)*b+h]
	}
	// Insertion sort the scratch buffer; rows are O(log n), typically < 20.
	for i := 1; i < len(cs.scratch); i++ {
		for j := i; j > 0 && cs.scratch[j] < cs.scratch[j-1]; j-- {
			cs.scratch[j], cs.scratch[j-1] = cs.scratch[j-1], cs.scratch[j]
		}
	}
	return cs.scratch[len(cs.scratch)/2]
}

// EstimateF2 returns the Thorup-Zhang style F2 estimate: the median over
// rows of Σ_b counter². Each row is an unbiased F2 estimator (the bucket
// hash partitions the tug-of-war sum), so this provides the F̂2 that
// Algorithm 2's pruning window needs without a separate AMS structure.
// DESIGN.md records this substitution; the standalone AMS sketch remains
// available and is validated against this estimator in the tests.
func (cs *CountSketch) EstimateF2() float64 {
	ests := make([]float64, cs.rows)
	for j := 0; j < cs.rows; j++ {
		var sum float64
		for _, c := range cs.counts[j] {
			fc := float64(c)
			sum += fc * fc
		}
		ests[j] = sum
	}
	return util.MedianFloat64(ests)
}

// EstimateMean returns the mean-over-rows point query, the ablation
// comparison to the median combiner (DESIGN.md choice 2). The mean is
// unbiased but has heavier tails.
func (cs *CountSketch) EstimateMean(item uint64) float64 {
	xp := item % xhash.MersennePrime61
	var sum float64
	for j := 0; j < cs.rows; j++ {
		h, s := cs.rowBucketSign(j, xp)
		sum += float64(s * cs.flat[uint64(j)*cs.buckets+h])
	}
	return sum / float64(cs.rows)
}

// Candidate is an item together with its estimated frequency.
type Candidate struct {
	Item uint64
	Est  int64
}

// TopK returns the current top-k tracked candidates in decreasing |Est|
// order, re-estimating each item against the final sketch state. It panics
// if the sketch was not built with NewCountSketchTopK.
func (cs *CountSketch) TopK() []Candidate {
	if cs.topK == nil {
		panic("sketch: TopK called on a CountSketch without a tracker")
	}
	items := cs.topK.items()
	out := make([]Candidate, 0, len(items))
	for _, it := range items {
		out = append(out, Candidate{Item: it, Est: cs.Estimate(it)})
	}
	sort.Slice(out, func(i, j int) bool {
		return util.AbsInt64(out[i].Est) > util.AbsInt64(out[j].Est)
	})
	return out
}

// HeavyCandidates scans an explicit domain slice and returns the k items
// with the largest estimated |frequency|. It is the offline extraction used
// when the candidate domain is known (e.g., the recursive sketch's sampled
// sub-universe).
func (cs *CountSketch) HeavyCandidates(domain []uint64, k int) []Candidate {
	out := make([]Candidate, 0, len(domain))
	for _, it := range domain {
		out = append(out, Candidate{Item: it, Est: cs.Estimate(it)})
	}
	sort.Slice(out, func(i, j int) bool {
		return util.AbsInt64(out[i].Est) > util.AbsInt64(out[j].Est)
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Merge adds the counters of other into cs. Both sketches must have been
// created with identical dimensions and the same seed stream (linearity of
// the sketch); Merge returns an error otherwise. Merging sketches with
// different hash functions would silently produce garbage, so dimensions
// are checked and callers are responsible for seed discipline.
func (cs *CountSketch) Merge(other *CountSketch) error {
	if cs.rows != other.rows || cs.buckets != other.buckets {
		return fmt.Errorf("sketch: merge dimension mismatch (%dx%d vs %dx%d)",
			cs.rows, cs.buckets, other.rows, other.buckets)
	}
	for i, v := range other.flat {
		cs.flat[i] += v
	}
	return nil
}

// EmptyLike returns an empty sketch with cs's hash functions: zeroed
// counters and, when cs tracks candidates, an empty tracker of the same
// capacity. The hash functions are shared with cs and only read, so the
// result fingerprints as cs does and merges with cs's peers. When reuse
// is non-nil and has cs's dimensions, its counter storage is cleared and
// reused, and reuse itself is returned; folding many same-shaped sketches
// then costs one buffer, not one per sketch. Either way the result
// behaves exactly as a freshly constructed sketch from cs's seed.
func (cs *CountSketch) EmptyLike(reuse *CountSketch) *CountSketch {
	out := reuse
	if out == nil || out.rows != cs.rows || out.buckets != cs.buckets {
		out = &CountSketch{
			flat:    make([]int64, len(cs.flat)),
			counts:  make([][]int64, cs.rows),
			scratch: make([]int64, cs.rows),
		}
		b := cs.buckets
		for j := range out.counts {
			out.counts[j] = out.flat[uint64(j)*b : uint64(j+1)*b : uint64(j+1)*b]
		}
	} else {
		clear(out.flat)
	}
	out.rows, out.buckets = cs.rows, cs.buckets
	out.bucket, out.sign, out.coef = cs.bucket, cs.sign, cs.coef
	switch {
	case cs.topK == nil:
		out.topK = nil
	case out.topK != nil && out.topK.k == cs.topK.k:
		out.topK.reset()
	default:
		out.topK = newTopTracker(cs.topK.k)
	}
	return out
}

// topTracker keeps the k items with the largest |estimate| offered so far.
// It is a small indexed min-heap keyed by |estimate|. Scores live inside
// the heap entries — not in a side map — so sift comparisons are array
// reads; only the item → heap-index lookup pays a map access.
type topTracker struct {
	k    int
	heap []topEntry     // min-heap on score
	pos  map[uint64]int // item -> index in heap
}

// topEntry is one tracked candidate: the item and |estimate| at last offer.
type topEntry struct {
	item  uint64
	score int64
}

func newTopTracker(k int) *topTracker {
	return &topTracker{
		k:   k,
		pos: make(map[uint64]int, k+1),
	}
}

// reset empties the tracker, keeping its storage.
func (t *topTracker) reset() {
	t.heap = t.heap[:0]
	clear(t.pos)
}

func (t *topTracker) offer(item uint64, est int64) {
	a := util.AbsInt64(est)
	if idx, ok := t.pos[item]; ok {
		t.heap[idx].score = a
		t.fix(idx)
		return
	}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, topEntry{item: item, score: a})
		t.pos[item] = len(t.heap) - 1
		t.up(len(t.heap) - 1)
		return
	}
	if a <= t.heap[0].score {
		return
	}
	delete(t.pos, t.heap[0].item)
	t.heap[0] = topEntry{item: item, score: a}
	t.pos[item] = 0
	t.down(0)
}

func (t *topTracker) items() []uint64 {
	out := make([]uint64, len(t.heap))
	for i, e := range t.heap {
		out[i] = e.item
	}
	return out
}

func (t *topTracker) less(i, j int) bool {
	return t.heap[i].score < t.heap[j].score
}

func (t *topTracker) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.pos[t.heap[i].item] = i
	t.pos[t.heap[j].item] = j
}

func (t *topTracker) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(i, p) {
			break
		}
		t.swap(i, p)
		i = p
	}
}

func (t *topTracker) down(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && t.less(l, m) {
			m = l
		}
		if r < n && t.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		t.swap(i, m)
		i = m
	}
}

func (t *topTracker) fix(i int) {
	t.up(i)
	t.down(i)
}
