package recursive

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/gfunc"
	"repro/internal/heavy"
	"repro/internal/stream"
	"repro/internal/util"
)

// seeded builds a one-pass recursive sketch; equal seeds give identical
// hash functions at every level.
func seeded(seed uint64) *Sketch {
	rng := util.NewSplitMix64(seed)
	return New(Config{N: 1 << 12, MakeSketcher: makeOnePassFactory(gfunc.F2Func(), 2, rng.Fork())}, rng.Fork())
}

// TestFoldMatchesMerge: at any GOMAXPROCS, FoldEstimate and FoldMarshal
// equal Estimate and MarshalBinary of a fresh sketch every part was
// merged into, in order.
func TestFoldMatchesMerge(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	parts := []*Sketch{seeded(4), seeded(4), seeded(4)}
	s := stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: 8}, 2000, 1.1)
	s.Each(func(u stream.Update) { parts[u.Item%3].Update(u.Item, u.Delta) })
	ref := seeded(4)
	for _, p := range parts {
		if err := ref.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		est, err := FoldEstimate(parts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(est) != math.Float64bits(ref.Estimate()) {
			t.Errorf("procs=%d: FoldEstimate %v != merged Estimate %v", procs, est, ref.Estimate())
		}
		got, err := FoldMarshal(parts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("procs=%d: FoldMarshal differs from the merged MarshalBinary", procs)
		}
	}
}

// nopLevel is a level sketcher without merge support.
type nopLevel struct{}

func (nopLevel) Update(uint64, int64) {}
func (nopLevel) Cover() heavy.Cover   { return nil }
func (nopLevel) SpaceBytes() int      { return 0 }

// TestFoldRejects: sketches from different seeds, levels that cannot
// merge, and an empty input are errors, as is a failing visitor.
func TestFoldRejects(t *testing.T) {
	a, b := seeded(1), seeded(2)
	if err := a.Merge(b); err == nil {
		t.Error("Merge accepted a fingerprint mismatch")
	}
	if _, err := FoldEstimate([]*Sketch{a, b}); err == nil {
		t.Error("FoldEstimate accepted a fingerprint mismatch")
	}
	if _, err := FoldMarshal([]*Sketch{a, b}); err == nil {
		t.Error("FoldMarshal accepted a fingerprint mismatch")
	}
	if _, err := FoldEstimate(nil); err == nil {
		t.Error("FoldEstimate of no sketches succeeded")
	}
	nop := New(Config{N: 1 << 4, MakeSketcher: func(int) heavy.Sketcher { return nopLevel{} }}, util.NewSplitMix64(1))
	if _, err := FoldEstimate([]*Sketch{nop}); err == nil {
		t.Error("FoldEstimate accepted levels without merge support")
	}
	boom := errors.New("boom")
	err := fold([]*Sketch{a, a}, func(level int, _ *heavy.OnePass) error {
		if level == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("fold returned %v, want the visitor's error", err)
	}
}
