package sketch

import (
	"testing"

	"repro/internal/util"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	u := testVector(31, 200, 500)
	src := NewCountSketch(5, 512, util.NewSplitMix64(77))
	feed(src, u)
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	dst := NewCountSketch(5, 512, util.NewSplitMix64(77)) // same seed: same hashes
	if err := dst.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for it := range u {
		if src.Estimate(it) != dst.Estimate(it) {
			t.Fatalf("estimate mismatch for %d after round trip", it)
		}
	}
}

func TestUnmarshalAddsLikeMerge(t *testing.T) {
	u := testVector(33, 150, 100)
	w := testVector(34, 150, 100)
	a := NewCountSketch(5, 512, util.NewSplitMix64(9))
	b := NewCountSketch(5, 512, util.NewSplitMix64(9))
	both := NewCountSketch(5, 512, util.NewSplitMix64(9))
	feed(a, u)
	feed(b, w)
	feed(both, u)
	feed(both, w)

	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for it := range u {
		if a.Estimate(it) != both.Estimate(it) {
			t.Fatalf("unmarshal-merge mismatch for item %d", it)
		}
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	cs := NewCountSketch(5, 512, util.NewSplitMix64(1))
	if err := cs.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Error("expected error on truncated input")
	}
	other := NewCountSketch(5, 256, util.NewSplitMix64(1))
	data, err := other.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.UnmarshalBinary(data); err == nil {
		t.Error("expected dimension mismatch error")
	}
	// Corrupt the magic.
	data[0] ^= 0xff
	if err := other.UnmarshalBinary(data); err == nil {
		t.Error("expected magic mismatch error")
	}
}

func TestMarshalCarriesTrackedCandidates(t *testing.T) {
	src := NewCountSketchTopK(5, 1024, 8, util.NewSplitMix64(3))
	src.Update(12345, 100000)
	src.Update(777, 50000)
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dst := NewCountSketchTopK(5, 1024, 8, util.NewSplitMix64(3))
	if err := dst.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	found := map[uint64]bool{}
	for _, c := range dst.TopK() {
		found[c.Item] = true
	}
	if !found[12345] || !found[777] {
		t.Errorf("tracked candidates lost in serialization: %v", found)
	}
}

func TestUnmarshalTrackerMatchesMergeTopK(t *testing.T) {
	// The wire path must admit exactly the candidates the in-process
	// merge admits: both re-offer the shard's items AND re-score the
	// receiver's own survivors against the merged counters.
	mk := func() *CountSketch { return NewCountSketchTopK(5, 1024, 4, util.NewSplitMix64(11)) }
	feedA := func(cs *CountSketch) {
		for i := uint64(0); i < 8; i++ {
			cs.Update(i, int64(1000*(i+1)))
		}
	}
	feedB := func(cs *CountSketch) {
		// Items whose union estimates shuffle the top-4 ordering.
		for i := uint64(4); i < 12; i++ {
			cs.Update(i, int64(900*(13-i)))
		}
	}

	viaMerge, shardB := mk(), mk()
	feedA(viaMerge)
	feedB(shardB)
	if err := viaMerge.MergeTopK(shardB); err != nil {
		t.Fatal(err)
	}

	viaWire := mk()
	feedA(viaWire)
	data, err := shardB.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := viaWire.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}

	a, b := viaMerge.TopK(), viaWire.TopK()
	if len(a) != len(b) {
		t.Fatalf("tracker sizes differ: merge %d vs wire %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("candidate %d: merge %+v vs wire %+v", i, a[i], b[i])
		}
	}
}

func TestMergeTopKUnionCandidates(t *testing.T) {
	a := NewCountSketchTopK(5, 1024, 8, util.NewSplitMix64(7))
	b := NewCountSketchTopK(5, 1024, 8, util.NewSplitMix64(7))
	a.Update(1, 90000)
	b.Update(2, 80000)
	// An item split across shards, heavy only in the union:
	a.Update(3, 45000)
	b.Update(3, 45000)
	if err := a.MergeTopK(b); err != nil {
		t.Fatal(err)
	}
	found := map[uint64]int64{}
	for _, c := range a.TopK() {
		found[c.Item] = c.Est
	}
	if found[1] == 0 || found[2] == 0 {
		t.Errorf("shard-local heavy items lost: %v", found)
	}
	if found[3] < 85000 {
		t.Errorf("union-heavy item has estimate %d, want ~90000", found[3])
	}
}

// TestEmptyLikeActsFresh: an EmptyLike sketch, new or reusing a dirty
// buffer, merges a peer into exactly the state a freshly constructed
// sketch from the same seed reaches, tracker included.
func TestEmptyLikeActsFresh(t *testing.T) {
	mk := func() *CountSketch { return NewCountSketchTopK(5, 1024, 4, util.NewSplitMix64(11)) }
	peer := mk()
	for i := uint64(0); i < 12; i++ {
		peer.Update(i, int64(100*(i+1)))
	}
	fresh := mk()
	if err := fresh.MergeTopK(peer); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dirty := NewCountSketchTopK(5, 1024, 4, util.NewSplitMix64(99))
	for i := uint64(50); i < 60; i++ {
		dirty.Update(i, 7)
	}
	for _, reuse := range []*CountSketch{nil, dirty} {
		e := peer.EmptyLike(reuse)
		if e.Fingerprint() != peer.Fingerprint() {
			t.Fatal("EmptyLike changed the fingerprint")
		}
		if err := e.MergeTopK(peer); err != nil {
			t.Fatal(err)
		}
		got, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("reuse=%v: EmptyLike+MergeTopK differs from a fresh sketch", reuse != nil)
		}
	}
}
