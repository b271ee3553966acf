package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.round", Start: 0, End: 100},
		// Two overlapping children (30..60 and 50..80 cover 30..80) and
		// one that runs past its parent's end (90..120 clips to 90..100).
		{ID: 2, Parent: 1, Name: "daemon.Pusher.Push", Start: 30, End: 60},
		{ID: 3, Parent: 1, Name: "daemon.Membership.PullAll", Start: 50, End: 80},
		{ID: 4, Parent: 1, Name: "core.Estimate", Start: 90, End: 120},
		// A grandchild inside span 2.
		{ID: 5, Parent: 2, Name: "core.UpdateBatch", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	shares, err := selfShares(spans, traceModules)
	if err != nil {
		t.Fatal(err)
	}
	total := 40.0 + 20 + 30 + 30 + 10
	for m, w := range map[string]float64{"bench": 40 / total, "daemon": 50 / total, "core": 40 / total, "hotpath": 0, "backend": 0} {
		if math.Abs(shares[m]-w) > 1e-12 {
			t.Errorf("share %s = %v, want %v", m, shares[m], w)
		}
	}
}

func TestSelfSharesRejectsUnknownModule(t *testing.T) {
	if _, err := selfShares([]span{{ID: 1, Name: "mystery.Call", End: 1}}, traceModules); err == nil {
		t.Error("a span outside the module list was accepted")
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("bench.round", 0, 7)
	tr.end(tr.begin("core.UpdateBatch", root, 7))
	tr.begin("core.Estimate", root, 7) // never closed: not reported
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d closed spans, want 2", len(spans))
	}
	if spans[1].Parent != root || spans[1].Op != 7 || spans[1].module() != "core" {
		t.Errorf("child span = %+v", spans[1])
	}
	var off *tracer
	if id := off.begin("core.Estimate", 0, 1); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	off.end(0)
}
