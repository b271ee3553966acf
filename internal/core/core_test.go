package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/gfunc"
	"repro/internal/stream"
	"repro/internal/util"
)

func zipfStream(seed uint64) *stream.Stream {
	return stream.Zipf(stream.GenConfig{N: 1 << 12, M: 1 << 10, Seed: seed}, 400, 1.1)
}

// TestEstimateBetweenUpdates: Estimate only reads the sketch, so a
// mid-stream read changes nothing. Ingesting A, reading, ingesting B and
// reading again gives the estimate and snapshot of a fresh estimator fed
// A then B, bit for bit.
func TestEstimateBetweenUpdates(t *testing.T) {
	for _, g := range []gfunc.Func{gfunc.F2Func(), gfunc.SinLogX2()} {
		opts := Options{N: 1 << 12, M: 1 << 10, Eps: 0.25, Seed: 3, Lambda: 1.0 / 16}
		updates := zipfStream(6).Updates()
		a, b := updates[:len(updates)/2], updates[len(updates)/2:]

		read := NewOnePass(g, opts)
		read.UpdateBatch(a)
		read.Estimate()
		read.UpdateBatch(b)
		fresh := NewOnePass(g, opts)
		fresh.UpdateBatch(a)
		fresh.UpdateBatch(b)

		if got, want := read.Estimate(), fresh.Estimate(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: estimate after a mid-stream read %v != fresh %v", g.Name(), got, want)
		}
		gotBlob, err := read.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wantBlob, err := fresh.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBlob, wantBlob) {
			t.Errorf("%s: snapshot after a mid-stream read differs from fresh", g.Name())
		}
	}
}

func TestOnePassTractableAccuracy(t *testing.T) {
	funcs := []gfunc.Func{
		gfunc.F2Func(),
		gfunc.F1Func(),
		gfunc.Power(1.5),
		gfunc.X2Log(),
		gfunc.SinLogX2(),
	}
	for _, g := range funcs {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			var worst float64
			for seed := uint64(1); seed <= 5; seed++ {
				s := zipfStream(seed)
				exact := NewExact(g)
				exact.Process(s)
				truth := exact.Estimate()

				est := NewOnePass(g, Options{
					N: s.N(), M: 1 << 10, Eps: 0.25, Seed: seed * 7,
				})
				est.Process(s)
				got := est.Estimate()
				if err := util.RelErr(got, truth); err > worst {
					worst = err
				}
			}
			if worst > 0.35 {
				t.Errorf("one-pass worst relative error %.3f > 0.35", worst)
			}
		})
	}
}

func TestTwoPassTractableAccuracy(t *testing.T) {
	funcs := []gfunc.Func{
		gfunc.F2Func(),
		gfunc.X2Log(),
		gfunc.SinSqrtX2(), // unpredictable: needs 2 passes
	}
	for _, g := range funcs {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			var worst float64
			for seed := uint64(1); seed <= 5; seed++ {
				s := zipfStream(seed)
				exact := NewExact(g)
				exact.Process(s)
				truth := exact.Estimate()

				est := NewTwoPass(g, Options{
					N: s.N(), M: 1 << 10, Eps: 0.25, Seed: seed * 13,
				})
				got := est.Run(s)
				if err := util.RelErr(got, truth); err > worst {
					worst = err
				}
			}
			if worst > 0.35 {
				t.Errorf("two-pass worst relative error %.3f > 0.35", worst)
			}
		})
	}
}

func TestUniversalSketchMultiQuery(t *testing.T) {
	s := zipfStream(3)
	// Envelope must dominate every queried function; X2Log has the
	// largest envelope in this family.
	h := gfunc.MeasureEnvelope(gfunc.X2Log(), 1<<10).H()
	u := NewUniversal(Options{N: s.N(), M: 1 << 10, Eps: 0.25, Seed: 99, Envelope: h})
	u.Process(s)

	for _, g := range []gfunc.Func{gfunc.F2Func(), gfunc.F1Func(), gfunc.X2Log()} {
		exact := NewExact(g)
		exact.Process(s)
		truth := exact.Estimate()
		got := u.EstimateFor(g)
		if err := util.RelErr(got, truth); err > 0.35 {
			t.Errorf("universal sketch for %s: relative error %.3f > 0.35 (got %.4g, want %.4g)",
				g.Name(), err, got, truth)
		}
	}
}

func TestExactEstimatorMatchesVector(t *testing.T) {
	s := zipfStream(5)
	g := gfunc.F2Func()
	e := NewExact(g)
	e.Process(s)
	want := s.Vector().Sum(g.Eval)
	if got := e.Estimate(); got != want {
		t.Errorf("exact estimator %.6g != vector sum %.6g", got, want)
	}
}

func TestMedianAmplification(t *testing.T) {
	s := zipfStream(8)
	g := gfunc.F2Func()
	exact := NewExact(g)
	exact.Process(s)
	truth := exact.Estimate()

	m := NewMedianOnePass(g, Options{N: s.N(), M: 1 << 10, Eps: 0.25, Seed: 4}, 5)
	m.Process(s)
	if err := util.RelErr(m.Estimate(), truth); err > 0.3 {
		t.Errorf("median-of-5 relative error %.3f > 0.3", err)
	}
}
