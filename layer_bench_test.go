package universal

// BenchmarkLayer is the per-layer family of the performance ledger: each
// sub-benchmark times one layer of the system in isolation, under a name
// that stays stable across changes so its trajectory can be followed.

import (
	"sync"
	"testing"

	"repro/internal/gfunc"
	"repro/internal/workload"
)

// Sinks keep the measured calls from being optimized away.
var (
	envelopeSink gfunc.Envelope
	estimateSink float64
	snapshotSink []byte
)

// layerSharded is the estimator the sharded read rows time: built and
// filled once per process, on first use, so rows that do not read it
// pay nothing.
var layerSharded struct {
	once sync.Once
	est  Estimator
	err  error
}

// prefilledSharded returns a 2-shard sharded estimator at the repository
// benchmark's (perfbench's) sizes — N = 2^20, M = 2^10, ε = 0.25,
// λ = 1/16, g = (2+sin log(1+x))x^2 — after 2^20 Zipf(1.1) updates over
// 50,000 items: the state every sharded-zipf read folds.
func prefilledSharded(b *testing.B) Estimator {
	b.Helper()
	layerSharded.once.Do(func() {
		est, err := Open(Spec{Kind: KindSharded, G: "(2+sin log(1+x))x^2", Workers: 2,
			Options: Options{N: 1 << 20, M: 1 << 10, Eps: 0.25, Lambda: 1.0 / 16, Seed: 1}})
		if err == nil {
			s := workload.Zipf{Alpha: 1.1}.Generate(workload.Config{N: 1 << 20, Items: 50000, Length: 1 << 20, Seed: 1})
			err = Process(est, s)
		}
		layerSharded.est, layerSharded.err = est, err
	})
	if layerSharded.err != nil {
		b.Fatal(layerSharded.err)
	}
	return layerSharded.est
}

// BenchmarkLayer/envelope is envelope measurement at M = 2^10, the
// construction cost every Spec normalization pays once, for each g the
// repository benchmark (perfbench) opens. BenchmarkLayer/estimate/sharded
// and BenchmarkLayer/marshal/sharded are one Estimate and one
// MarshalBinary of prefilledSharded's estimator: the per-level shard
// fold with its cover combine or level framing.
func BenchmarkLayer(b *testing.B) {
	b.Run("envelope", func(b *testing.B) {
		for _, c := range []struct {
			name string
			g    gfunc.Func
		}{
			{"x2", gfunc.F2Func()},       // x^2: serial-uniform
			{"sinlog", gfunc.SinLogX2()}, // (2+sin log(1+x))x^2: sharded-zipf
			{"x2lg", gfunc.X2Log()},      // x^2 lg(1+x): cluster-stream
		} {
			b.Run(c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					envelopeSink = gfunc.MeasureEnvelope(c.g, 1<<10)
				}
			})
		}
	})
	b.Run("estimate/sharded", func(b *testing.B) {
		est := prefilledSharded(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			estimateSink = est.Estimate()
		}
	})
	b.Run("marshal/sharded", func(b *testing.B) {
		est := prefilledSharded(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blob, err := est.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			snapshotSink = blob
		}
	})
}
