package universal

// BenchmarkLayer is the per-layer family of the performance ledger: each
// sub-benchmark times one layer of the system in isolation, under a name
// that stays stable across changes so its trajectory can be followed.

import (
	"testing"

	"repro/internal/gfunc"
)

// envelopeSink keeps the measured call from being optimized away.
var envelopeSink gfunc.Envelope

// BenchmarkLayer/envelope is envelope measurement at M = 2^10, the
// construction cost every Spec normalization pays once, for each g the
// repository benchmark (perfbench) opens.
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
}
