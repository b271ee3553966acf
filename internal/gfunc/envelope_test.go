package gfunc

import (
	"fmt"
	"math"
	"testing"
)

// measureEnvelopeRef is the untabulated envelope scan: it evaluates
// LogEval(g, x) and ln⌊y/x⌋ afresh for every grid pair. MeasureEnvelope
// must agree with it bit for bit, since H(M) sizes every sketch and feeds
// every Spec fingerprint.
func measureEnvelopeRef(g Func, m uint64) Envelope {
	grid := Grid(m, 1024)
	var (
		prefixMaxLog = math.Inf(-1) // running max of ln g(x), x < y
		prefixMinLog = math.Inf(1)  // running min of ln g(x), x < y
		drop         = 0.0          // max ln(g(x)/g(y))
		jump         = 0.0          // max ln(g(y)/(⌊y/x⌋² g(x)))
	)
	// Drop needs only the prefix max. Jump needs a scan over x because of
	// the ⌊y/x⌋² factor.
	for i, y := range grid {
		ly := LogEval(g, y)
		if i > 0 {
			if d := prefixMaxLog - ly; d > drop {
				drop = d
			}
			for _, x := range grid[:i] {
				j := ly - LogEval(g, x) - 2*math.Log(float64(y/x))
				if j > jump {
					jump = j
				}
			}
		}
		if ly > prefixMaxLog {
			prefixMaxLog = ly
		}
		if ly < prefixMinLog {
			prefixMinLog = ly
		}
	}
	return Envelope{Drop: math.Exp(drop), Jump: math.Exp(jump)}
}

// TestMeasureEnvelopeMatchesReference pins the tabulated scan to the
// reference for every catalog function, bit for bit. The scales above
// 1024 run the geometric grid, whose ratios ⌊y/x⌋ outgrow the ln q table
// and take the math.Log fallback.
func TestMeasureEnvelopeMatchesReference(t *testing.T) {
	scales := []uint64{0, 1, 2, 3, 4, 5, 17, 100, 1023, 1024, 1025, 3000, 1 << 16, 1 << 20}
	for _, m := range []uint64{1 << 16, 1 << 20} {
		if grid := Grid(m, 1024); grid[len(grid)-1]/grid[0] <= uint64(len(grid)) {
			t.Fatalf("m=%d: no grid ratio exceeds the ln q table; the math.Log fallback goes untested", m)
		}
	}
	for _, e := range Catalog() {
		g := e.Func
		for _, m := range scales {
			t.Run(fmt.Sprintf("%s/m=%d", g.Name(), m), func(t *testing.T) {
				got, want := MeasureEnvelope(g, m), measureEnvelopeRef(g, m)
				if math.Float64bits(got.Drop) != math.Float64bits(want.Drop) {
					t.Errorf("Drop = %v (%#x), reference %v (%#x)",
						got.Drop, math.Float64bits(got.Drop), want.Drop, math.Float64bits(want.Drop))
				}
				if math.Float64bits(got.Jump) != math.Float64bits(want.Jump) {
					t.Errorf("Jump = %v (%#x), reference %v (%#x)",
						got.Jump, math.Float64bits(got.Jump), want.Jump, math.Float64bits(want.Jump))
				}
			})
		}
	}
}
