package backend

import (
	"math"
	"testing"

	"repro/internal/core"
)

// TestSpecFingerprintGolden pins the fingerprints of the three Specs the
// repository benchmark opens (perfbench: serial-uniform, sharded-zipf and
// cluster-stream at seed 1; the sharded Spec with two workers). The
// fingerprint digests the normalized Spec, envelope included, and gsumd
// peers compare it at the /v1/config handshake. A drift in envelope
// measurement, option defaults or the digest would make builds of
// different versions refuse each other's snapshots; this test makes such
// a drift fail here instead of in a mixed-version fleet.
func TestSpecFingerprintGolden(t *testing.T) {
	opt := core.Options{N: 1 << 20, M: 1 << 10, Eps: 0.25, Lambda: 1.0 / 16, Seed: 1}
	cases := []struct {
		name     string
		spec     Spec
		envelope float64
		fp       uint64
	}{
		{"serial-uniform", Spec{Kind: KindOnePass, G: "x^2", Options: opt},
			3.992191314697263, 0x628c618105df48fc},
		{"sharded-zipf", Spec{Kind: KindSharded, G: "(2+sin log(1+x))x^2", Options: opt, Workers: 2},
			5.8677230889807745, 0xb9e27b709c303c3e},
		{"cluster-stream", Spec{Kind: KindOnePass, G: "x^2 lg(1+x)", Options: opt},
			10.001408194392821, 0xea545857e45fd20f},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, err := c.spec.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(n.Options.Envelope) != math.Float64bits(c.envelope) {
				t.Errorf("envelope = %v, golden %v", n.Options.Envelope, c.envelope)
			}
			if fp := c.spec.Fingerprint(); fp != c.fp {
				t.Errorf("fingerprint = %#016x, golden %#016x", fp, c.fp)
			}
		})
	}
}
