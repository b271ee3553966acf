package core

import (
	"fmt"
	"sort"

	"repro/internal/gfunc"
	"repro/internal/wire"
)

// Wire formats for the public estimators (header per internal/wire).
// Each estimator payload carries a fingerprint of its resolved Options
// (including the Seed) plus the nested sketch blobs, so a snapshot from
// a worker daemon only decodes onto a coordinator constructed with
// byte-identical configuration — the distributed analog of the
// "identical Options, including Seed" contract on Merge. UnmarshalBinary
// has merge semantics throughout: decoding a shard snapshot into a
// receiver adds the shard's counter state, and decoding several shard
// snapshots reproduces the estimator state of the union stream.

const (
	onePassEstMagic uint32 = 0x67535545 // "gSUE"
	twoPassEstMagic uint32 = 0x67535546 // "gSUF"
	universalMagic  uint32 = 0x67535555 // "gSUU"
	offsetMagic     uint32 = 0x6753554f // "gSUO"
	medianMagic     uint32 = 0x6753554d // "gSUM"
	exactMagic      uint32 = 0x67535558 // "gSUX"
)

// OptionsFingerprint digests every Options field into a 64-bit value
// with the wire package's fold. It is the options half of the estimator
// wire fingerprints below, and the backend registry folds it into the
// Spec fingerprint two daemons exchange before shipping snapshots.
func OptionsFingerprint(o Options) uint64 { return optionsFingerprint(o) }

// optionsFingerprint digests the resolved Options fields that govern
// sketch shape and hash functions.
func optionsFingerprint(o Options) uint64 {
	h := wire.Fingerprint(0, o.N)
	h = wire.Fingerprint(h, uint64(o.M))
	h = wire.FingerprintFloat(h, o.Eps)
	h = wire.FingerprintFloat(h, o.Delta)
	h = wire.FingerprintFloat(h, o.Lambda)
	h = wire.Fingerprint(h, uint64(o.Levels))
	h = wire.FingerprintFloat(h, o.WidthFactor)
	h = wire.Fingerprint(h, o.Seed)
	return wire.FingerprintFloat(h, o.Envelope)
}

func estimatorFingerprint(g gfunc.Func, o Options) uint64 {
	return wire.FingerprintString(optionsFingerprint(o), g.Name())
}

// Fingerprint digests the estimator's function and resolved Options.
func (e *OnePassEstimator) Fingerprint() uint64 {
	return estimatorFingerprint(e.g, e.opts)
}

// MarshalBinary serializes the one-pass estimator state: the recursive
// sketch with every level's Algorithm 2 state.
func (e *OnePassEstimator) MarshalBinary() ([]byte, error) {
	blob, err := e.sk.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return e.frame(blob), nil
}

// frame wraps a recursive sketch blob in the estimator's header.
func (e *OnePassEstimator) frame(skBlob []byte) []byte {
	var w wire.Writer
	w.Header(onePassEstMagic, e.Fingerprint())
	w.Blob(skBlob)
	return w.Bytes()
}

// UnmarshalBinary adds a serialized shard estimator into e (merge
// semantics). The receiver must have been built with identical g and
// Options, including Seed; the fingerprint verifies this on decode.
func (e *OnePassEstimator) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(onePassEstMagic, e.Fingerprint()); err != nil {
		return fmt.Errorf("core: OnePassEstimator: %w", err)
	}
	blob := r.Blob()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: OnePassEstimator: %w", err)
	}
	return e.sk.UnmarshalBinary(blob)
}

// Fingerprint digests the estimator's function and resolved Options.
func (e *TwoPassEstimator) Fingerprint() uint64 {
	return estimatorFingerprint(e.g, e.opts)
}

// MarshalBinary serializes the two-pass estimator state (see
// recursive.TwoPass.MarshalBinary).
func (e *TwoPassEstimator) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Header(twoPassEstMagic, e.Fingerprint())
	blob, err := e.sk.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Blob(blob)
	return w.Bytes(), nil
}

// UnmarshalBinary adds a serialized shard estimator into e (merge
// semantics; candidate sets follow heavy.TwoPass.UnmarshalBinary rules).
func (e *TwoPassEstimator) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(twoPassEstMagic, e.Fingerprint()); err != nil {
		return fmt.Errorf("core: TwoPassEstimator: %w", err)
	}
	blob := r.Blob()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: TwoPassEstimator: %w", err)
	}
	return e.sk.UnmarshalBinary(blob)
}

// MarshalCandidates serializes the coordinator's per-level candidate
// sets after FinishPass1 (the distribution half of the distributed
// two-pass protocol).
func (e *TwoPassEstimator) MarshalCandidates() ([]byte, error) {
	return e.sk.MarshalCandidates()
}

// UnmarshalCandidates adopts a coordinator's candidate sets before the
// tabulation pass.
func (e *TwoPassEstimator) UnmarshalCandidates(data []byte) error {
	return e.sk.UnmarshalCandidates(data)
}

// Fingerprint digests the universal sketch's resolved Options and the
// subsampling hashes.
func (u *Universal) Fingerprint() uint64 {
	h := optionsFingerprint(u.opts)
	h = wire.Fingerprint(h, uint64(len(u.levels)))
	for _, b := range u.sub {
		h = b.Fingerprint(h)
	}
	return h
}

// MarshalBinary serializes every level's Algorithm 2 state.
func (u *Universal) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Header(universalMagic, u.Fingerprint())
	w.U32(uint32(len(u.levels)))
	for k, lv := range u.levels {
		blob, err := lv.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("core: Universal level %d: %w", k, err)
		}
		w.Blob(blob)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary adds a serialized shard sketch into u, level by level
// (merge semantics) — the distributed mode of the Section 1.1.1
// function-independent sketch: workers ship snapshots, the coordinator
// folds them, and EstimateFor answers post-hoc g-SUM queries over the
// union stream.
func (u *Universal) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(universalMagic, u.Fingerprint()); err != nil {
		return fmt.Errorf("core: Universal: %w", err)
	}
	blobs, err := r.Blobs(len(u.levels))
	if err != nil {
		return fmt.Errorf("core: Universal: %w", err)
	}
	for k := range u.levels {
		if err := u.levels[k].UnmarshalBinary(blobs[k]); err != nil {
			return fmt.Errorf("core: Universal level %d: %w", k, err)
		}
	}
	return nil
}

// Fingerprint digests the offset estimator's configuration via its two
// sub-estimators.
func (e *OffsetEstimator) Fingerprint() uint64 {
	h := wire.Fingerprint(0, e.n)
	h = wire.FingerprintFloat(h, e.scale)
	h = wire.Fingerprint(h, e.pos.Fingerprint())
	return wire.Fingerprint(h, e.l0.Fingerprint())
}

// MarshalBinary serializes the Appendix A estimator: the restriction
// sub-estimator and the F0 (L0 indicator) sub-estimator.
func (e *OffsetEstimator) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Header(offsetMagic, e.Fingerprint())
	pos, err := e.pos.MarshalBinary()
	if err != nil {
		return nil, err
	}
	l0, err := e.l0.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Blob(pos)
	w.Blob(l0)
	return w.Bytes(), nil
}

// UnmarshalBinary adds a serialized shard estimator into e (merge
// semantics on both sub-estimators).
func (e *OffsetEstimator) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(offsetMagic, e.Fingerprint()); err != nil {
		return fmt.Errorf("core: OffsetEstimator: %w", err)
	}
	pos := r.Blob()
	l0 := r.Blob()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: OffsetEstimator: %w", err)
	}
	if err := e.pos.UnmarshalBinary(pos); err != nil {
		return err
	}
	return e.l0.UnmarshalBinary(l0)
}

// Fingerprint digests the exact baseline's configuration: only the
// function identity matters (the frequency map is shape-free).
func (e *ExactEstimator) Fingerprint() uint64 {
	return wire.FingerprintString(0, e.g.Name())
}

// MarshalBinary serializes the exact baseline: the sparse frequency
// vector in ascending item order (a canonical encoding, so identical
// states marshal to identical bytes).
func (e *ExactEstimator) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Header(exactMagic, e.Fingerprint())
	items := make([]uint64, 0, len(e.freq))
	for it := range e.freq {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	w.U32(uint32(len(items)))
	for _, it := range items {
		w.U64(it)
		w.I64(e.freq[it])
	}
	return w.Bytes(), nil
}

// UnmarshalBinary adds a serialized shard's frequencies into e (merge
// semantics, like every estimator in this file): frequencies add, and
// entries that cancel to zero are dropped. The whole payload is decoded
// before the receiver is mutated.
func (e *ExactEstimator) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(exactMagic, e.Fingerprint()); err != nil {
		return fmt.Errorf("core: ExactEstimator: %w", err)
	}
	n := int(r.U32())
	if uint64(n)*16 > uint64(r.Len()) {
		return fmt.Errorf("core: ExactEstimator: truncated payload: %d entries, %d bytes remain", n, r.Len())
	}
	items := make([]uint64, 0, n)
	freqs := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, r.U64())
		freqs = append(freqs, r.I64())
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: ExactEstimator: %w", err)
	}
	for i, it := range items {
		e.Update(it, freqs[i])
	}
	return nil
}

// Fingerprint digests the copy count and each copy's configuration.
func (m *MedianOnePass) Fingerprint() uint64 {
	h := wire.Fingerprint(0, uint64(len(m.runs)))
	for _, run := range m.runs {
		h = wire.Fingerprint(h, run.Fingerprint())
	}
	return h
}

// MarshalBinary serializes every independent copy.
func (m *MedianOnePass) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Header(medianMagic, m.Fingerprint())
	w.U32(uint32(len(m.runs)))
	for i, run := range m.runs {
		blob, err := run.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("core: MedianOnePass copy %d: %w", i, err)
		}
		w.Blob(blob)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary adds a serialized shard into every copy (merge
// semantics): the median of merged copies is the amplified estimate of
// the union stream.
func (m *MedianOnePass) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if err := r.Header(medianMagic, m.Fingerprint()); err != nil {
		return fmt.Errorf("core: MedianOnePass: %w", err)
	}
	blobs, err := r.Blobs(len(m.runs))
	if err != nil {
		return fmt.Errorf("core: MedianOnePass: %w", err)
	}
	for i := range m.runs {
		if err := m.runs[i].UnmarshalBinary(blobs[i]); err != nil {
			return fmt.Errorf("core: MedianOnePass copy %d: %w", i, err)
		}
	}
	return nil
}
