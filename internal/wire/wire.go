package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Version is the current layout version stamped into every header.
const Version uint16 = 1

// Fingerprint folds v into a running 64-bit digest h. It is a
// splittable-mix step (multiply-xorshift), order sensitive, used to
// digest hash-function coefficients and dimensions into the header
// fingerprint. Start from 0 and fold every value that must coincide
// between sender and receiver.
func Fingerprint(h, v uint64) uint64 {
	h ^= v
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// FingerprintFloat folds a float64 into the digest by bit pattern.
func FingerprintFloat(h uint64, f float64) uint64 {
	return Fingerprint(h, math.Float64bits(f))
}

// FingerprintString folds a string (length, then bytes) into the digest.
func FingerprintString(h uint64, s string) uint64 {
	h = Fingerprint(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = Fingerprint(h, uint64(s[i]))
	}
	return h
}

// Writer accumulates a wire payload. The zero value is ready to use;
// writes cannot fail (bytes.Buffer panics only on OOM). Fields are
// appended big-endian into the buffer's spare capacity, so a write
// allocates only when the buffer must grow.
type Writer struct {
	buf bytes.Buffer
}

// Header writes the standard magic/version/fingerprint header.
func (w *Writer) Header(magic uint32, fingerprint uint64) {
	w.U32(magic)
	w.U16(Version)
	w.U64(fingerprint)
}

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) {
	w.buf.Write(binary.BigEndian.AppendUint16(w.buf.AvailableBuffer(), v))
}

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf.Write(binary.BigEndian.AppendUint32(w.buf.AvailableBuffer(), v))
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf.Write(binary.BigEndian.AppendUint64(w.buf.AvailableBuffer(), v))
}

// I64 appends a big-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 by bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// I64s appends a u32 count followed by the values.
func (w *Writer) I64s(vs []int64) {
	w.U32(uint32(len(vs)))
	w.buf.Grow(8 * len(vs))
	b := w.buf.AvailableBuffer()
	for _, v := range vs {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	w.buf.Write(b)
}

// U64s appends a u32 count followed by the values.
func (w *Writer) U64s(vs []uint64) {
	w.U32(uint32(len(vs)))
	w.buf.Grow(8 * len(vs))
	b := w.buf.AvailableBuffer()
	for _, v := range vs {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	w.buf.Write(b)
}

// Blob appends a u32 length followed by the raw bytes, framing a nested
// payload (e.g. one recursive level's sketch inside the level list).
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.buf.Write(b)
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf.Bytes() }

// Reader decodes a wire payload. It is sticky-error: after the first
// failure every read returns a zero value and Err reports the cause, so
// decoders can read a whole layout and check once.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes not yet consumed.
func (r *Reader) Len() int { return len(r.data) - r.pos }

// fail records the first error.
func (r *Reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// take consumes n bytes, or fails if fewer remain.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Len() < n {
		r.fail("wire: truncated payload: need %d bytes at offset %d, have %d", n, r.pos, r.Len())
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Header reads and validates the standard header: the magic and the
// fingerprint must match, and the version must be known.
func (r *Reader) Header(magic uint32, fingerprint uint64) error {
	m := r.U32()
	v := r.U16()
	fp := r.U64()
	if r.err != nil {
		return r.err
	}
	if m != magic {
		r.fail("wire: bad magic %#x (want %#x)", m, magic)
	} else if v != Version {
		r.fail("wire: unsupported version %d (want %d)", v, Version)
	} else if fp != fingerprint {
		r.fail("wire: fingerprint mismatch %#x vs local %#x (different seed or configuration)", fp, fingerprint)
	}
	return r.err
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 by bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// count reads a u32 count for elements of elemSize bytes, validating it
// against the remaining payload so corrupt lengths cannot force huge
// allocations. The comparison is done in uint64 so a hostile count can
// neither overflow the product nor go negative on 32-bit platforms.
func (r *Reader) count(elemSize int) int {
	v := r.U32()
	if r.err != nil {
		return 0
	}
	if uint64(v)*uint64(elemSize) > uint64(r.Len()) {
		r.fail("wire: truncated list: %d elements of %d bytes, %d bytes remain", v, elemSize, r.Len())
		return 0
	}
	return int(v)
}

// I64s reads a counted int64 list.
func (r *Reader) I64s() []int64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.I64()
	}
	return out
}

// U64s reads a counted uint64 list.
func (r *Reader) U64s() []uint64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// I64sInto reads a counted int64 list of exactly the given length into
// dst (the in-place path for counter rows of known dimensions).
func (r *Reader) I64sInto(dst []int64) {
	n := r.count(8)
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.fail("wire: list length %d, want %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = r.I64()
	}
}

// Blob reads a length-framed nested payload.
func (r *Reader) Blob() []byte {
	n := r.count(1)
	if r.err != nil {
		return nil
	}
	return r.take(n)
}

// Blobs reads a u32 count and that many length-framed blobs, verifying
// the count equals want. It validates the framing of the whole sequence
// before returning, so merge-semantics decoders can check it up front
// and only then start mutating the receiver.
func (r *Reader) Blobs(want int) ([][]byte, error) {
	n := int(r.U32())
	if r.err == nil && n != want {
		r.fail("wire: blob count mismatch %d vs %d", n, want)
	}
	blobs := make([][]byte, want)
	for k := range blobs {
		blobs[k] = r.Blob()
	}
	if r.err != nil {
		return nil, r.err
	}
	return blobs, nil
}
