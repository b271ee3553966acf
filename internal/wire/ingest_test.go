package wire

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/stream"
)

const testFP = 0x1234deadbeef5678

func testBatch() []stream.Update {
	return []stream.Update{
		{Item: 0, Delta: 1},
		{Item: 41, Delta: -3},
		{Item: 1<<63 - 1, Delta: 1 << 40},
		{Item: ^uint64(0), Delta: -(1 << 62)},
	}
}

func TestIngestFrameRoundTrip(t *testing.T) {
	batch := testBatch()
	payload := AppendIngestFrame(testFP, 7, batch)
	seq, got, err := UnmarshalIngestFrame(payload, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 {
		t.Fatalf("seq = %d, want 7", seq)
	}
	if len(got) != len(batch) {
		t.Fatalf("got %d updates, want %d", len(got), len(batch))
	}
	for i := range batch {
		if got[i] != batch[i] {
			t.Fatalf("update %d: got %+v, want %+v", i, got[i], batch[i])
		}
	}
}

// TestAppendIngestFrameAllocatesOnce: encoding a full-size frame costs
// exactly its payload buffer, sized up front to 26 + 16n bytes.
func TestAppendIngestFrameAllocatesOnce(t *testing.T) {
	batch := make([]stream.Update, 4096)
	for i := range batch {
		batch[i] = stream.Update{Item: uint64(i) * 0x9e3779b97f4a7c15, Delta: int64(i%7) - 3}
	}
	var payload []byte
	allocs := testing.AllocsPerRun(20, func() {
		payload = AppendIngestFrame(testFP, 9, batch)
	})
	if allocs > 1 {
		t.Errorf("AppendIngestFrame of %d updates: %v allocations, want at most 1", len(batch), allocs)
	}
	if want := 26 + 16*len(batch); len(payload) != want || cap(payload) != want {
		t.Errorf("payload len %d cap %d, want both %d", len(payload), cap(payload), want)
	}
}

func TestIngestFrameEmptyBatch(t *testing.T) {
	payload := AppendIngestFrame(testFP, 1, nil)
	seq, got, err := UnmarshalIngestFrame(payload, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || len(got) != 0 {
		t.Fatalf("seq=%d len=%d, want 1, 0", seq, len(got))
	}
}

func TestIngestFrameRejectsFingerprintDrift(t *testing.T) {
	payload := AppendIngestFrame(testFP, 1, testBatch())
	if _, _, err := UnmarshalIngestFrame(payload, testFP+1); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("want fingerprint error, got %v", err)
	}
}

func TestIngestFrameRejectsTruncationAndTrailing(t *testing.T) {
	payload := AppendIngestFrame(testFP, 1, testBatch())
	for cut := 0; cut < len(payload); cut++ {
		if _, _, err := UnmarshalIngestFrame(payload[:cut], testFP); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := UnmarshalIngestFrame(append(append([]byte{}, payload...), 0xff), testFP); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-bytes error, got %v", err)
	}
}

func TestIngestFrameRejectsHostileCount(t *testing.T) {
	// A frame claiming 2^32-1 updates with almost no bytes behind it must
	// fail before allocating.
	payload := AppendIngestFrame(testFP, 1, testBatch())
	// The count sits right after header (14 bytes) + seq (8 bytes).
	corrupt := append([]byte{}, payload...)
	for i := 22; i < 26; i++ {
		corrupt[i] = 0xff
	}
	if _, _, err := UnmarshalIngestFrame(corrupt, testFP); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncated error, got %v", err)
	}
}

func TestIngestAckRoundTrip(t *testing.T) {
	for _, ack := range []IngestAck{
		{Seq: 3, Total: 9000, Status: IngestAckOK},
		{Seq: 4, Total: 9000, Status: IngestAckError, Msg: "item 9 outside domain"},
		{Seq: 4, Total: 9000, Status: IngestAckDraining, Msg: "daemon draining"},
	} {
		payload := AppendIngestAck(testFP, ack)
		got, err := UnmarshalIngestAck(payload, testFP)
		if err != nil {
			t.Fatal(err)
		}
		if got != ack {
			t.Fatalf("got %+v, want %+v", got, ack)
		}
	}
}

func TestIngestAckRejectsDriftAndTruncation(t *testing.T) {
	payload := AppendIngestAck(testFP, IngestAck{Seq: 1, Status: IngestAckOK})
	if _, err := UnmarshalIngestAck(payload, testFP^1); err == nil {
		t.Fatal("fingerprint drift accepted")
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, err := UnmarshalIngestAck(payload[:cut], testFP); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestFrameReadWriteRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	p1 := AppendIngestFrame(testFP, 1, testBatch())
	p2 := AppendIngestFrame(testFP, 2, nil)
	if err := WriteFrame(&buf, p1); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, p2); err != nil {
		t.Fatal(err)
	}
	got1, err := ReadFrame(&buf, MaxIngestFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ReadFrame(&buf, MaxIngestFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, p1) || !bytes.Equal(got2, p2) {
		t.Fatal("frame payloads did not round-trip")
	}
	// A clean end-of-stream between frames is io.EOF, not a corruption
	// error.
	if _, err := ReadFrame(&buf, MaxIngestFrameBytes); err != io.EOF {
		t.Fatalf("want io.EOF at clean end, got %v", err)
	}
}

func TestReadFrameRejectsOversizeBeforeAllocating(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB claim, no payload
	if _, err := ReadFrame(&buf, MaxIngestFrameBytes); err == nil ||
		!strings.Contains(err.Error(), "cap") {
		t.Fatalf("want cap error, got %v", err)
	}
}

func TestReadFrameTruncatedMidPayload(t *testing.T) {
	var buf bytes.Buffer
	payload := AppendIngestFrame(testFP, 1, testBatch())
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(trunc), MaxIngestFrameBytes); err != io.ErrUnexpectedEOF {
		t.Fatalf("want io.ErrUnexpectedEOF, got %v", err)
	}
	// Truncation inside the length prefix itself is also unexpected.
	if _, err := ReadFrame(bytes.NewReader(trunc[:2]), MaxIngestFrameBytes); err != io.ErrUnexpectedEOF {
		t.Fatalf("want io.ErrUnexpectedEOF in prefix, got %v", err)
	}
}

// FuzzIngestFrameUnmarshal asserts the frame decoder never panics and
// never over-allocates: truncated, corrupted, wrong-magic, and
// hostile-count payloads must all return errors (or succeed harmlessly).
func FuzzIngestFrameUnmarshal(f *testing.F) {
	valid := AppendIngestFrame(testFP, 3, testBatch())
	f.Add(valid)
	for _, cut := range []int{0, 4, 13, 14, 22, 26, len(valid) / 2, len(valid) - 1} {
		if cut >= 0 && cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	badMagic := append([]byte{}, valid...)
	badMagic[0] ^= 0xff
	f.Add(badMagic)
	badCount := append([]byte{}, valid...)
	badCount[22], badCount[23] = 0xff, 0xff
	f.Add(badCount)
	f.Add(AppendIngestAck(testFP, IngestAck{Seq: 1, Msg: "x"}))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, ups, _ := UnmarshalIngestFrame(data, testFP) // must not panic
		if len(ups)*16 > len(data) {
			t.Fatalf("decoded %d updates from %d bytes", len(ups), len(data))
		}
		_, _ = UnmarshalIngestAck(data, testFP) // must not panic
	})
}
