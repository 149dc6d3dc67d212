package binfmt

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

const (
	testVersion = 3
	testKind    = 7
)

// testFrame encodes one field of every width, both string forms and a
// counted list of u16s.
func testFrame(t *testing.T) []byte {
	t.Helper()
	buf := NewFrame(testVersion, testKind, 64)
	buf = append(buf, 0xab)
	buf = binary.LittleEndian.AppendUint16(buf, 0xbeef)
	buf = binary.LittleEndian.AppendUint32(buf, 0xdeadbeef)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(-0.0))
	var err error
	if buf, err = AppendStr8(buf, "mac"); err != nil {
		t.Fatal(err)
	}
	if buf, err = AppendStr16(buf, "contributor"); err != nil {
		t.Fatal(err)
	}
	buf = binary.LittleEndian.AppendUint32(buf, 2)
	buf = binary.LittleEndian.AppendUint16(buf, 1)
	buf = binary.LittleEndian.AppendUint16(buf, 2)
	return FinishFrame(buf)
}

// decodeTestFrame is testFrame's decoder.
func decodeTestFrame(data []byte) error {
	_, r, err := Header(data, testVersion, testKind)
	if err != nil {
		return err
	}
	r.U8()
	r.U16()
	r.U32()
	r.F64()
	r.Str8()
	r.Str16()
	for i, n := 0, r.Count(2); i < n; i++ {
		r.U16()
	}
	return r.Done()
}

func TestRoundTrip(t *testing.T) {
	frame := testFrame(t)
	kind, r, err := Header(frame, testVersion)
	if err != nil || kind != testKind {
		t.Fatalf("header: kind %d, %v", kind, err)
	}
	if v := r.U8(); v != 0xab {
		t.Fatalf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0xbeef {
		t.Fatalf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.F64(); math.Float64bits(v) != math.Float64bits(-0.0) {
		t.Fatalf("F64 = %v", v)
	}
	if s8, s16 := r.Str8(), r.Str16(); s8 != "mac" || s16 != "contributor" {
		t.Fatalf("strings = %q, %q", s8, s16)
	}
	n := r.Count(2)
	got := make([]uint16, n)
	for i := range got {
		got[i] = r.U16()
	}
	if n != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("counted list = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestEveryPrefixTruncated(t *testing.T) {
	frame := testFrame(t)
	for n := range frame {
		if err := decodeTestFrame(frame[:n]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%d-byte prefix of a %d-byte frame: %v", n, len(frame), err)
		}
	}
	// The same holds inside a payload without counts, field by field.
	payload := frame[HeaderLen : len(frame)-4-2*2]
	for n := range payload {
		r := NewReader(payload[:n])
		r.U8()
		r.U16()
		r.U32()
		r.F64()
		r.Str8()
		r.Str16()
		if err := r.Done(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%d-byte payload prefix: %v", n, err)
		}
	}
}

func TestOversized(t *testing.T) {
	frame := testFrame(t)
	if err := decodeTestFrame(append(append([]byte(nil), frame...), 0)); !errors.Is(err, ErrOversized) {
		t.Fatalf("frame with a trailing byte: %v", err)
	}

	// Payload length one short of the bytes present: the header already
	// sees a trailing byte.
	short := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(short[2:HeaderLen], uint32(len(frame)-HeaderLen-1))
	if err := decodeTestFrame(short); !errors.Is(err, ErrOversized) {
		t.Fatalf("short payload length: %v", err)
	}

	r := NewReader([]byte{1, 2, 3})
	r.U8()
	if err := r.Done(); !errors.Is(err, ErrOversized) {
		t.Fatalf("trailing payload bytes: %v", err)
	}

	// A count claiming more elements than the bytes left can hold fails
	// and reads as zero, so no allocation is sized from it.
	r = NewReader(binary.LittleEndian.AppendUint32(nil, math.MaxUint32))
	if n := r.Count(1); n != 0 || !errors.Is(r.Err(), ErrOversized) {
		t.Fatalf("2^32-1 claim: n=%d, %v", n, r.Err())
	}
	r = NewReader(append(binary.LittleEndian.AppendUint32(nil, 2), 0, 0, 0))
	if n := r.Count(2); n != 0 || !errors.Is(r.Err(), ErrOversized) {
		t.Fatalf("2 × 2 bytes in 3: n=%d, %v", n, r.Err())
	}
}

func TestHeaderChecks(t *testing.T) {
	frame := testFrame(t)
	bad := append([]byte(nil), frame...)
	bad[0] = testVersion + 1
	if err := decodeTestFrame(bad); !errors.Is(err, ErrVersion) {
		t.Fatalf("wrong version: %v", err)
	}
	bad = append([]byte(nil), frame...)
	bad[1] = testKind + 1
	if err := decodeTestFrame(bad); !errors.Is(err, ErrKind) {
		t.Fatalf("wrong kind: %v", err)
	}
	// The kind is checked before the payload length is read.
	if err := decodeTestFrame(bad[:2]); !errors.Is(err, ErrKind) {
		t.Fatalf("wrong kind, no length: %v", err)
	}
	// Without a kind list every kind passes.
	if kind, _, err := Header(bad, testVersion); err != nil || kind != testKind+1 {
		t.Fatalf("any kind: %d, %v", kind, err)
	}
}

func TestFirstErrorWins(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if v := r.U32(); v != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("U32 of 3 bytes = %d, %v", v, r.Err())
	}
	// Later reads return zero values without consuming anything, and a
	// later failure does not replace the first.
	if v := r.U8(); v != 0 || r.Len() != 3 {
		t.Fatalf("U8 after failure = %d, %d bytes left", v, r.Len())
	}
	r.Fail(ErrValue)
	if err := r.Done(); !errors.Is(err, ErrTruncated) || errors.Is(err, ErrValue) {
		t.Fatalf("Done = %v, want the truncation", err)
	}

	r = NewReader([]byte{1})
	r.Fail(nil)
	r.Fail(ErrValue)
	r.U64()
	if err := r.Done(); !errors.Is(err, ErrValue) {
		t.Fatalf("Done = %v, want the value error", err)
	}
}

func TestRangeChecks(t *testing.T) {
	if _, err := AppendStr8(nil, strings.Repeat("m", 256)); !errors.Is(err, ErrValue) {
		t.Fatalf("256-byte str8: %v", err)
	}
	if _, err := AppendStr16(nil, strings.Repeat("i", 65536)); !errors.Is(err, ErrValue) {
		t.Fatalf("65536-byte str16: %v", err)
	}
	if b, err := AppendStr8(nil, strings.Repeat("m", 255)); err != nil || len(b) != 256 {
		t.Fatalf("255-byte str8: %d bytes, %v", len(b), err)
	}
	for _, v := range []int{math.MinInt16, -1, 0, math.MaxInt16} {
		if err := CheckI16(v); err != nil {
			t.Fatalf("CheckI16(%d) = %v", v, err)
		}
	}
	for _, v := range []int{math.MinInt16 - 1, math.MaxInt16 + 1, 40000} {
		if err := CheckI16(v); !errors.Is(err, ErrValue) {
			t.Fatalf("CheckI16(%d) = %v", v, err)
		}
	}
}
