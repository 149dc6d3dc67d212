// Package binfmt owns the framing rules every binary codec in the module
// shares: fixed-width little-endian fields, exact IEEE-754 bits for floats,
// u8/u16 length-prefixed strings, u32 counts checked against the bytes
// left before anything is allocated, and the frame header
//
//	u8 version | u8 kind | u32 payloadLen | payload
//
// whose payloadLen must equal the bytes after the header exactly. The
// upload wire codec, the server's WAL payloads and the shard-RPC codec lay
// their fields out on top of it; every decode failure carries one of the
// typed errors below, so callers classify failures with errors.Is.
package binfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Typed decode and encode failures, distinguishable with errors.Is.
var (
	// ErrTruncated: the data ends before a declared field.
	ErrTruncated = errors.New("binfmt: truncated frame")
	// ErrOversized: a declared count cannot fit the bytes left, or bytes
	// remain after the last field.
	ErrOversized = errors.New("binfmt: oversized frame")
	// ErrVersion: the version byte is not the version the caller speaks.
	ErrVersion = errors.New("binfmt: unsupported frame version")
	// ErrKind: the kind byte is unknown or wrong for the context.
	ErrKind = errors.New("binfmt: unexpected frame kind")
	// ErrValue: a field holds a value the layout cannot carry or gives no
	// meaning (a string too long for its prefix, an RSSI outside int16, an
	// unknown enum byte, a non-canonical ordering).
	ErrValue = errors.New("binfmt: invalid frame value")
)

// HeaderLen is the size of the frame header.
const HeaderLen = 6

// Reader is a bounds-checked little-endian cursor with a sticky error: the
// first failure is recorded, every later read returns the zero value, and
// Err or Done reports it. Decoders read a whole layout and check once.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first failure recorded, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) - r.off }

// Fail records err unless an earlier failure is already recorded: the
// first error wins, so a value check after a truncated read cannot mask
// the truncation. Fail(nil) does nothing.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take consumes n bytes, or records ErrTruncated and returns nil.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.data)-r.off {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.data))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64 reads the exact IEEE-754 bits of a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str8 reads a u8-length-prefixed string.
func (r *Reader) Str8() string { return string(r.take(int(r.U8()))) }

// Str16 reads a u16-length-prefixed string.
func (r *Reader) Str16() string { return string(r.take(int(r.U16()))) }

// Count reads a u32 element count and checks it against the bytes left,
// given that every element takes at least minBytes (> 0). A count that
// cannot fit records ErrOversized and reads as 0, so callers may size an
// allocation from the result.
func (r *Reader) Count(minBytes int) int {
	n := r.U32()
	if int64(n)*int64(minBytes) > int64(r.Len()) {
		r.Fail(fmt.Errorf("%w: claims %d elements of >= %d bytes in %d bytes", ErrOversized, n, minBytes, r.Len()))
		return 0
	}
	return int(n)
}

// Done returns the first failure, or ErrOversized if bytes remain unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.data) {
		r.err = fmt.Errorf("%w: %d trailing bytes", ErrOversized, len(r.data)-r.off)
	}
	return r.err
}

// Header checks the frame header of data against the version the caller
// speaks and, when kinds are given, the kinds it accepts; then it checks
// payloadLen against the bytes present. It returns the kind and a Reader
// over the payload.
func Header(data []byte, version byte, kinds ...byte) (byte, *Reader, error) {
	r := NewReader(data)
	if ver := r.U8(); r.err == nil && ver != version {
		return 0, nil, fmt.Errorf("%w: got version %d, speak %d", ErrVersion, ver, version)
	}
	kind := r.U8()
	if r.err == nil && len(kinds) > 0 && !contains(kinds, kind) {
		return 0, nil, fmt.Errorf("%w: kind %d not accepted here", ErrKind, kind)
	}
	plen := r.U32()
	if r.err != nil {
		return 0, nil, r.err
	}
	if rest := r.Len(); int64(plen) != int64(rest) {
		class := ErrTruncated
		if int64(plen) < int64(rest) {
			class = ErrOversized
		}
		return 0, nil, fmt.Errorf("%w: header declares %d payload bytes, %d present", class, plen, rest)
	}
	return kind, r, nil
}

func contains(kinds []byte, k byte) bool {
	for _, want := range kinds {
		if k == want {
			return true
		}
	}
	return false
}

// NewFrame starts a frame: the header with payloadLen still zero, and room
// for sizeHint payload bytes. FinishFrame stamps the length.
func NewFrame(version, kind byte, sizeHint int) []byte {
	buf := make([]byte, HeaderLen, HeaderLen+sizeHint)
	buf[0], buf[1] = version, kind
	return buf
}

// FinishFrame stamps the payload length into a frame NewFrame started.
func FinishFrame(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame[2:HeaderLen], uint32(len(frame)-HeaderLen))
	return frame
}

// CheckStr8 reports ErrValue if s is too long for a u8 length prefix.
func CheckStr8(s string) error {
	if len(s) > math.MaxUint8 {
		return fmt.Errorf("%w: string of %d bytes exceeds %d", ErrValue, len(s), math.MaxUint8)
	}
	return nil
}

// CheckStr16 reports ErrValue if s is too long for a u16 length prefix.
func CheckStr16(s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("%w: string of %d bytes exceeds %d", ErrValue, len(s), math.MaxUint16)
	}
	return nil
}

// CheckI16 reports ErrValue if v does not fit an int16 field.
func CheckI16(v int) error {
	if v < math.MinInt16 || v > math.MaxInt16 {
		return fmt.Errorf("%w: %d outside int16", ErrValue, v)
	}
	return nil
}

// AppendStr8 appends s with a u8 length prefix.
func AppendStr8(buf []byte, s string) ([]byte, error) {
	if err := CheckStr8(s); err != nil {
		return nil, err
	}
	return append(append(buf, byte(len(s))), s...), nil
}

// AppendStr16 appends s with a u16 length prefix.
func AppendStr16(buf []byte, s string) ([]byte, error) {
	if err := CheckStr16(s); err != nil {
		return nil, err
	}
	return append(binary.LittleEndian.AppendUint16(buf, uint16(len(s))), s...), nil
}
