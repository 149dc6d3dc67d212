package server

import (
	"encoding/binary"
	"fmt"
	"math"

	"trajforge/internal/binfmt"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// Binary request codec for the upload and session-append endpoints,
// negotiated by Content-Type. JSON remains the default wire form; clients
// that opt in send the same logical request as a versioned, length-checked
// binary frame and skip JSON tokenisation on both ends. Framing, field
// encodings and decode errors are internal/binfmt's, and scans use the
// wifi.AppendScan layout. The wire carries the lat/lon float64 bits that
// JSON also roundtrips losslessly, so a binary upload decodes to the
// byte-identical UploadRequest a JSON upload does and the verdict
// (probabilities included) is bit-identical across the two encodings.
//
// Frame layout (little endian):
//
//	u8 version (1) | u8 kind | u32 payloadLen | payload
//
// kind=1 (upload) payload:
//
//	u16 len(id) | id | u8 mode | u32 nPoints |
//	nPoints × { f64 lat | f64 lon | i64 unixMillis } |
//	nPoints × { u16 nObs | nObs × { u8 len(mac) | mac | i16 rssi } }
//	[ | u16 len(contributor) | contributor ]
//
// The contributor block is present iff the contributor is non-empty
// (the parser rejects a present-but-empty block), so pre-provenance
// frames — which end after the scans — parse unchanged as the legacy
// anonymous contributor and canonicity is preserved in both directions.
//
// kind=2 (session append) payload:
//
//	u16 len(sessionID) | sessionID | u32 seq | u32 nPoints |
//	points and scans as in kind=1 (no contributor block: identity is
//	bound at /v1/session/open)
//
// The encoding is canonical — fixed field order, the one optional field
// constrained so only one encoding exists per value, no redundancy beyond
// payloadLen (which must equal the remaining byte count exactly) — so
// encode(parse(frame)) reproduces the frame byte for byte;
// FuzzBinaryCodec pins that property.

// ContentTypeBinary is the negotiated media type of binary request bodies.
const ContentTypeBinary = "application/x-trajforge-v1"

const (
	wireVersion           = 1
	wireKindUpload        = 1
	wireKindSessionAppend = 2

	// wirePointSize is the fixed per-point cost (lat, lon, millis); scans
	// follow separately. Used for the claims check before allocating.
	wirePointSize = 24
)

// wireMode maps a mode byte to the wire (JSON) mode string; 0 is the
// unset mode and stays "".
func wireMode(b byte) (string, error) {
	if b == 0 {
		return "", nil
	}
	m := trajectory.Mode(b)
	for _, known := range trajectory.Modes() {
		if m == known {
			return m.String(), nil
		}
	}
	return "", fmt.Errorf("%w: unknown travel mode byte %d", binfmt.ErrValue, b)
}

// wireModeByte is wireMode's inverse for the encoder.
func wireModeByte(mode string) (byte, error) {
	if mode == "" {
		return 0, nil
	}
	m, err := trajectory.ParseMode(mode)
	if err != nil {
		return 0, err
	}
	return byte(m), nil
}

// wirePoints reads a point count, the points and their scans off r.
func wirePoints(r *binfmt.Reader) []uploadPoint {
	pts := make([]uploadPoint, r.Count(wirePointSize))
	for i := range pts {
		pts[i].Lat = r.F64()
		pts[i].Lon = r.F64()
		pts[i].Time = int64(r.U64())
	}
	for i := range pts {
		// An empty scan stays nil, as JSON's absent "scan" field decodes.
		pts[i].Scan = wifi.ReadScan(r)
	}
	return pts
}

// appendWirePoints encodes the point count, points and scans onto buf —
// the encoder wirePoints inverts.
func appendWirePoints(buf []byte, pts []uploadPoint) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pts)))
	for _, p := range pts {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Lat))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Lon))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Time))
	}
	var err error
	for i, p := range pts {
		if buf, err = wifi.AppendScan(buf, p.Scan); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
	}
	return buf, nil
}

// EncodeUploadBinary renders an upload request as a binary frame for
// Content-Type ContentTypeBinary. It is the exact inverse of
// ParseUploadBinary on every frame the parser accepts.
func EncodeUploadBinary(req *UploadRequest) ([]byte, error) {
	buf := binfmt.NewFrame(wireVersion, wireKindUpload, 2+len(req.ID)+1+4+len(req.Points)*wirePointSize)
	buf, err := binfmt.AppendStr16(buf, req.ID)
	if err != nil {
		return nil, fmt.Errorf("id: %w", err)
	}
	mode, err := wireModeByte(req.Mode)
	if err != nil {
		return nil, err
	}
	if buf, err = appendWirePoints(append(buf, mode), req.Points); err != nil {
		return nil, err
	}
	if req.Contributor != "" {
		if buf, err = binfmt.AppendStr16(buf, req.Contributor); err != nil {
			return nil, fmt.Errorf("contributor: %w", err)
		}
	}
	return binfmt.FinishFrame(buf), nil
}

// ParseUploadBinary parses a binary upload frame into the same
// UploadRequest the JSON decoder produces; semantic validation (coordinate
// ranges, point-count limits) stays with Service.decode, shared by both
// wire forms.
func ParseUploadBinary(data []byte) (*UploadRequest, error) {
	_, r, err := binfmt.Header(data, wireVersion, wireKindUpload)
	if err != nil {
		return nil, err
	}
	req := &UploadRequest{ID: r.Str16()}
	req.Mode, err = wireMode(r.U8())
	r.Fail(err)
	req.Points = wirePoints(r)
	if r.Len() > 0 {
		// An empty contributor must be encoded by omission, else two
		// frames would decode to the same request and canonicity breaks.
		if req.Contributor = r.Str16(); req.Contributor == "" {
			r.Fail(fmt.Errorf("%w: empty contributor block", binfmt.ErrValue))
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return req, nil
}

// EncodeSessionAppendBinary renders a session append as a binary frame.
func EncodeSessionAppendBinary(req *SessionAppendRequest) ([]byte, error) {
	if req.Seq < 0 || int64(req.Seq) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: seq %d outside uint32", binfmt.ErrValue, req.Seq)
	}
	buf := binfmt.NewFrame(wireVersion, wireKindSessionAppend, 2+len(req.SessionID)+8+len(req.Points)*wirePointSize)
	buf, err := binfmt.AppendStr16(buf, req.SessionID)
	if err != nil {
		return nil, fmt.Errorf("session id: %w", err)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(req.Seq))
	if buf, err = appendWirePoints(buf, req.Points); err != nil {
		return nil, err
	}
	return binfmt.FinishFrame(buf), nil
}

// ParseSessionAppendBinary parses a binary session-append frame.
func ParseSessionAppendBinary(data []byte) (*SessionAppendRequest, error) {
	_, r, err := binfmt.Header(data, wireVersion, wireKindSessionAppend)
	if err != nil {
		return nil, err
	}
	req := &SessionAppendRequest{SessionID: r.Str16(), Seq: int(r.U32())}
	req.Points = wirePoints(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return req, nil
}
