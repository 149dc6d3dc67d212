package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"trajforge/internal/binfmt"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// WAL frame payload codec for accepted uploads. The wire JSON form cannot
// be reused here: it roundtrips positions through lat/lon, which perturbs
// the plane coordinates by ulps and would break bit-identical recovery.
// This codec stores the already-projected plane floats verbatim
// (little-endian IEEE-754 bits), so a store rebuilt from the log answers
// feature queries bit-identically to the store that ingested the upload.
// Field encodings and decode errors are internal/binfmt's; scans use the
// wifi.AppendScan layout.
//
// Layout (version 2, little endian):
//
//	u8 version | u8 mode | u16 len(id) | id |
//	u32 nPoints | nPoints × { f64 X | f64 Y | i64 unixNanos } |
//	nPoints × { u16 nObs | nObs × { u8 len(mac) | mac | i16 rssi } } |
//	u16 len(contributor) | contributor | f64 pFake
//
// Version 1 frames (pre-provenance) end after the scans; decodeUpload
// accepts both, mapping v1 to the legacy anonymous contributor with a
// zero score, so WALs written before the trust subsystem still recover.
// pFake is the WiFi detector's verdict score (exact IEEE-754 bits): the
// trust ledger's agreement statistic feeds on it, so replay must see the
// same value the live accept saw. Session chunk frames reuse this codec
// with pFake 0 — their score rides the session verdict frame instead.

const uploadCodecVersion = 2

// uploadPointSize is the fixed per-point cost (X, Y, nanos).
const uploadPointSize = 24

// appendUpload encodes u onto buf and returns the extended slice.
func appendUpload(buf []byte, u *wifi.Upload, pFake float64) ([]byte, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	buf, err := binfmt.AppendStr16(append(buf, uploadCodecVersion, byte(u.Traj.Mode)), u.Traj.ID)
	if err != nil {
		return nil, fmt.Errorf("server: upload id: %w", err)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(u.Traj.Len()))
	for _, pt := range u.Traj.Points {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pt.Pos.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pt.Pos.Y))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(pt.Time.UnixNano()))
	}
	for i, scan := range u.Scans {
		if buf, err = wifi.AppendScan(buf, scan); err != nil {
			return nil, fmt.Errorf("server: point %d: %w", i, err)
		}
	}
	if buf, err = binfmt.AppendStr16(buf, u.Contributor); err != nil {
		return nil, fmt.Errorf("server: contributor: %w", err)
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(pFake)), nil
}

// decodeUpload parses one frame payload back into an upload.
func decodeUpload(data []byte) (*wifi.Upload, float64, error) {
	r := binfmt.NewReader(data)
	ver := r.U8()
	if r.Err() == nil && ver != 1 && ver != uploadCodecVersion {
		return nil, 0, fmt.Errorf("%w: upload frame version %d", binfmt.ErrVersion, ver)
	}
	mode := trajectory.Mode(r.U8())
	t := &trajectory.T{ID: r.Str16(), Mode: mode}
	t.Points = make([]trajectory.Point, r.Count(uploadPointSize))
	for i := range t.Points {
		t.Points[i].Pos.X = r.F64()
		t.Points[i].Pos.Y = r.F64()
		t.Points[i].Time = time.Unix(0, int64(r.U64())).UTC()
	}
	scans := make([]wifi.Scan, len(t.Points))
	for i := range scans {
		if scans[i] = wifi.ReadScan(r); scans[i] == nil {
			scans[i] = wifi.Scan{} // as Service.decode builds a scanless point
		}
	}
	u := &wifi.Upload{Traj: t, Scans: scans}
	var pFake float64
	if ver >= 2 {
		u.Contributor = r.Str16()
		pFake = r.F64()
	}
	if err := r.Done(); err != nil {
		return nil, 0, err
	}
	return u, pFake, nil
}

// appendSessionOpen encodes a frameSessionOpen payload:
//
//	u16 len(id) | id | u8 mode [ | u16 len(contributor) | contributor ]
//
// The contributor block is appended only when non-empty; old frames (and
// anonymous sessions) end after the mode byte, so pre-provenance WALs
// still decode.
func appendSessionOpen(buf []byte, id string, mode trajectory.Mode, contributor string) ([]byte, error) {
	buf, err := appendSessionID(buf, "open", id)
	if err != nil {
		return nil, err
	}
	buf = append(buf, byte(mode))
	if contributor != "" {
		if buf, err = binfmt.AppendStr16(buf, contributor); err != nil {
			return nil, fmt.Errorf("server: contributor: %w", err)
		}
	}
	return buf, nil
}

// decodeSessionOpen parses a frameSessionOpen payload.
func decodeSessionOpen(data []byte) (string, trajectory.Mode, string, error) {
	r := binfmt.NewReader(data)
	id := readSessionID(r)
	mode := trajectory.Mode(r.U8())
	var contributor string
	if r.Len() > 0 {
		if contributor = r.Str16(); contributor == "" {
			r.Fail(fmt.Errorf("%w: empty contributor block in session open frame", binfmt.ErrValue))
		}
	}
	if err := r.Done(); err != nil {
		return "", 0, "", err
	}
	return id, mode, contributor, nil
}

// appendSessionVerdict encodes a frameSessionVerdict payload:
//
//	u16 len(id) | id | u8 outcome [ | f64 pFake ]
//
// The detector score is appended only for accepted outcomes — it feeds
// the trust ledger's agreement statistic at replay, and only accepted
// sessions reach the trust pipeline. Old frames (and rejects/aborts) end
// after the outcome byte, so pre-provenance WALs still decode.
func appendSessionVerdict(buf []byte, id string, outcome byte, pFake float64) ([]byte, error) {
	buf, err := appendSessionID(buf, "verdict", id)
	if err != nil {
		return nil, err
	}
	buf = append(buf, outcome)
	if outcome == sessionAccepted {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pFake))
	}
	return buf, nil
}

// decodeSessionVerdict parses a frameSessionVerdict payload.
func decodeSessionVerdict(data []byte) (string, byte, float64, error) {
	r := binfmt.NewReader(data)
	id := readSessionID(r)
	outcome := r.U8()
	var pFake float64
	if r.Len() > 0 {
		if outcome != sessionAccepted {
			r.Fail(fmt.Errorf("%w: score on a session verdict with outcome %d", binfmt.ErrValue, outcome))
		}
		pFake = r.F64()
	}
	if err := r.Done(); err != nil {
		return "", 0, 0, err
	}
	return id, outcome, pFake, nil
}

// appendSessionReject encodes a frameSessionReject payload:
//
//	u16 len(id) | id
func appendSessionReject(buf []byte, id string) ([]byte, error) {
	return appendSessionID(buf, "reject", id)
}

// decodeSessionReject parses a frameSessionReject payload.
func decodeSessionReject(data []byte) (string, error) {
	r := binfmt.NewReader(data)
	id := readSessionID(r)
	if err := r.Done(); err != nil {
		return "", err
	}
	return id, nil
}

// appendSessionID appends the non-empty session id every session payload
// starts with; frame names the payload in errors. readSessionID inverts it.
func appendSessionID(buf []byte, frame, id string) ([]byte, error) {
	if id == "" {
		return nil, fmt.Errorf("server: session %s without an id", frame)
	}
	buf, err := binfmt.AppendStr16(buf, id)
	if err != nil {
		return nil, fmt.Errorf("server: session id: %w", err)
	}
	return buf, nil
}

func readSessionID(r *binfmt.Reader) string {
	id := r.Str16()
	if id == "" {
		r.Fail(fmt.Errorf("%w: session frame without an id", binfmt.ErrValue))
	}
	return id
}
