package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"trajforge/internal/binfmt"
	"trajforge/internal/trajectory"
	"trajforge/internal/wifi"
)

// walGoldenPayloads encodes one WAL payload per frame type and codec
// version. testdata/fuzz/FuzzWALPayload holds the same payloads as
// checked-in bytes; TestWALPayloadGolden holds the current encoders to
// them, so the on-disk layout cannot drift.
func walGoldenPayloads(t testing.TB) map[string]struct {
	typ     byte
	payload []byte
} {
	t.Helper()
	u := uploadFor(t, 61, 8)
	u.Traj.ID = "user-42"
	u.Traj.Mode = trajectory.ModeCycling
	u.Scans[2] = wifi.Scan{}
	u.Scans[3] = wifi.Scan{{MAC: "02:4e:00:00:00:07", RSSI: -91}, {MAC: "02:4e:00:00:00:08", RSSI: -44}}
	u.Scans[4] = wifi.Scan{{MAC: "", RSSI: math.MinInt16}, {MAC: strings.Repeat("m", 255), RSSI: math.MaxInt16}}
	u.Traj.Points[5].Pos.X = math.Nextafter(12.5, 13)
	u.Traj.Points[5].Pos.Y = math.Copysign(0, -1)

	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	anon := must(appendUpload(nil, u, 0))
	// A version 1 payload is the v2 layout without the trailing empty
	// contributor (u16 0) and score (f64).
	v1 := append([]byte(nil), anon[:len(anon)-2-8]...)
	v1[0] = 1
	u.Contributor = "device-0042"
	out := map[string]struct {
		typ     byte
		payload []byte
	}{
		"upload-v2":                {frameAccepted, must(appendUpload(nil, u, 0.1875))},
		"upload-v1":                {frameAccepted, v1},
		"session-chunk":            {frameSessionChunk, anon},
		"session-open":             {frameSessionOpen, must(appendSessionOpen(nil, "sess-1", trajectory.ModeWalking, ""))},
		"session-open-contributor": {frameSessionOpen, must(appendSessionOpen(nil, "sess-1", trajectory.ModeWalking, "device-7"))},
		"session-verdict-accepted": {frameSessionVerdict, must(appendSessionVerdict(nil, "sess-2", sessionAccepted, 0.25))},
		"session-verdict-rejected": {frameSessionVerdict, must(appendSessionVerdict(nil, "sess-2", sessionRejected, 0))},
		"session-verdict-aborted":  {frameSessionVerdict, must(appendSessionVerdict(nil, "sess-2", sessionAborted, 0))},
		"session-reject":           {frameSessionReject, must(appendSessionReject(nil, "sess-3"))},
		// An accepted verdict from before scores were journaled.
		"session-verdict-legacy": {frameSessionVerdict, []byte("\x06\x00sess-2\x01")},
	}
	return out
}

// readFuzzCorpus parses a two-argument (byte, []byte) go-fuzz corpus file.
func readFuzzCorpus(t *testing.T, path string) (byte, []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: unexpected corpus layout", path)
	}
	typ, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "byte("), ")"))
	if err != nil || len(typ) != 1 {
		t.Fatalf("%s: bad type line %q", path, lines[1])
	}
	payload, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: bad payload line: %v", path, err)
	}
	return typ[0], []byte(payload)
}

// TestWALPayloadGolden pins the on-disk payload layout byte for byte: the
// current encoders must reproduce every checked-in golden payload, and
// decoding a golden must give back the value that encodes to it.
func TestWALPayloadGolden(t *testing.T) {
	goldens := walGoldenPayloads(t)
	names := make([]string, 0, len(goldens))
	for name := range goldens {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := goldens[name]
		typ, payload := readFuzzCorpus(t, filepath.Join("testdata", "fuzz", "FuzzWALPayload", name))
		if typ != g.typ || !bytes.Equal(payload, g.payload) {
			t.Errorf("%s: current encoding differs from the golden payload:\n% x\n% x", name, g.payload, payload)
			continue
		}
		if _, err := reencodeWALPayload(typ, payload); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// A strict prefix is a valid shorter payload (the legacy forms), or
		// it is truncated or claims more points than it holds.
		for n := range payload {
			_, err := reencodeWALPayload(typ, payload[:n])
			if err != nil && !errors.Is(err, binfmt.ErrTruncated) && !errors.Is(err, binfmt.ErrOversized) {
				t.Errorf("%s: %d-byte prefix: %v", name, n, err)
			}
		}
	}
	if _, _, err := decodeUpload(append(goldens["upload-v2"].payload, 0)); !errors.Is(err, binfmt.ErrOversized) {
		t.Errorf("upload with a trailing byte: %v", err)
	}
	bad := append([]byte(nil), goldens["upload-v2"].payload...)
	bad[0] = 3
	if _, _, err := decodeUpload(bad); !errors.Is(err, binfmt.ErrVersion) {
		t.Errorf("upload version 3: %v", err)
	}
	for _, p := range [][]byte{[]byte("\x00\x00\x01"), []byte("\x06\x00sess-2\x00\x00\x00\x00\x00\x00\x00\x00\x00")} {
		if _, _, _, err := decodeSessionVerdict(p); !errors.Is(err, binfmt.ErrValue) {
			t.Errorf("verdict % x: %v, want ErrValue", p, err)
		}
	}
}

// errWALDecode marks a failure of the decoder under test, as opposed to a
// failure to re-encode what it decoded.
var errWALDecode = errors.New("decode failed")

// reencodeWALPayload decodes payload as a frame of type typ and encodes the
// value again. It errors if the decoder refuses the payload (wrapping
// errWALDecode), or if the re-encoding does not decode to the same value:
// encoding is injective, so the value is the same iff
// encode(decode(enc)) reproduces enc.
func reencodeWALPayload(typ byte, payload []byte) ([]byte, error) {
	enc, err := walRoundTrip(typ, payload)
	if err != nil {
		return nil, err
	}
	again, err := walRoundTrip(typ, enc)
	if err != nil {
		return nil, fmt.Errorf("re-encoded payload: %v", err)
	}
	if !bytes.Equal(enc, again) {
		return nil, fmt.Errorf("re-encoding changed the value:\n% x\n% x", enc, again)
	}
	return enc, nil
}

// walRoundTrip is encode(decode(payload)) for one WAL frame type.
func walRoundTrip(typ byte, payload []byte) ([]byte, error) {
	decoded := func(err error) error { return fmt.Errorf("%w: %w", errWALDecode, err) }
	switch typ {
	case frameAccepted, frameSessionChunk:
		u, pFake, err := decodeUpload(payload)
		if err != nil {
			return nil, decoded(err)
		}
		return appendUpload(nil, u, pFake)
	case frameSessionOpen:
		id, mode, contributor, err := decodeSessionOpen(payload)
		if err != nil {
			return nil, decoded(err)
		}
		return appendSessionOpen(nil, id, mode, contributor)
	case frameSessionVerdict:
		id, outcome, pFake, err := decodeSessionVerdict(payload)
		if err != nil {
			return nil, decoded(err)
		}
		return appendSessionVerdict(nil, id, outcome, pFake)
	case frameSessionReject:
		id, err := decodeSessionReject(payload)
		if err != nil {
			return nil, decoded(err)
		}
		return appendSessionReject(nil, id)
	}
	return nil, fmt.Errorf("no payload codec for frame type %d", typ)
}

// FuzzWALPayload throws arbitrary payloads at the WAL payload decoders,
// keyed by WAL frame type: they must never panic, every refusal must carry
// a binfmt class, and any payload a decoder accepts must re-encode to bytes
// that decode to the same value. The checked-in corpus holds the golden
// payloads TestWALPayloadGolden pins.
func FuzzWALPayload(f *testing.F) {
	for _, typ := range []byte{frameAccepted, frameSessionOpen, frameSessionChunk, frameSessionVerdict, frameSessionReject} {
		f.Add(typ, []byte{})
	}
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		if typ < frameAccepted || typ > frameSessionReject || typ == frameRejected {
			return
		}
		_, err := reencodeWALPayload(typ, payload)
		if err == nil {
			return
		}
		if !errors.Is(err, errWALDecode) {
			t.Fatal(err)
		}
		for _, class := range []error{binfmt.ErrTruncated, binfmt.ErrOversized, binfmt.ErrVersion, binfmt.ErrValue} {
			if errors.Is(err, class) {
				return
			}
		}
		t.Fatalf("untyped decode error: %v", err)
	})
}
