package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"trajforge/internal/binfmt"
)

// writeMsg encodes msg and writes the frame to the connection. A non-zero
// deadline bounds the write.
func writeMsg(conn net.Conn, msg any, deadline time.Time) error {
	frame, err := EncodeFrame(msg)
	if err != nil {
		return err
	}
	if err := conn.SetWriteDeadline(deadline); err != nil {
		return err
	}
	_, err = conn.Write(frame)
	return err
}

// readMsg reads one frame off the connection and decodes it. A non-zero
// deadline bounds the read.
func readMsg(conn net.Conn, deadline time.Time) (any, error) {
	if err := conn.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	var hdr [binfmt.HeaderLen]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	plen := binary.LittleEndian.Uint32(hdr[2:binfmt.HeaderLen])
	if int64(plen) > maxFrameBytes-binfmt.HeaderLen {
		return nil, fmt.Errorf("%w: payload of %d bytes", binfmt.ErrOversized, plen)
	}
	frame := make([]byte, binfmt.HeaderLen+int(plen))
	copy(frame, hdr[:])
	if _, err := io.ReadFull(conn, frame[binfmt.HeaderLen:]); err != nil {
		return nil, err
	}
	return DecodeFrame(frame)
}

// deadlineExpiredMs is the wire sentinel for "the deadline had already
// passed when the sender stamped this request". The field is otherwise
// relative (milliseconds remaining), so it is immune to clock skew between
// sender and receiver — only the sender's own clock decides expiry, and
// the receiver refuses the request unworked on seeing the sentinel.
const deadlineExpiredMs = ^uint32(0)

// deadlineMs converts an absolute deadline to the wire's "milliseconds
// remaining" field: 0 means none, already-expired deadlines become the
// deadlineExpiredMs sentinel so the receiver can refuse without guessing
// at the sender's clock.
func deadlineMs(deadline time.Time, now time.Time) uint32 {
	if deadline.IsZero() {
		return 0
	}
	left := deadline.Sub(now)
	if left <= 0 {
		return deadlineExpiredMs
	}
	ms := (left + time.Millisecond - 1) / time.Millisecond
	if ms > 1<<31 {
		return 1 << 31
	}
	return uint32(ms)
}

// wireDeadline converts a wire deadline field back to an absolute time for
// conn deadlines; zero (no deadline) maps to a generous transport bound so
// a dead peer cannot wedge a connection forever, and the expired sentinel
// maps to a minimal bound (the handler refuses such requests anyway, but
// the response still needs a write deadline).
func wireDeadline(ms uint32, now time.Time, fallback time.Duration) time.Time {
	switch ms {
	case 0:
		return now.Add(fallback)
	case deadlineExpiredMs:
		return now.Add(time.Second)
	}
	return now.Add(time.Duration(ms) * time.Millisecond)
}
