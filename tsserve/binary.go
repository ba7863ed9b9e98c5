package tsserve

// Wire v3: a persistent-connection, length-prefixed binary protocol — the
// session semantics of wire v2 with the HTTP/JSON harness tax removed.
// E13 measured that tax at ~100× the algorithm (2.8µs/ts over HTTP/JSON at
// batch 256 vs 29ns/ts in process); v3 exists to close that gap, so the
// codec is built for a zero-allocation steady state: reusable buffers,
// varint/delta timestamp encoding, and frame reads that never allocate
// past a hard cap.
//
// A connection opens with the 4-byte magic "tsb3", then carries frames in
// both directions:
//
//	frame   := length(uint32, big-endian) type(byte) payload
//	length  counts type+payload, so 1 ≤ length ≤ MaxBinaryFrame
//
// Request frames (client → server) and their responses:
//
//	attach    []                        → attachOK    [id(16)][pid][ttl_ms][one_shot]
//	attach_ns [len][name]               → attachNSOK  [id(16)][pid][ttl_ms][one_shot]
//	getts     [id(16)][count]           → gettsOK     [pid][n][ts deltas]
//	detach    [id(16)]                  → detachOK    [calls]
//	any       —                         → error       [code(byte)][message]
//
// There is no compare frame: compare(t1, t2) reads no register, so
// clients order timestamps locally with tsspace.Less. Type 0x04 stays
// unassigned, so an older client's compare frame is answered bad_request
// instead of being read as some other request.
//
// attach_ns is attach into a named namespace (broker.go): the payload
// carries the namespace name (uvarint length + raw bytes) and the
// returned id binds the session into that namespace's Object. Sessions
// from either attach form are addressed identically afterwards — getts
// and detach frames carry only the capability id, so the steady-state
// path is byte-for-byte the same with or without namespaces.
//
// one_shot is a single byte, 1 when the session's Object is one-shot:
// the getts frame that issues its one timestamp also retires its lease
// server-side, so the client detaches without a frame (and a second
// getts fails locally with tsspace.ErrOneShot). A reply that ends at
// ttl_ms — a daemon from before the flag — means long-lived; bytes
// after the flag are ignored, so the reply can grow again. A client
// that ignores the flag and detaches a spent lease is answered
// unknown_session, which the Go clients treat as a finished detach.
//
// Bracketed integers are varints (unsigned for id-adjacent counts, zigzag
// for timestamp fields); session ids are the same 16-hex-digit
// capability-ish tokens wire v2 leases, carried as raw ASCII so both
// protocols address one session space. A getts response encodes its batch
// as first-pair-absolute, then per-field zigzag deltas — timestamps issued
// back to back by one paper-process mostly share their rnd, so a 256-batch
// rides in a few hundred bytes instead of ~10KB of JSON.
//
// Responses come back in request order on each connection; a client may
// pipeline. Because a session models one logical client anyway (its
// operation stream is sequential), the client side binds one session to
// one pooled connection and the server processes each connection serially.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"tsspace"
)

// BinaryMagic opens every wire-v3 connection: the client writes it once
// after dialing, before the first frame.
const BinaryMagic = "tsb3"

// MaxBinaryFrame caps the length prefix of one frame (type + payload). A
// reader rejects larger claims before allocating, so a malformed or
// hostile prefix cannot balloon memory; at ~20 bytes per encoded
// timestamp the cap still clears batches far past the server's default
// 1024-batch limit.
const MaxBinaryFrame = 1 << 20

// binIDLen is the wire size of a session id: wire v2's 16-hex-digit
// token, carried verbatim.
const binIDLen = 16

// Frame types. Request types run from 0x01; response types are the
// request type with the high bit set; frameError answers any request.
const (
	frameAttach     byte = 0x01
	frameGetTS      byte = 0x02
	frameDetach     byte = 0x03
	frameAttachNS   byte = 0x05
	frameAttachOK   byte = 0x81
	frameGetTSOK    byte = 0x82
	frameDetachOK   byte = 0x83
	frameAttachNSOK byte = 0x85
	frameError      byte = 0xFF
)

// Binary error codes, one byte each on the wire. They are the wire-v2
// string codes in fixed form, so both protocols map to the same typed SDK
// errors client-side.
const (
	binCodeBadRequest       byte = 1
	binCodeExhausted        byte = 2
	binCodeClosed           byte = 3
	binCodeInternal         byte = 4
	binCodeUnknownSession   byte = 5
	binCodeUnknownNamespace byte = 6
	binCodeQuota            byte = 7
)

// binCodeString maps a wire byte back to the shared string code; unknown
// bytes degrade to CodeInternal rather than failing the decode.
func binCodeString(b byte) string {
	switch b {
	case binCodeBadRequest:
		return CodeBadRequest
	case binCodeExhausted:
		return CodeExhausted
	case binCodeClosed:
		return CodeClosed
	case binCodeUnknownSession:
		return CodeUnknownSession
	case binCodeUnknownNamespace:
		return CodeUnknownNamespace
	case binCodeQuota:
		return CodeQuota
	}
	return CodeInternal
}

// Codec errors. errFrameTooLarge poisons the stream (the bytes after a
// rejected prefix cannot be re-framed), so both sides close the
// connection on it; payload-level errors keep the connection.
var (
	errFrameTooLarge = errors.New("tsserve: binary frame exceeds size cap")
	errFrameEmpty    = errors.New("tsserve: binary frame has no type byte")
	errTruncated     = errors.New("tsserve: truncated binary payload")
)

// beginFrame reserves a length prefix and writes the type byte; endFrame
// patches the prefix once the payload is appended. start is beginFrame's
// len(dst), so frames can stack in one buffer.
func beginFrame(dst []byte, typ byte) []byte {
	return append(dst, 0, 0, 0, 0, typ)
}

func endFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// frameReader reads length-prefixed frames from r into a reused buffer.
// The payload returned by next is valid until the following call. The
// header scratch lives in the struct so next stays allocation-free (a
// local array would escape through the io.Reader interface call).
type frameReader struct {
	r   io.Reader
	hdr [4]byte
	buf []byte
}

// next reads one frame. io.EOF at a frame boundary surfaces as io.EOF;
// EOF inside a frame as io.ErrUnexpectedEOF.
func (fr *frameReader) next() (typ byte, payload []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n == 0 {
		return 0, nil, errFrameEmpty
	}
	if n > MaxBinaryFrame {
		//tslint:allow hotpath oversized-frame rejection: the connection fails here
		return 0, nil, fmt.Errorf("%w: %d > %d", errFrameTooLarge, n, MaxBinaryFrame)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n) //tslint:allow hotpath buffer growth amortizes to zero: the steady state reuses the capacity
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return fr.buf[0], fr.buf[1:], nil
}

// uvarint decodes an unsigned varint at p[off:], returning the value and
// the next offset.
func uvarint(p []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return 0, 0, errTruncated
	}
	return v, off + n, nil
}

// varint decodes a zigzag varint at p[off:].
func varint(p []byte, off int) (int64, int, error) {
	v, n := binary.Varint(p[off:])
	if n <= 0 {
		return 0, 0, errTruncated
	}
	return v, off + n, nil
}

// sessionID extracts the fixed-width session id that leads a
// session-scoped payload, returning the remainder.
func sessionID(p []byte) (id, rest []byte, err error) {
	if len(p) < binIDLen {
		return nil, nil, errTruncated
	}
	return p[:binIDLen], p[binIDLen:], nil
}

// appendAttach encodes an attach or attach_ns response payload.
func appendAttach(dst []byte, id string, pid int, ttlMs int64, oneShot bool) []byte {
	dst = append(dst, id...)
	dst = binary.AppendUvarint(dst, uint64(pid))
	dst = binary.AppendUvarint(dst, uint64(ttlMs))
	flag := byte(0)
	if oneShot {
		flag = 1
	}
	return append(dst, flag)
}

// decodeAttach decodes an attach or attach_ns response payload into the
// session id (aliasing p), the pid and the one-shot flag. The idle TTL
// is advisory and skipped. A payload that ends at the TTL decodes as
// long-lived, and bytes after the flag are ignored.
func decodeAttach(p []byte) (id []byte, pid int, oneShot bool, err error) {
	id, rest, err := sessionID(p)
	if err != nil {
		return nil, 0, false, err
	}
	v, off, err := uvarint(rest, 0)
	if err != nil {
		return nil, 0, false, err
	}
	if _, off, err = uvarint(rest, off); err != nil {
		return nil, 0, false, err
	}
	return id, int(v), off < len(rest) && rest[off] != 0, nil
}

// appendTimestamps encodes a getts response payload: pid, count, then the
// batch with the first (rnd, turn) absolute and every later pair as
// per-field deltas — all zigzag varints, so the common
// same-rnd/ascending-turn batch costs ~2 bytes per timestamp.
//
//tslint:hotpath
func appendTimestamps(dst []byte, pid int, ts []tsspace.Timestamp) []byte {
	dst = binary.AppendUvarint(dst, uint64(pid))
	dst = binary.AppendUvarint(dst, uint64(len(ts)))
	var prev tsspace.Timestamp
	for _, t := range ts {
		dst = binary.AppendVarint(dst, t.Rnd-prev.Rnd)
		dst = binary.AppendVarint(dst, t.Turn-prev.Turn)
		prev = t
	}
	return dst
}

// decodeTimestamps decodes a getts response payload into dst, returning
// the pid and the batch size. A batch larger than len(dst) is an error:
// the caller sized the request, so an oversized reply is a protocol
// violation, not a reason to allocate.
//
//tslint:hotpath
func decodeTimestamps(p []byte, dst []tsspace.Timestamp) (pid, n int, err error) {
	v, off, err := uvarint(p, 0)
	if err != nil {
		return 0, 0, err
	}
	pid = int(v)
	v, off, err = uvarint(p, off)
	if err != nil {
		return 0, 0, err
	}
	if v > uint64(len(dst)) {
		//tslint:allow hotpath malformed-reply rejection: the connection is torn down after this
		return 0, 0, fmt.Errorf("tsserve: binary batch of %d exceeds the %d requested", v, len(dst))
	}
	n = int(v)
	var prev tsspace.Timestamp
	for i := 0; i < n; i++ {
		var dr, dt int64
		if dr, off, err = varint(p, off); err != nil {
			return 0, 0, err
		}
		if dt, off, err = varint(p, off); err != nil {
			return 0, 0, err
		}
		prev = tsspace.Timestamp{Rnd: prev.Rnd + dr, Turn: prev.Turn + dt}
		dst[i] = prev
	}
	if off != len(p) {
		//tslint:allow hotpath malformed-reply rejection: the connection is torn down after this
		return 0, 0, fmt.Errorf("tsserve: %d trailing bytes after binary batch", len(p)-off)
	}
	return pid, n, nil
}

// appendError encodes an error response payload.
func appendError(dst []byte, code byte, msg string) []byte {
	dst = append(dst, code)
	return append(dst, msg...)
}

// decodeError decodes an error response payload into an *APIError carrying
// the shared wire code, so errors.Is sees the same typed SDK errors on
// both protocols. The binary protocol has no status line, so StatusCode
// stays zero.
func decodeError(p []byte) error {
	if len(p) < 1 {
		return errTruncated
	}
	//tslint:allow hotpath error replies are off the steady-state path and must carry a full APIError
	return &APIError{StatusCode: 0, Code: binCodeString(p[0]), Message: string(p[1:])}
}
