package tsserve

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"tsspace"
)

// testID is a well-formed 16-hex-digit session id.
const testID = "0123456789abcdef"

// attachFrame returns an attachOK frame carrying payload.
func attachFrame(payload []byte) []byte {
	return endFrame(append(beginFrame(nil, frameAttachOK), payload...), 0)
}

// FuzzBinaryFrame feeds the wire-v3 frame reader arbitrary byte streams:
// whatever the prefix claims, next must never panic, never hand back a
// frame past the size cap, never allocate past it, and fail only with the
// codec's own vocabulary (clean EOF at a boundary, unexpected EOF inside
// a frame, or the two framing violations).
func FuzzBinaryFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, frameAttach})                            // minimal well-formed frame
	f.Add([]byte{0, 0, 0, 0})                                         // empty frame: no type byte
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, frameGetTS})                 // oversized length claim
	f.Add([]byte{0, 0, 0, 9, frameGetTS, 1, 2})                       // truncated payload
	f.Add([]byte{0, 0})                                               // truncated length prefix
	f.Add([]byte{0, 0, 0, 2, frameGetTSOK, 0x80})                     // getts reply cut inside its first varint
	f.Add(append([]byte{0, 0, 0, 3, frameError, binCodeClosed}, 'x')) // error frame
	f.Add([]byte{0, 0, 16, 1, frameGetTSOK})                          // large claim, no bytes behind it
	f.Add(attachFrame(append([]byte(testID), 3, 0xE0, 0xD4, 0x03)))   // attach reply ending at ttl_ms
	f.Add(attachFrame(appendAttach(nil, testID, 3, 60000, true)))     // attach reply with the one-shot flag

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := frameReader{r: bytes.NewReader(data)}
		for {
			typ, payload, err := fr.next()
			if err != nil {
				switch {
				case errors.Is(err, io.EOF),
					errors.Is(err, io.ErrUnexpectedEOF),
					errors.Is(err, errFrameEmpty),
					errors.Is(err, errFrameTooLarge):
				default:
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if len(payload) >= MaxBinaryFrame {
				t.Fatalf("frame of %d bytes escaped the %d cap", len(payload)+1, MaxBinaryFrame)
			}
			if cap(fr.buf) > MaxBinaryFrame {
				t.Fatalf("reader allocated %d bytes for a capped stream", cap(fr.buf))
			}
			_ = typ
			// Decoders downstream of next must hold the same no-panic bar.
			var dst [8]tsspace.Timestamp
			_, _, _ = decodeTimestamps(payload, dst[:])
			_ = decodeError(payload)
			if id, _, _, err := decodeAttach(payload); err == nil && len(id) != binIDLen {
				t.Fatalf("decodeAttach returned a %d-byte id", len(id))
			}
		}
	})
}

// decodeAttach reads both attach-reply shapes: one ending at ttl_ms, as
// a daemon from before the one-shot flag sends it, decodes long-lived;
// bytes after the flag are ignored; a reply cut inside the id, pid or
// ttl fails.
func TestDecodeAttach(t *testing.T) {
	legacy := append([]byte(testID), 3, 0xE0, 0xD4, 0x03) // pid 3, ttl 60000
	for _, c := range []struct {
		name    string
		p       []byte
		oneShot bool
		fail    bool
	}{
		{"no flag", legacy, false, false},
		{"flag 0", appendAttach(nil, testID, 3, 60000, false), false, false},
		{"flag 1", appendAttach(nil, testID, 3, 60000, true), true, false},
		{"after the flag", append(appendAttach(nil, testID, 3, 60000, true), 0, 7), true, false},
		{"short id", []byte(testID[:15]), false, true},
		{"no pid", []byte(testID), false, true},
		{"no ttl", append([]byte(testID), 3), false, true},
		{"cut ttl", append([]byte(testID), 3, 0xE0), false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			id, pid, oneShot, err := decodeAttach(c.p)
			if c.fail {
				if err == nil {
					t.Fatalf("decodeAttach(%x) = (%q, %d, %v), want an error", c.p, id, pid, oneShot)
				}
				return
			}
			if err != nil || string(id) != testID || pid != 3 || oneShot != c.oneShot {
				t.Fatalf("decodeAttach(%x) = (%q, %d, %v, %v), want (%q, 3, %v, nil)", c.p, id, pid, oneShot, err, testID, c.oneShot)
			}
		})
	}
}

// FuzzBinaryTimestamps throws arbitrary bytes at the getts-response
// decoder: it must never panic, never report more timestamps than the
// caller's buffer holds, and reject non-minimal trailing garbage.
func FuzzBinaryTimestamps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0})                               // pid 3, empty batch
	f.Add([]byte{3, 2, 2, 4, 0, 2})                   // pid 3, two deltas
	f.Add([]byte{3, 200})                             // batch claim past any buffer
	f.Add([]byte{3, 1, 0x80})                         // truncated zigzag varint
	f.Add([]byte{3, 1, 2, 2, 9})                      // trailing byte
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80}) // runaway uvarint

	f.Fuzz(func(t *testing.T, data []byte) {
		var dst [16]tsspace.Timestamp
		_, n, err := decodeTimestamps(data, dst[:])
		if err != nil {
			return
		}
		if n > len(dst) {
			t.Fatalf("decoded %d timestamps into a buffer of %d", n, len(dst))
		}
	})
}

// FuzzBinaryTimestampsRoundTrip drives the encoder with arbitrary batch
// shapes and checks decode(encode(x)) == x: the delta encoding must be
// lossless for any timestamps, not just the ascending streams real
// sessions produce.
func FuzzBinaryTimestampsRoundTrip(f *testing.F) {
	f.Add(uint16(0), uint8(0), int64(0), int64(0), int64(0), int64(0))
	f.Add(uint16(7), uint8(3), int64(5), int64(9), int64(1), int64(1))
	f.Add(uint16(65535), uint8(16), int64(-1), int64(1<<62), int64(-1<<40), int64(3))

	f.Fuzz(func(t *testing.T, pid uint16, count uint8, r0, t0, dr, dt int64) {
		n := int(count)%16 + 1
		in := make([]tsspace.Timestamp, n)
		rnd, turn := r0, t0
		for i := range in {
			in[i] = tsspace.Timestamp{Rnd: rnd, Turn: turn}
			rnd += dr
			turn += dt
		}
		p := appendTimestamps(nil, int(pid), in)
		out := make([]tsspace.Timestamp, n)
		gotPid, gotN, err := decodeTimestamps(p, out)
		if err != nil {
			t.Fatalf("decode(encode(%d ts)): %v", n, err)
		}
		if gotPid != int(pid) || gotN != n {
			t.Fatalf("roundtrip header: pid %d n %d, want %d %d", gotPid, gotN, pid, n)
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("ts[%d] = %+v, want %+v", i, out[i], in[i])
			}
		}
	})
}
