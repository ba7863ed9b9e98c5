package tsserve_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tsspace"
	"tsspace/tsserve"
)

// newBinaryServer starts an object, its Server, a binary listener, and an
// HTTP front (for /metrics assertions), returning the binary client and
// friends.
func newBinaryServer(t *testing.T, cfg tsserve.ServerConfig, opts ...tsspace.Option) (*tsserve.BinaryClient, *tsserve.Client, *tsserve.Server, *tsspace.Object) {
	t.Helper()
	obj, err := tsspace.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	front := tsserve.NewServer(obj, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go front.ServeBinary(ln)
	hsrv := httptest.NewServer(front)
	bc := tsserve.NewBinaryClient(ln.Addr().String())
	t.Cleanup(func() {
		bc.Close()
		hsrv.Close()
		front.Close()
		obj.Close()
	})
	return bc, tsserve.NewClient(hsrv.URL, hsrv.Client()), front, obj
}

func TestBinarySessionEndToEnd(t *testing.T) {
	bc, _, _, obj := newBinaryServer(t, tsserve.ServerConfig{},
		tsspace.WithAlgorithm("collect"), tsspace.WithProcs(4))
	ctx := context.Background()

	sess, err := bc.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Pid() < 0 || sess.Pid() >= 4 {
		t.Fatalf("pid %d out of range", sess.Pid())
	}
	if len(sess.ID()) != 16 {
		t.Fatalf("session id %q, want 16 hex chars", sess.ID())
	}

	// Pipelined batches on one lease: strictly ordered within and across.
	var all []tsspace.Timestamp
	buf := make([]tsspace.Timestamp, 5)
	for b := 0; b < 3; b++ {
		n, err := sess.GetTSBatch(ctx, buf)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if n != 5 {
			t.Fatalf("batch %d: %d timestamps, want 5", b, n)
		}
		all = append(all, buf[:n]...)
	}
	one, err := sess.GetTS(ctx)
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, one)
	for i := 0; i+1 < len(all); i++ {
		if !tsspace.Less(all[i], all[i+1]) || tsspace.Less(all[i+1], all[i]) {
			t.Fatalf("happens-before violated at %d: %v vs %v", i, all[i], all[i+1])
		}
	}
	if sess.Calls() != len(all) {
		t.Fatalf("Calls = %d, want %d", sess.Calls(), len(all))
	}

	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Detach(); err != nil {
		t.Fatalf("second detach: %v", err)
	}
	if _, err := sess.GetTS(ctx); !errors.Is(err, tsspace.ErrDetached) {
		t.Fatalf("getts on detached session = %v, want ErrDetached", err)
	}
	if st := obj.Stats(); st.ActiveSessions != 0 {
		t.Fatalf("%d active SDK sessions after detach", st.ActiveSessions)
	}
}

// A binary lease is reaped after idling past the TTL, and the client sees
// the same typed error HTTP clients do.
func TestBinarySessionIdleReaping(t *testing.T) {
	bc, _, _, _ := newBinaryServer(t, tsserve.ServerConfig{SessionTTL: 50 * time.Millisecond},
		tsspace.WithAlgorithm("collect"), tsspace.WithProcs(2))
	ctx := context.Background()

	sess, err := bc.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.GetTS(ctx); err != nil {
		t.Fatal(err)
	}
	// Idle well past the TTL (every successful call renews the lease, so
	// sleep without touching the session), then expect the typed error.
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(150 * time.Millisecond)
		_, err := sess.GetTS(ctx)
		if err == nil {
			if time.Now().After(deadline) {
				t.Fatal("session never reaped")
			}
			continue
		}
		if !errors.Is(err, tsspace.ErrDetached) {
			t.Fatalf("reaped session error = %v, want ErrDetached", err)
		}
		break
	}
	if err := sess.Detach(); err != nil {
		t.Fatalf("detach after reap: %v", err)
	}
}

// Wire v2 and wire v3 share one session table: a session attached over
// HTTP is addressable (and detachable) over binary, and vice versa is
// reported in /metrics' session split.
func TestBinaryAndHTTPShareSessions(t *testing.T) {
	bc, hc, _, _ := newBinaryServer(t, tsserve.ServerConfig{},
		tsspace.WithAlgorithm("collect"), tsspace.WithProcs(4))
	ctx := context.Background()

	bsess, err := bc.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hsess, err := hc.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bsess.GetTS(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := hsess.GetTS(ctx); err != nil {
		t.Fatal(err)
	}
	m, err := hc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.WireSessions != 2 {
		t.Fatalf("wire_sessions = %d, want 2", m.WireSessions)
	}
	if m.BinarySessions != 1 {
		t.Fatalf("binary_sessions = %d, want 1", m.BinarySessions)
	}
	if m.BinaryFrames == 0 || m.BinaryBytesIn == 0 || m.BinaryBytesOut == 0 {
		t.Fatalf("binary counters not moving: %+v", m)
	}
	if err := bsess.Detach(); err != nil {
		t.Fatal(err)
	}
	if err := hsess.Detach(); err != nil {
		t.Fatal(err)
	}
}

// binaryFrames reads the daemon's wire-v3 request-frame counter.
func binaryFrames(t *testing.T, c *tsserve.Client) uint64 {
	t.Helper()
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m.BinaryFrames
}

// Typed error mapping across the binary wire: one-shot exhaustion, a
// second getTS on a spent one-shot session, and oversized batches.
func TestBinaryTypedErrors(t *testing.T) {
	bc, c, _, _ := newBinaryServer(t, tsserve.ServerConfig{MaxBatch: 8},
		tsspace.WithAlgorithm("sqrt"), tsspace.WithProcs(4))
	ctx := context.Background()

	// A one-shot object rejects batches > 1 and exhausts after n attaches.
	sess, err := bc.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]tsspace.Timestamp, 2)
	if _, err := sess.GetTSBatch(ctx, buf); err == nil || !strings.Contains(err.Error(), "one-shot") {
		t.Fatalf("one-shot batch=2 error = %v", err)
	}
	if _, err := sess.GetTS(ctx); err != nil {
		t.Fatal(err)
	}
	// The lease ended with its timestamp: a second getTS fails locally,
	// with the in-process Session's error, and sends no frame.
	frames := binaryFrames(t, c)
	if _, err := sess.GetTS(ctx); !errors.Is(err, tsspace.ErrOneShot) {
		t.Fatalf("second one-shot getts = %v, want ErrOneShot", err)
	}
	if got := binaryFrames(t, c); got != frames {
		t.Fatalf("second one-shot getts sent %d frames, want 0", got-frames)
	}
	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s, err := bc.Attach(ctx)
		if err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
		if _, err := s.GetTS(ctx); err != nil {
			t.Fatalf("getts %d: %v", i, err)
		}
		if err := s.Detach(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bc.Attach(ctx); !errors.Is(err, tsspace.ErrExhausted) {
		t.Fatalf("attach on exhausted object = %v, want ErrExhausted", err)
	}
}

func TestBinaryBatchCap(t *testing.T) {
	bc, _, _, _ := newBinaryServer(t, tsserve.ServerConfig{MaxBatch: 4},
		tsspace.WithAlgorithm("collect"), tsspace.WithProcs(2))
	ctx := context.Background()
	sess, err := bc.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Detach()
	buf := make([]tsspace.Timestamp, 5)
	_, err = sess.GetTSBatch(ctx, buf)
	var apiErr *tsserve.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != tsserve.CodeBadRequest {
		t.Fatalf("over-cap batch error = %v, want bad_request APIError", err)
	}
	// The connection survives a payload-level error: the lease still works.
	if _, err := sess.GetTS(ctx); err != nil {
		t.Fatalf("getts after over-cap error: %v", err)
	}
}

// A raw connection can pipeline frames: three getts requests on one
// session, written back to back, are answered in order, so their
// timestamps come back ascending.
func TestBinaryPipelining(t *testing.T) {
	bc, _, _, _ := newBinaryServer(t, tsserve.ServerConfig{},
		tsspace.WithAlgorithm("collect"), tsspace.WithProcs(2))
	c := rawConn(t, bc.Addr())
	id, _ := rawAttach(t, c)

	var req []byte
	for i := 0; i < 3; i++ {
		start := len(req)
		req = append(req, 0, 0, 0, 0, 0x02) // frameGetTS
		req = append(req, id...)
		req = binary.AppendUvarint(req, 1)
		binary.BigEndian.PutUint32(req[start:], uint32(len(req)-start-4))
	}
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	var prev tsspace.Timestamp
	for i := 0; i < 3; i++ {
		typ, payload := readFrame(t, c)
		if typ != 0x82 { // frameGetTSOK
			t.Fatalf("response %d: type 0x%02x: %q", i, typ, payload)
		}
		ts := decodeOne(t, payload)
		if i > 0 && !tsspace.Less(prev, ts) {
			t.Fatalf("response %d: %v does not order after response %d's %v", i, ts, i-1, prev)
		}
		prev = ts
	}
}

// decodeOne decodes a gettsOK payload carrying one timestamp: pid, count,
// then the absolute (rnd, turn) pair as zigzag varints.
func decodeOne(t *testing.T, p []byte) tsspace.Timestamp {
	t.Helper()
	var vals [4]int64
	for i := range vals {
		var n int
		if i < 2 {
			var v uint64
			v, n = binary.Uvarint(p)
			vals[i] = int64(v)
		} else {
			vals[i], n = binary.Varint(p)
		}
		if n <= 0 {
			t.Fatalf("gettsOK payload cut at field %d", i)
		}
		p = p[n:]
	}
	if vals[1] != 1 || len(p) != 0 {
		t.Fatalf("gettsOK carries %d timestamps and %d trailing bytes, want 1 and 0", vals[1], len(p))
	}
	return tsspace.Timestamp{Rnd: vals[2], Turn: vals[3]}
}

// Framing violations (oversized length prefix) get one error frame and a
// closed connection.
func TestBinaryOversizedFrameCloses(t *testing.T) {
	bc, _, _, _ := newBinaryServer(t, tsserve.ServerConfig{},
		tsspace.WithAlgorithm("collect"), tsspace.WithProcs(2))
	c, err := net.Dial("tcp", bc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte(tsserve.BinaryMagic)); err != nil {
		t.Fatal(err)
	}
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF} // 4GiB frame claim
	if _, err := c.Write(hdr); err != nil {
		t.Fatal(err)
	}
	typ, payload := readFrame(t, c)
	if typ != 0xFF { // frameError
		t.Fatalf("type 0x%02x, want error frame", typ)
	}
	if len(payload) < 1 || payload[0] != 1 { // binCodeBadRequest
		t.Fatalf("error payload %v, want bad_request code", payload)
	}
	// The server hangs up after a framing violation.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := c.Read(one[:]); err != io.EOF {
		t.Fatalf("read after framing violation = %v, want EOF", err)
	}
}

// A wrong magic is dropped without an answer.
func TestBinaryBadMagic(t *testing.T) {
	bc, _, _, _ := newBinaryServer(t, tsserve.ServerConfig{},
		tsspace.WithAlgorithm("collect"), tsspace.WithProcs(2))
	c, err := net.Dial("tcp", bc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("GET http")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := c.Read(one[:]); err == nil {
		t.Fatal("server answered a non-v3 client, want the connection dropped")
	}
}

// An attach → getTS → Detach round costs two requests on a one-shot
// object and three on a long-lived one, over either wire: the one-shot
// getTS retires the lease, so its client's Detach sends nothing, and
// neither does a second getTS on the spent session, which fails with
// ErrOneShot. HTTP requests are counted by a handler wrapper, wire-v3
// ones by the daemon's frame counter.
func TestOneShotRoundTrips(t *testing.T) {
	ctx := context.Background()
	for _, alg := range []struct {
		name string
		want uint64
	}{{"sqrt", 2}, {"collect", 3}} {
		for _, wire := range []string{"http", "binary"} {
			t.Run(alg.name+"/"+wire, func(t *testing.T) {
				obj, err := tsspace.New(tsspace.WithAlgorithm(alg.name), tsspace.WithProcs(4))
				if err != nil {
					t.Fatal(err)
				}
				front := tsserve.NewServer(obj, tsserve.ServerConfig{})
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go front.ServeBinary(ln)
				var sessionReqs atomic.Uint64
				hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if strings.HasPrefix(r.URL.Path, "/session") {
						sessionReqs.Add(1)
					}
					front.ServeHTTP(w, r)
				}))
				bc := tsserve.NewBinaryClient(ln.Addr().String())
				t.Cleanup(func() { bc.Close(); hs.Close(); front.Close(); obj.Close() })
				c := tsserve.NewClient(hs.URL, hs.Client())
				requests := sessionReqs.Load
				attach := func() (tsspace.SessionAPI, error) { return c.Attach(ctx) }
				if wire == "binary" {
					requests = func() uint64 { return binaryFrames(t, c) }
					attach = func() (tsspace.SessionAPI, error) { return bc.Attach(ctx) }
				}

				before := requests()
				sess, err := attach()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sess.GetTS(ctx); err != nil {
					t.Fatal(err)
				}
				if alg.name == "sqrt" {
					if _, err := sess.GetTS(ctx); !errors.Is(err, tsspace.ErrOneShot) {
						t.Errorf("second getTS on a spent session = %v, want ErrOneShot", err)
					}
				}
				if err := sess.Detach(); err != nil {
					t.Fatal(err)
				}
				if got := requests() - before; got != alg.want {
					t.Errorf("attach → getTS → detach cost %d requests, want %d", got, alg.want)
				}
				if st := obj.Stats(); st.ActiveSessions != 0 {
					t.Errorf("%d active SDK sessions after the round", st.ActiveSessions)
				}
			})
		}
	}
}

// rawConn dials the binary listener at addr and sends the magic.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Write([]byte(tsserve.BinaryMagic)); err != nil {
		t.Fatal(err)
	}
	return c
}

// rawFrame writes one wire-v3 frame of type typ carrying payload.
func rawFrame(t *testing.T, c net.Conn, typ byte, payload []byte) {
	t.Helper()
	frame := binary.BigEndian.AppendUint32(nil, uint32(1+len(payload)))
	if _, err := c.Write(append(append(frame, typ), payload...)); err != nil {
		t.Fatal(err)
	}
}

// rawAttach sends a bare attach frame on c and splits the attachOK reply
// into the session id and the byte after ttl_ms.
func rawAttach(t *testing.T, c net.Conn) (id []byte, flag byte) {
	t.Helper()
	rawFrame(t, c, 0x01, nil) // frameAttach
	typ, p := readFrame(t, c)
	if typ != 0x81 || len(p) < 16 { // frameAttachOK
		t.Fatalf("attach reply type 0x%02x: %q", typ, p)
	}
	id, rest := p[:16], p[16:]
	for i := 0; i < 2; i++ { // pid, ttl_ms
		_, n := binary.Uvarint(rest)
		if n <= 0 {
			t.Fatalf("attach reply %x: truncated varint", p)
		}
		rest = rest[n:]
	}
	if len(rest) != 1 {
		t.Fatalf("attach reply %x: %d bytes after ttl_ms, want 1", p, len(rest))
	}
	return id, rest[0]
}

// The attach reply flags the lease one-shot, and a long-lived one not;
// a long-lived Detach still sends its frame. A client that ignores the
// flag and detaches its spent one-shot lease by frame, as one built
// before the flag does, is answered unknown_session, and the books stay
// balanced: no live lease, no active SDK session, one unknown-session
// rejection, and the budget spends down to exhaustion as before.
func TestBinaryAttachReplyFlag(t *testing.T) {
	ctx := context.Background()
	t.Run("collect", func(t *testing.T) {
		bc, c, _, _ := newBinaryServer(t, tsserve.ServerConfig{},
			tsspace.WithAlgorithm("collect"), tsspace.WithProcs(2))
		conn := rawConn(t, bc.Addr())
		if _, flag := rawAttach(t, conn); flag != 0 {
			t.Fatalf("long-lived attach flag = %d, want 0", flag)
		}
		sess, err := bc.Attach(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.GetTS(ctx); err != nil {
			t.Fatal(err)
		}
		frames := binaryFrames(t, c)
		if err := sess.Detach(); err != nil {
			t.Fatal(err)
		}
		if got := binaryFrames(t, c) - frames; got != 1 {
			t.Fatalf("long-lived Detach sent %d frames, want 1", got)
		}
	})
	t.Run("sqrt", func(t *testing.T) {
		const procs = 2
		bc, c, _, obj := newBinaryServer(t, tsserve.ServerConfig{},
			tsspace.WithAlgorithm("sqrt"), tsspace.WithProcs(procs))
		conn := rawConn(t, bc.Addr())
		for i := 0; i < procs; i++ {
			id, flag := rawAttach(t, conn)
			if flag != 1 {
				t.Fatalf("one-shot attach flag = %d, want 1", flag)
			}
			// frameGetTS for one timestamp, answered by frameGetTSOK; then
			// frameDetach, answered by frameError with unknown_session (5).
			rawFrame(t, conn, 0x02, append(append([]byte(nil), id...), 1))
			if typ, p := readFrame(t, conn); typ != 0x82 {
				t.Fatalf("getts reply type 0x%02x: %q", typ, p)
			}
			rawFrame(t, conn, 0x03, id)
			typ, p := readFrame(t, conn)
			if typ != 0xFF || len(p) == 0 || p[0] != 5 {
				t.Fatalf("detach of a spent lease: reply type 0x%02x %q, want an unknown_session error", typ, p)
			}
		}
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.WireSessions != 0 || m.Namespaces[0].WireSessions != 0 || obj.Stats().ActiveSessions != 0 {
			t.Errorf("books after %d spent leases: %d wire leases (%d in default), %d active SDK sessions; want 0",
				procs, m.WireSessions, m.Namespaces[0].WireSessions, obj.Stats().ActiveSessions)
		}
		if m.UnknownSessions != procs {
			t.Errorf("unknown-session counter %d, want %d", m.UnknownSessions, procs)
		}
		if _, err := bc.Attach(ctx); !errors.Is(err, tsspace.ErrExhausted) {
			t.Errorf("attach past the budget = %v, want ErrExhausted", err)
		}
	})
}

// Dropping a connection without detaching releases its sessions: the pid
// comes back without waiting for the TTL reaper.
func TestBinaryConnCloseReleasesSessions(t *testing.T) {
	bc, _, _, obj := newBinaryServer(t, tsserve.ServerConfig{},
		tsspace.WithAlgorithm("collect"), tsspace.WithProcs(1))
	// Raw client: magic, one attach frame, then vanish without a detach.
	c, err := net.Dial("tcp", bc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte(tsserve.BinaryMagic)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte{0, 0, 0, 1, 0x01}); err != nil { // frameAttach
		t.Fatal(err)
	}
	if typ, _ := readFrame(t, c); typ != 0x81 { // frameAttachOK
		t.Fatalf("attach response type 0x%02x", typ)
	}
	c.Close()
	// The one pid must become leasable again once the server notices.
	attachCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s2, err := obj.Attach(attachCtx)
	if err != nil {
		t.Fatalf("pid not released after conn close: %v", err)
	}
	s2.Detach()
}

// The steady-state client frame path allocates nothing: one reused
// request buffer out, one framed read decoded into the caller's slice.
// The server shares the process here, so the measurement actually bounds
// client + server allocations per frame at zero.
func TestBinaryGetTSBatchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	bc, _, _, _ := newBinaryServer(t, tsserve.ServerConfig{},
		tsspace.WithAlgorithm("collect"), tsspace.WithProcs(4))
	ctx := context.Background()
	sess, err := bc.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Detach()
	buf := make([]tsspace.Timestamp, 64)
	// Warm the buffers (first batches grow scratch space).
	for i := 0; i < 8; i++ {
		if _, err := sess.GetTSBatch(ctx, buf); err != nil {
			t.Fatal(err)
		}
	}
	var allocs float64
	for attempt := 0; attempt < 3; attempt++ {
		allocs = testing.AllocsPerRun(200, func() {
			if _, err := sess.GetTSBatch(ctx, buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs == 0 {
			return
		}
	}
	t.Fatalf("steady-state GetTSBatch allocates %.2f/op, want 0", allocs)
}

func BenchmarkBinaryGetTSBatch(b *testing.B) {
	for _, batch := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			obj, err := tsspace.New(tsspace.WithAlgorithm("collect"), tsspace.WithProcs(4))
			if err != nil {
				b.Fatal(err)
			}
			defer obj.Close()
			front := tsserve.NewServer(obj, tsserve.ServerConfig{})
			defer front.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go front.ServeBinary(ln)
			bc := tsserve.NewBinaryClient(ln.Addr().String())
			defer bc.Close()
			ctx := context.Background()
			sess, err := bc.Attach(ctx)
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Detach()
			buf := make([]tsspace.Timestamp, batch)
			if _, err := sess.GetTSBatch(ctx, buf); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.GetTSBatch(ctx, buf); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/ts")
		})
	}
}

// BenchmarkBinaryOneShot prices the paper's one-shot regime over wire
// v3: each op is one attach → GetTS → Detach round in a provisioned
// sqrt namespace, re-provisioned (off the clock) when its budget is
// exhausted. It reports ns/ts and the request frames each timestamp
// cost, exhausted attaches included.
func BenchmarkBinaryOneShot(b *testing.B) {
	const procs = 1024
	obj, err := tsspace.New(tsspace.WithAlgorithm("collect"), tsspace.WithProcs(4))
	if err != nil {
		b.Fatal(err)
	}
	defer obj.Close()
	front := tsserve.NewServer(obj, tsserve.ServerConfig{})
	defer front.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go front.ServeBinary(ln)
	hs := httptest.NewServer(front)
	defer hs.Close()
	c := tsserve.NewClient(hs.URL, hs.Client())
	bc := tsserve.NewBinaryClient(ln.Addr().String())
	defer bc.Close()
	ctx := context.Background()

	gen, name := 0, ""
	provision := func() {
		gen++
		name = fmt.Sprintf("oneshot-%d", gen)
		if _, err := c.ProvisionNamespace(ctx, name, tsserve.ProvisionRequest{Algorithm: "sqrt", Procs: procs}); err != nil {
			b.Fatal(err)
		}
	}
	frames := func() uint64 {
		m, err := c.Metrics(ctx)
		if err != nil {
			b.Fatal(err)
		}
		return m.BinaryFrames
	}
	provision()
	start := frames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := bc.AttachNamespace(ctx, name)
		for errors.Is(err, tsspace.ErrExhausted) {
			b.StopTimer()
			if _, err := c.DeprovisionNamespace(ctx, name); err != nil {
				b.Fatal(err)
			}
			provision()
			b.StartTimer()
			sess, err = bc.AttachNamespace(ctx, name)
		}
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.GetTS(ctx); err != nil {
			b.Fatal(err)
		}
		if err := sess.Detach(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/ts")
	b.ReportMetric(float64(frames()-start)/float64(b.N), "frames/ts")
}

// readFrame reads one raw frame off a test connection.
func readFrame(t *testing.T, c net.Conn) (byte, []byte) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		t.Fatal(err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	body := make([]byte, n)
	if _, err := io.ReadFull(c, body); err != nil {
		t.Fatal(err)
	}
	return body[0], body[1:]
}
