package tsserve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"tsspace"
	"tsspace/internal/obs"
)

// ErrServerClosed is returned by ServeBinary when the server has
// already been closed, mirroring net/http.ErrServerClosed.
var ErrServerClosed = errors.New("tsserve: server closed")

// ServeBinary serves the wire-v3 binary protocol on ln until the listener
// fails or the server is closed. It shares the server's session space
// with the HTTP front end: attach_ns frames lease sessions in the same
// table, the same idle-TTL reaper detaches abandoned leases, and
// Close drains binary connections alongside the HTTP sessions. Run it on
// its own goroutine next to the HTTP server:
//
//	ln, _ := net.Listen("tcp", ":8038")
//	go front.ServeBinary(ln)
//
// Each connection is processed serially — one session per connection is
// the intended shape (the client binds them that way), so pipelined
// frames on a connection are answered in order with no head-of-line
// surprises across sessions.
func (s *Server) ServeBinary(ln net.Listener) error {
	s.binMu.Lock()
	select {
	case <-s.stop:
		s.binMu.Unlock()
		ln.Close()
		return ErrServerClosed
	default:
	}
	s.binListeners = append(s.binListeners, ln)
	s.binMu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-s.stop:
				return nil
			default:
				return err
			}
		}
		s.binMu.Lock()
		s.binConns[c] = struct{}{}
		s.binMu.Unlock()
		go func() {
			s.serveBinConn(c)
			s.binMu.Lock()
			delete(s.binConns, c)
			s.binMu.Unlock()
		}()
	}
}

// closeBinary is the binary side of Close: stop accepting, give in-flight
// frames a moment to finish (frame handling is microseconds; the wait is
// a courtesy so a response mid-write is not cut), then close every
// connection, which unblocks their readers.
func (s *Server) closeBinary() {
	s.binMu.Lock()
	lns := s.binListeners
	s.binListeners = nil
	s.binMu.Unlock()
	for _, ln := range lns {
		_ = ln.Close()
	}
	deadline := time.Now().Add(250 * time.Millisecond)
	for s.binBusy.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.binMu.Lock()
	for c := range s.binConns {
		_ = c.Close()
	}
	s.binMu.Unlock()
}

// binServerConn is the per-connection state of one binary client: reused
// read/write buffers, and the owner its leases name. A binary session
// lives and dies with its connection, like the client's pooling assumes:
// the connection's teardown retires the leases it attached that are
// still live (an id is addressable from elsewhere while the connection
// lives, since both protocols share one session table).
type binServerConn struct {
	s     *Server
	bw    *bufio.Writer
	out   []byte // response scratch, reused per frame
	tsBuf []tsspace.Timestamp
	// binGettsLat is resolved once per connection, so the per-frame path
	// records without a map lookup.
	binGettsLat *obs.Histogram
}

func (s *Server) serveBinConn(c net.Conn) {
	defer c.Close()
	var magic [len(BinaryMagic)]byte
	if _, err := io.ReadFull(c, magic[:]); err != nil || string(magic[:]) != BinaryMagic {
		// Not a wire-v3 client; nothing sensible to answer. Count it —
		// a burst of these is a misconfigured client or a port scan.
		s.met.badMagicConns.Inc()
		return
	}
	br := bufio.NewReaderSize(c, 16<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	fr := frameReader{r: br}
	st := &binServerConn{s: s, bw: bw, binGettsLat: s.met.lat["binary_getts"]}
	defer st.cleanup()
	for {
		select {
		case <-s.stop:
			_ = bw.Flush()
			return
		default:
		}
		typ, payload, err := fr.next()
		if err != nil {
			// A framing-level violation (oversized or empty prefix) poisons
			// the stream: answer once, then hang up. I/O errors and EOF just
			// end the connection.
			if errors.Is(err, errFrameTooLarge) || errors.Is(err, errFrameEmpty) {
				if errors.Is(err, errFrameTooLarge) {
					s.met.oversizedFrames.Inc()
				}
				st.writeError(binCodeBadRequest, err.Error())
				_ = bw.Flush()
			}
			return
		}
		s.binBusy.Add(1)
		s.met.binFrames.Inc()
		s.met.binBytesIn.Add(uint64(4 + 1 + len(payload)))
		st.handle(typ, payload)
		s.binBusy.Add(-1)
		// Flush when no request is already buffered: pipelined bursts share
		// one flush, a lone request is answered immediately.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// cleanup retires every lease this connection attached that is still
// leased (the reaper or an explicit detach may have won already) as a
// crash: its owner vanished without detaching.
func (st *binServerConn) cleanup() { st.s.retireWhere(retireCrash, st.owns) }

// owns reports whether this connection attached the lease ws.
func (st *binServerConn) owns(ws *wireSession) bool { return ws.owner == st }

// handle dispatches one frame. Payload-level problems answer an error
// frame and keep the connection: the framing is intact, so the stream
// stays decodable.
func (st *binServerConn) handle(typ byte, payload []byte) {
	switch typ {
	case frameGetTS:
		st.getTS(payload)
	case frameAttachNS:
		st.attachNS(payload)
	case frameDetach:
		st.detach(payload)
	default:
		st.writeError(binCodeBadRequest, fmt.Sprintf("unknown frame type 0x%02x", typ))
	}
}

// getTS answers one pipelined batch frame: the steady-state path, kept
// allocation-free (id lookup without a string copy, reused timestamp and
// response buffers, delta-encoded reply). A one-shot lease is retired
// before the reply is written, so it is gone by the time the client
// reads its timestamp.
func (st *binServerConn) getTS(payload []byte) {
	s := st.s
	start := time.Now()
	id, rest, err := sessionID(payload)
	if err != nil {
		st.writeError(binCodeBadRequest, "getts: "+err.Error())
		return
	}
	cnt, off, err := uvarint(rest, 0)
	if err != nil || off != len(rest) {
		st.writeError(binCodeBadRequest, "getts: malformed count")
		return
	}
	// The cap is checked on the count as sent: converted first, a count
	// of 2^63 or more would wrap negative and pass as a batch of one.
	if cnt > uint64(s.maxBatch) {
		st.writeError(binCodeBadRequest, fmt.Sprintf("count %d exceeds the batch cap %d", cnt, s.maxBatch))
		return
	}
	count := max(int(cnt), 1)
	ws, ok := s.lookupKey(id)
	if !ok {
		// Frames carry no namespace, so the rejection books under the
		// default namespace's id, 0.
		st.writeError(binCodeUnknownSession, s.rejectUnknownSession(0, string(id)))
		return
	}
	// One-shot-ness is the session's namespace's property, so the check
	// sits after the lookup (frames carry no namespace; the id binds it).
	if ws.object().OneShot() && count > 1 {
		st.writeError(binCodeBadRequest, fmt.Sprintf("a one-shot object issues one timestamp per process; ask for count 1, not %d", count))
		return
	}
	if cap(st.tsBuf) < count {
		st.tsBuf = make([]tsspace.Timestamp, count)
	}
	buf := st.tsBuf[:count]
	n, err := s.issue(s.binCtx, ws, buf)
	pid := ws.sess.Pid()
	if err != nil {
		err = fmt.Errorf("timestamp %d/%d: %w", n+1, count, err)
		st.writeError(s.classify(s.binCtx, ws.ns, ws.id, err), err.Error())
		return
	}
	st.out = beginFrame(st.out[:0], frameGetTSOK)
	st.out = appendTimestamps(st.out, pid, buf[:n])
	st.out = endFrame(st.out, 0)
	st.write()
	s.met.batches.Inc()
	d := time.Since(start)
	st.binGettsLat.Record(d.Nanoseconds())
	if d > slowOp {
		s.met.ring.RecordNS(obs.EventSlowOp, ws.ns.id, ws.idNum, int32(pid), d.Nanoseconds())
	}
}

// attachNS is the wire-v3 attach: the payload names a namespace
// (uvarint length + raw bytes) and the lease, owned by this connection,
// binds into that namespace's Object in the shared wire table. The
// reply is flagged one-shot when the namespace's object is. An
// unprovisioned name answers the broker's own unknown_namespace code,
// never unknown_session.
func (st *binServerConn) attachNS(payload []byte) {
	s := st.s
	l, off, err := uvarint(payload, 0)
	if err != nil || int(l) != len(payload)-off {
		st.writeError(binCodeBadRequest, "attach_ns: malformed namespace name")
		return
	}
	name := string(payload[off:])
	ns, ok := s.resolveNS(name)
	if !ok {
		s.rejectUnknownNamespace()
		st.writeError(binCodeUnknownNamespace, fmt.Sprintf("unknown namespace %q (never provisioned, or already deprovisioned)", name))
		return
	}
	ws, code, err := s.attach(s.binCtx, ns, st)
	if err != nil {
		st.writeError(code, err.Error())
		return
	}
	st.out = beginFrame(st.out[:0], frameAttachNSOK)
	st.out = appendAttach(st.out, ws.id, ws.sess.Pid(), s.sessionTTL.Milliseconds(), ns.obj.OneShot())
	st.out = endFrame(st.out, 0)
	st.write()
}

// detach returns a lease explicitly, whichever protocol attached it.
func (st *binServerConn) detach(payload []byte) {
	s := st.s
	id, rest, err := sessionID(payload)
	if err != nil || len(rest) != 0 {
		st.writeError(binCodeBadRequest, "detach: malformed session id")
		return
	}
	took := s.take(anyLease, string(id))
	if len(took) == 0 {
		st.writeError(binCodeUnknownSession, s.rejectUnknownSession(0, string(id)))
		return
	}
	calls := s.retire(took[0], retireDetach)
	st.out = beginFrame(st.out[:0], frameDetachOK)
	st.out = binary.AppendUvarint(st.out, uint64(calls))
	st.out = endFrame(st.out, 0)
	st.write()
}

// write flushes st.out into the buffered writer and counts the bytes; a
// failed write surfaces on the next Flush, ending the connection.
func (st *binServerConn) write() {
	_, _ = st.bw.Write(st.out)
	st.s.met.binBytesOut.Add(uint64(len(st.out)))
}

// writeError answers the current frame with an error frame.
func (st *binServerConn) writeError(code byte, msg string) {
	st.out = beginFrame(st.out[:0], frameError)
	st.out = appendError(st.out, code, msg)
	st.out = endFrame(st.out, 0)
	st.write()
}

// lookupKey is lookup for a raw id: the map access with string(id) is
// allocation-free, which keeps the per-frame path clean.
func (s *Server) lookupKey(id []byte) (*wireSession, bool) {
	s.sessMu.Lock()
	ws, ok := s.sessions[string(id)]
	s.sessMu.Unlock()
	return ws, ok
}
