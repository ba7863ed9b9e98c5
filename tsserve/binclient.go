package tsserve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tsspace"
)

// maxIdleBinConns caps the client's idle-connection pool; connections past
// the cap are closed on return instead of pooled.
const maxIdleBinConns = 64

// BinaryClient speaks the wire-v3 binary protocol to a tsserved daemon's
// -binary-addr listener. It pools TCP connections the way an HTTP client
// pools keep-alives: Attach takes a pooled (or freshly dialed) connection
// and binds it to the returned session; Detach returns it. Sessions are
// one logical client each, so one connection per live session is exactly
// the pipelining shape the server is built for.
//
// The binary protocol is the data plane only — health, metrics and the
// space report stay on the daemon's HTTP endpoints (see Client).
type BinaryClient struct {
	addr string

	mu     sync.Mutex
	idle   []*binClientConn
	closed bool
}

// NewBinaryClient returns a client for the daemon's binary listener at
// addr (e.g. "127.0.0.1:8038"). No connection is made until the first
// Attach.
func NewBinaryClient(addr string) *BinaryClient {
	return &BinaryClient{addr: addr}
}

// Addr returns the binary listener address the client dials.
func (c *BinaryClient) Addr() string { return c.addr }

// Close closes every pooled idle connection and refuses new work.
// Connections bound to live sessions are closed as their sessions detach.
func (c *BinaryClient) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, cn := range idle {
		_ = cn.c.Close()
	}
	return nil
}

// errBinaryClientClosed reports use after Close.
var errBinaryClientClosed = errors.New("tsserve: binary client closed")

// binClientConn is one pooled connection: the reused request buffer and
// frame reader that make the steady-state batch path allocation-free,
// plus the context wiring that lets a cancelled ctx unblock a read.
type binClientConn struct {
	c   net.Conn
	fr  frameReader
	br  *bufio.Reader
	out []byte // request scratch, reused per call

	// watchCtx/stopWatch implement ctx cancellation over blocking conn
	// I/O: an AfterFunc pokes the deadline when ctx fires. Re-armed only
	// when the ctx value changes, so a session driving every call with
	// one ctx pays the wiring once, not per op.
	watchCtx  context.Context
	stopWatch func() bool

	broken bool // protocol state unknown: close instead of pooling
}

func (c *BinaryClient) getConn(ctx context.Context) (*binClientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errBinaryClientClosed
	}
	if n := len(c.idle); n > 0 {
		cn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cn, nil
	}
	c.mu.Unlock()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write([]byte(BinaryMagic)); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	return &binClientConn{c: conn, br: br, fr: frameReader{r: br}}, nil
}

// putConn returns a connection to the idle pool; broken connections (and
// returns after Close) are closed instead.
func (c *BinaryClient) putConn(cn *binClientConn) {
	cn.unarm()
	if cn.broken {
		_ = cn.c.Close()
		return
	}
	c.mu.Lock()
	if c.closed || len(c.idle) >= maxIdleBinConns {
		c.mu.Unlock()
		_ = cn.c.Close()
		return
	}
	c.idle = append(c.idle, cn)
	c.mu.Unlock()
}

// arm wires ctx into the connection: the ctx deadline becomes the conn
// deadline, and a cancellation pokes the deadline to unblock a read in
// flight. Steady state (same ctx every call) costs two deadline stores
// and no allocation.
func (cn *binClientConn) arm(ctx context.Context) {
	if d, ok := ctx.Deadline(); ok {
		_ = cn.c.SetDeadline(d)
	} else {
		_ = cn.c.SetDeadline(time.Time{})
	}
	if ctx != cn.watchCtx {
		if cn.stopWatch != nil {
			cn.stopWatch()
		}
		cn.watchCtx = ctx
		cn.stopWatch = nil
		if ctx.Done() != nil {
			conn := cn.c
			//tslint:allow hotpath the cancellation watch arms once per bound context, not per call
			cn.stopWatch = context.AfterFunc(ctx, func() {
				_ = conn.SetDeadline(time.Unix(1, 0))
			})
		}
	}
}

// unarm detaches the connection from its last ctx before pooling, and
// clears any deadline a racing cancellation may have left behind.
func (cn *binClientConn) unarm() {
	if cn.stopWatch != nil {
		cn.stopWatch()
		cn.stopWatch = nil
	}
	cn.watchCtx = nil
	if !cn.broken {
		_ = cn.c.SetDeadline(time.Time{})
	}
}

// exchange writes the frame staged in cn.out and reads one response
// frame. Error frames decode to *APIError (the connection stays usable —
// framing is intact); I/O failures poison the connection and surface
// ctx.Err when the context caused them.
func (cn *binClientConn) exchange(ctx context.Context, wantType byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, err := cn.c.Write(cn.out); err != nil {
		cn.broken = true
		return nil, cn.ioErr(ctx, err)
	}
	typ, p, err := cn.fr.next()
	if err != nil {
		cn.broken = true
		return nil, cn.ioErr(ctx, err)
	}
	switch typ {
	case wantType:
		return p, nil
	case frameError:
		return nil, decodeError(p)
	}
	cn.broken = true
	//tslint:allow hotpath protocol-violation path: the connection is marked broken
	return nil, fmt.Errorf("tsserve: binary response type 0x%02x, want 0x%02x", typ, wantType)
}

func (cn *binClientConn) ioErr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
}

// Attach leases a server-side session over a pooled binary connection and
// binds the connection to the returned handle until Detach. The lease
// lives in the daemon's shared wire-session table: idle past the TTL it
// is reaped exactly like an HTTP lease, after which calls report
// tsspace.ErrDetached.
func (c *BinaryClient) Attach(ctx context.Context) (*BinarySession, error) {
	cn, err := c.getConn(ctx)
	if err != nil {
		return nil, err
	}
	cn.arm(ctx)
	cn.out = beginFrame(cn.out[:0], frameAttach)
	cn.out = endFrame(cn.out, 0)
	return c.finishAttach(ctx, cn, frameAttachOK)
}

// AttachNamespace leases a session bound into the named namespace via
// the attach_ns frame. The namespace must be provisioned over the
// daemon's HTTP broker surface first (Client.ProvisionNamespace);
// attaching into an unprovisioned name fails with ErrUnknownNamespace,
// and a namespace at its session quota with ErrQuota. The returned
// session is addressed by capability id exactly like Attach's — its
// steady-state GetTSBatch path is byte-identical and allocation-free.
func (c *BinaryClient) AttachNamespace(ctx context.Context, name string) (*BinarySession, error) {
	cn, err := c.getConn(ctx)
	if err != nil {
		return nil, err
	}
	cn.arm(ctx)
	cn.out = beginFrame(cn.out[:0], frameAttachNS)
	cn.out = binary.AppendUvarint(cn.out, uint64(len(name)))
	cn.out = append(cn.out, name...)
	cn.out = endFrame(cn.out, 0)
	return c.finishAttach(ctx, cn, frameAttachNSOK)
}

// finishAttach runs the staged attach exchange and decodes the reply
// shared by both attach forms.
func (c *BinaryClient) finishAttach(ctx context.Context, cn *binClientConn, okType byte) (*BinarySession, error) {
	p, err := cn.exchange(ctx, okType)
	if err != nil {
		c.putConn(cn) // broken conns are closed there; error frames leave it pooled
		return nil, err
	}
	id, pid, oneShot, err := decodeAttach(p)
	if err != nil {
		cn.broken = true
		c.putConn(cn)
		return nil, err
	}
	s := &BinarySession{c: c, cn: cn, pid: pid, oneShot: oneShot}
	copy(s.id[:], id)
	return s, nil
}

// BinarySession is a wire-v3 session: tsspace.SessionAPI over one
// dedicated pooled connection. Like every session it models one logical
// client — calls must be sequential. Its steady-state GetTS/GetTSBatch
// path performs zero heap allocations: one reused request buffer, one
// write, one framed read decoded straight into the caller's slice.
type BinarySession struct {
	c   *BinaryClient
	cn  *binClientConn
	id  [binIDLen]byte
	pid int
	// oneShot is the attach reply's flag: the daemon retires the lease
	// with its first timestamp, so once calls > 0 the session is spent.
	oneShot  bool
	calls    atomic.Int64
	detached atomic.Bool
}

var _ tsspace.SessionAPI = (*BinarySession)(nil)

// ID returns the wire session id (diagnostic). It addresses the same
// session space as wire-v2 ids.
func (s *BinarySession) ID() string { return string(s.id[:]) }

// Pid returns the daemon-side paper-process id backing the lease.
func (s *BinarySession) Pid() int { return s.pid }

// Calls returns the number of timestamps this handle has received.
func (s *BinarySession) Calls() int { return int(s.calls.Load()) }

// GetTS requests one timestamp on the session's lease.
func (s *BinarySession) GetTS(ctx context.Context) (tsspace.Timestamp, error) {
	var buf [1]tsspace.Timestamp
	if _, err := s.GetTSBatch(ctx, buf[:]); err != nil {
		return tsspace.Timestamp{}, err
	}
	return buf[0], nil
}

// spent reports whether the session is one-shot and has issued its
// timestamp: the daemon has already retired its lease.
func (s *BinarySession) spent() bool { return s.oneShot && s.calls.Load() > 0 }

// GetTSBatch fills dst with one pipelined batch: len(dst) timestamps
// issued back to back by the leased paper-process, each happens-before
// the next. An empty dst is a no-op. On a one-shot session the daemon
// retires the lease with its first timestamp; every later call fails
// with tsspace.ErrOneShot without a frame.
//
//tslint:hotpath
func (s *BinarySession) GetTSBatch(ctx context.Context, dst []tsspace.Timestamp) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if s.detached.Load() {
		return 0, tsspace.ErrDetached
	}
	if s.spent() {
		return 0, tsspace.ErrOneShot
	}
	cn := s.cn
	cn.arm(ctx)
	cn.out = beginFrame(cn.out[:0], frameGetTS)
	cn.out = append(cn.out, s.id[:]...)
	cn.out = binary.AppendUvarint(cn.out, uint64(len(dst)))
	cn.out = endFrame(cn.out, 0)
	p, err := cn.exchange(ctx, frameGetTSOK)
	if err != nil {
		return 0, err
	}
	_, n, err := decodeTimestamps(p, dst)
	if err != nil {
		cn.broken = true
		return 0, err
	}
	s.calls.Add(int64(n))
	return n, nil
}

// Detach releases the server-side lease and returns the connection to the
// pool. A lease the daemon already reaped counts as detached, not as an
// error. A spent one-shot session sends nothing: the daemon retired its
// lease when it issued the timestamp. Detach is idempotent.
func (s *BinarySession) Detach() error {
	if !s.detached.CompareAndSwap(false, true) {
		return nil
	}
	cn := s.cn
	if s.spent() {
		s.c.putConn(cn)
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cn.arm(ctx)
	cn.out = beginFrame(cn.out[:0], frameDetach)
	cn.out = append(cn.out, s.id[:]...)
	cn.out = endFrame(cn.out, 0)
	p, err := cn.exchange(ctx, frameDetachOK)
	if err != nil {
		s.c.putConn(cn)
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Code == CodeUnknownSession {
			return nil // reaped (or raced another detach): the lease is gone either way
		}
		return err
	}
	if _, _, err := uvarint(p, 0); err != nil { // lifetime calls; advisory
		cn.broken = true
		s.c.putConn(cn)
		return err
	}
	s.c.putConn(cn)
	return nil
}
