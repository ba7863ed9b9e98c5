package tsserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tsspace"
)

// ErrProtocol is wrapped when a daemon reply violates the wire
// contract (impossible counts, malformed payloads).
var ErrProtocol = errors.New("tsserve: protocol violation")

// defaultClient is the HTTP client every NewClient(url, nil) shares: a
// keep-alive transport tuned for session pipelining, so consecutive
// requests — and the many workers of a tsload run — reuse connections
// instead of paying a TCP handshake per call. The idle-connection caps
// cover worker counts well past the defaults (DefaultTransport allows only
// 2 idle connections per host, which collapses under even modest
// concurrency).
var defaultClient = sync.OnceValue(func() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 64
	tr.IdleConnTimeout = 90 * time.Second
	return &http.Client{Transport: tr}
})

// Client is the Go client of a tsserved daemon. Batches go over the
// wire exactly as any other client's would; timestamps are ordered
// locally with tsspace.Less.
//
// A Client binds to one namespace. NewClient binds the default
// namespace (the daemon's constructor Object); Namespace derives a
// client bound to a provisioned one. The broker surface — Catalog,
// ProvisionNamespace, DeprovisionNamespace, Namespaces, Metrics — is
// daemon-global and ignores the binding.
type Client struct {
	base string
	hc   *http.Client
	// prefix scopes the session-plane paths: "" for the default
	// namespace, "/ns/{name}" for a bound one.
	prefix string
}

// NewClient returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8037"). hc may be nil for the package's shared
// keep-alive client (MaxIdleConnsPerHost 64 — enough connection reuse for
// that many concurrent workers); pass an explicit client to tune the
// transport further.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = defaultClient()
	}
	return &Client{base: baseURL, hc: hc}
}

// BaseURL returns the daemon URL the client talks to.
func (c *Client) BaseURL() string { return c.base }

// Namespace derives a client bound to the named namespace: its Attach
// calls route through /ns/{name}/... and its Health reports
// that namespace. The namespace must be provisioned (see
// ProvisionNamespace) or "default"; calls against an unprovisioned name
// fail with ErrUnknownNamespace. The derived client shares the
// transport.
func (c *Client) Namespace(name string) *Client {
	if name == "" || name == DefaultNamespace {
		return &Client{base: c.base, hc: c.hc}
	}
	return &Client{base: c.base, hc: c.hc, prefix: "/ns/" + name}
}

// scoped maps a session-plane path through the namespace binding.
func (c *Client) scoped(path string) string { return c.prefix + path }

// APIError is a non-2xx response from the daemon. Is maps the wire codes
// back to the SDK's typed errors, so errors.Is(err, tsspace.ErrExhausted)
// works across the network boundary.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
}

// Error renders the failure.
func (e *APIError) Error() string {
	return fmt.Sprintf("tsserve: %s (%d %s)", e.Message, e.StatusCode, e.Code)
}

// Is reports whether the wire code corresponds to target.
func (e *APIError) Is(target error) bool {
	switch target {
	case tsspace.ErrExhausted:
		return e.Code == CodeExhausted
	case tsspace.ErrClosed:
		return e.Code == CodeClosed
	case tsspace.ErrDetached:
		return e.Code == CodeUnknownSession
	case ErrUnknownNamespace:
		return e.Code == CodeUnknownNamespace
	case ErrNamespaceExists:
		return e.Code == CodeNamespaceExists
	case ErrQuota:
		return e.Code == CodeQuota
	}
	return false
}

// Attach leases a server-side session (wire v2) and returns its handle.
// The lease pins one of the daemon's paper-processes until Detach — or
// until it sits idle past the daemon's TTL and is reaped, after which the
// handle's calls report tsspace.ErrDetached.
func (c *Client) Attach(ctx context.Context) (*RemoteSession, error) {
	var resp AttachResponse
	if err := c.post(ctx, c.scoped("/session"), struct{}{}, &resp); err != nil {
		return nil, err
	}
	return &RemoteSession{c: c, id: resp.SessionID, pid: resp.Pid, oneShot: resp.OneShot}, nil
}

// RemoteSession is a wire-v2 session: the tsspace.SessionAPI semantics of
// a local Session — one leased paper-process, sequential batches, each
// timestamp happens-before the next — over HTTP. Like a local Session it
// models one logical client: its GetTS/GetTSBatch calls must be
// sequential (the server additionally serializes same-session requests,
// so a misbehaving caller degrades to queueing, never to corruption).
type RemoteSession struct {
	c   *Client
	id  string
	pid int
	// oneShot is the attach reply's flag: the daemon retires the lease
	// with its first timestamp, so once calls > 0 the session is spent.
	oneShot  bool
	calls    atomic.Int64
	detached atomic.Bool
}

var _ tsspace.SessionAPI = (*RemoteSession)(nil)

// ID returns the wire session id (diagnostic).
func (s *RemoteSession) ID() string { return s.id }

// Pid returns the daemon-side paper-process id backing the lease.
func (s *RemoteSession) Pid() int { return s.pid }

// Calls returns the number of timestamps this handle has received.
func (s *RemoteSession) Calls() int { return int(s.calls.Load()) }

// GetTS requests one timestamp on the session's lease.
func (s *RemoteSession) GetTS(ctx context.Context) (tsspace.Timestamp, error) {
	var buf [1]tsspace.Timestamp
	if _, err := s.GetTSBatch(ctx, buf[:]); err != nil {
		return tsspace.Timestamp{}, err
	}
	return buf[0], nil
}

// spent reports whether the session is one-shot and has issued its
// timestamp: the daemon has already retired its lease.
func (s *RemoteSession) spent() bool { return s.oneShot && s.calls.Load() > 0 }

// GetTSBatch fills dst with one session-scoped pipelined batch: len(dst)
// timestamps issued back to back by the leased paper-process, each
// happens-before the next. An empty dst is a no-op. On a one-shot
// session the daemon retires the lease with its first timestamp; every
// later call fails with tsspace.ErrOneShot without a request.
func (s *RemoteSession) GetTSBatch(ctx context.Context, dst []tsspace.Timestamp) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if s.detached.Load() {
		return 0, tsspace.ErrDetached
	}
	if s.spent() {
		return 0, tsspace.ErrOneShot
	}
	var resp GetTSResponse
	if err := s.c.post(ctx, s.c.scoped("/session/"+s.id+"/getts"), GetTSRequest{Count: len(dst)}, &resp); err != nil {
		return 0, err
	}
	if len(resp.Timestamps) > len(dst) {
		return 0, fmt.Errorf("%w: daemon returned %d timestamps for a batch of %d", ErrProtocol, len(resp.Timestamps), len(dst))
	}
	for i, ts := range resp.Timestamps {
		dst[i] = ts.Timestamp()
	}
	s.calls.Add(int64(len(resp.Timestamps)))
	return len(resp.Timestamps), nil
}

// Detach releases the server-side lease. A lease the daemon already
// reaped counts as detached, not as an error. A spent one-shot session
// sends nothing: the daemon retired its lease when it issued the
// timestamp. Detach is idempotent.
func (s *RemoteSession) Detach() error {
	if !s.detached.CompareAndSwap(false, true) || s.spent() {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var resp DetachResponse
	err := s.c.del(ctx, s.c.scoped("/session/"+s.id), &resp)
	if err != nil {
		if apiErr, ok := err.(*APIError); ok && apiErr.Code == CodeUnknownSession {
			return nil // reaped (or raced another detach): the lease is gone either way
		}
		return err
	}
	return nil
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.get(ctx, c.scoped("/healthz"), &h)
	return h, err
}

// Metrics fetches /metrics. The body is daemon-global: it carries the
// per-namespace section regardless of the client's binding.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	var m Metrics
	err := c.get(ctx, "/metrics", &m)
	return m, err
}

// Catalog fetches GET /catalog: the daemon's registered algorithms, the
// broker's "what can be provisioned" surface.
func (c *Client) Catalog(ctx context.Context) ([]CatalogEntry, error) {
	var resp CatalogResponse
	if err := c.get(ctx, "/catalog", &resp); err != nil {
		return nil, err
	}
	return resp.Algorithms, nil
}

// Namespaces fetches GET /ns: every live namespace name, sorted,
// "default" included.
func (c *Client) Namespaces(ctx context.Context) ([]string, error) {
	var resp NamespaceList
	if err := c.get(ctx, "/ns", &resp); err != nil {
		return nil, err
	}
	return resp.Namespaces, nil
}

// ProvisionNamespace PUTs /ns/{name}: provision a named Object to bind
// sessions into (see Namespace). Re-provisioning an identical spec is
// idempotent (Created false in the response); a conflicting spec fails
// with ErrNamespaceExists, and the server's namespace cap with ErrQuota.
func (c *Client) ProvisionNamespace(ctx context.Context, name string, req ProvisionRequest) (ProvisionResponse, error) {
	var resp ProvisionResponse
	err := c.put(ctx, "/ns/"+name, req, &resp)
	return resp, err
}

// DeprovisionNamespace DELETEs /ns/{name}: force-detach the namespace's
// live leases and close its Object. Deleting an absent namespace fails
// with ErrUnknownNamespace.
func (c *Client) DeprovisionNamespace(ctx context.Context, name string) (DeprovisionResponse, error) {
	var resp DeprovisionResponse
	err := c.del(ctx, "/ns/"+name, &resp)
	return resp, err
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) put(ctx context.Context, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) del(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var body ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return &APIError{StatusCode: resp.StatusCode, Code: CodeInternal,
				Message: fmt.Sprintf("undecodable error body: %v", err)}
		}
		return &APIError{StatusCode: resp.StatusCode, Code: body.Code, Message: body.Error}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
