package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"

	"tsspace"
	"tsspace/tsserve"
)

// stack is one self-hosted deployment: the default Object, the server
// with both listeners, the clients, and — for steady workloads — the
// attached sessions. Building it is what setup_s times.
type stack struct {
	obj   *tsspace.Object
	srv   *tsserve.Server
	hs    *http.Server
	hln   net.Listener
	bln   net.Listener
	serve sync.WaitGroup

	tr  *http.Transport
	ctl *tsserve.Client // HTTP control plane
	bc  *tsserve.BinaryClient

	sessions []*tsserve.BinarySession // steady workloads: one per caller
	rot      *rotator                 // one-shot workload: the live sqrt namespace
}

// setup builds a stack for w and returns once every session can issue
// its first timestamp: steady sessions are attached; one-shot sessions
// attach per operation, so their stack is ready once the first sqrt
// namespace is provisioned. Client calls are spanned on tr.
func setup(ctx context.Context, w workload, seed uint64, tr *tracer) (*stack, error) {
	st := &stack{}
	obj, err := tsspace.New(tsspace.WithAlgorithm(defaultAlg), tsspace.WithProcs(defaultProcs), tsspace.WithMetering())
	if err != nil {
		return nil, err
	}
	st.obj = obj
	st.srv = tsserve.NewServer(obj, tsserve.ServerConfig{})
	if st.hln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		st.close(tr)
		return nil, err
	}
	if st.bln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		st.close(tr)
		return nil, err
	}
	st.hs = &http.Server{Handler: st.srv}
	st.serve.Add(2)
	go func() { defer st.serve.Done(); _ = st.hs.Serve(st.hln) }()
	go func() { defer st.serve.Done(); _ = st.srv.ServeBinary(st.bln) }()

	st.tr = &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	st.ctl = tsserve.NewClient("http://"+st.hln.Addr().String(), &http.Client{Transport: st.tr})
	st.bc = tsserve.NewBinaryClient(st.bln.Addr().String())

	if w.oneShot {
		st.rot = &rotator{ctl: st.ctl, prefix: fmt.Sprintf("os%x", seed&0xffff)}
		if err := st.rot.provision(ctx, tr); err != nil {
			st.close(tr)
			return nil, fmt.Errorf("provision the first one-shot namespace: %w", err)
		}
		return st, nil
	}
	for i := 0; i < w.sessions; i++ {
		var a int64
		if tr.on {
			a = tr.now()
		}
		s, err := st.bc.Attach(ctx)
		if tr.on {
			tr.span(kAttach, a, tr.now())
		}
		if err != nil {
			st.close(tr)
			return nil, fmt.Errorf("attach session %d: %w", i, err)
		}
		st.sessions = append(st.sessions, s)
	}
	return st, nil
}

// close detaches the sessions (spanned on tr), shuts the server and
// listeners down, and waits for the serve loops to exit.
func (st *stack) close(tr *tracer) error {
	var first error
	for _, s := range st.sessions {
		var a int64
		if tr.on {
			a = tr.now()
		}
		if err := s.Detach(); err != nil && first == nil {
			first = fmt.Errorf("detach: %w", err)
		}
		if tr.on {
			tr.span(kDetach, a, tr.now())
		}
	}
	st.sessions = nil
	if st.bc != nil {
		_ = st.bc.Close()
	}
	_ = st.srv.Close()
	if st.hs != nil {
		_ = st.hs.Close()
	} else if st.hln != nil {
		_ = st.hln.Close()
	}
	if st.bln != nil {
		_ = st.bln.Close()
	}
	st.serve.Wait()
	if st.tr != nil {
		st.tr.CloseIdleConnections()
	}
	_ = st.obj.Close()
	return first
}

// rotator owns the one-shot workload's live sqrt namespace. Operations
// hold the read lock from attach to detach; replacing an exhausted
// namespace takes the write lock, so no lease is cut off by the
// deprovision.
type rotator struct {
	mu     sync.RWMutex
	ctl    *tsserve.Client
	prefix string
	name   string
	gen    uint64

	// Space of the namespaces retired so far, read before deprovisioning.
	retired    uint64
	maxWritten int
	maxRegs    int
}

func (r *rotator) provision(ctx context.Context, tr *tracer) error {
	r.name = fmt.Sprintf("%s-%d", r.prefix, r.gen)
	var a int64
	if tr.on {
		a = tr.now()
	}
	resp, err := r.ctl.ProvisionNamespace(ctx, r.name, tsserve.ProvisionRequest{Algorithm: oneShotAlg, Procs: oneShotProcs})
	if tr.on {
		tr.span(kProvision, a, tr.now())
	}
	if err != nil {
		return err
	}
	if resp.Registers != oneShotRegs || !resp.OneShot {
		return fmt.Errorf("namespace %s: %d registers, one-shot %t; want %d, true", r.name, resp.Registers, resp.OneShot, oneShotRegs)
	}
	return nil
}

// space reads the live namespace's written-register count over the
// control plane.
func (r *rotator) space(ctx context.Context) (written, registers int, err error) {
	m, err := r.ctl.Metrics(ctx)
	if err != nil {
		return 0, 0, err
	}
	for _, ns := range m.Namespaces {
		if ns.Name == r.name {
			if ns.Space == nil {
				return 0, 0, fmt.Errorf("namespace %s is not metered", r.name)
			}
			return ns.Space.Written, ns.Space.Registers, nil
		}
	}
	return 0, 0, fmt.Errorf("namespace %s missing from /metrics", r.name)
}

// rotate retires namespace generation gen — reads its space,
// deprovisions it, provisions the next — unless another session
// already did.
func (r *rotator) rotate(ctx context.Context, gen uint64, tr *tracer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gen != gen {
		return nil
	}
	var a int64
	if tr.on {
		a = tr.now()
	}
	written, regs, err := r.space(ctx)
	if tr.on {
		tr.span(kReadSpace, a, tr.now())
	}
	if err != nil {
		return err
	}
	r.retired++
	r.maxWritten = max(r.maxWritten, written)
	r.maxRegs = max(r.maxRegs, regs)
	if tr.on {
		a = tr.now()
	}
	_, err = r.ctl.DeprovisionNamespace(ctx, r.name)
	if tr.on {
		tr.span(kDeprovision, a, tr.now())
	}
	if err != nil {
		return err
	}
	r.gen++
	return r.provision(ctx, tr)
}

// oneShotOp is one one-shot operation: attach into the live namespace,
// take its one timestamp, detach. Exhaustion rotates the namespace and
// retries; it is expected and never counted as a failure.
func (d *caller) oneShotOp(ctx context.Context) (stamp, error) {
	r, tr := d.st.rot, d.tr
	for {
		r.mu.RLock()
		name, gen := r.name, r.gen
		var a int64
		if tr.on {
			a = tr.now()
		}
		s, err := d.st.bc.AttachNamespace(ctx, name)
		if tr.on {
			tr.span(kAttach, a, tr.now())
		}
		if errors.Is(err, tsspace.ErrExhausted) {
			r.mu.RUnlock()
			d.exhausted++
			if err := r.rotate(ctx, gen, tr); err != nil {
				return stamp{}, fmt.Errorf("re-provision after exhaustion: %w", err)
			}
			continue
		}
		if err != nil {
			r.mu.RUnlock()
			return stamp{}, fmt.Errorf("attach %s: %w", name, err)
		}
		if tr.on {
			a = tr.now()
		}
		ts, err := s.GetTS(ctx)
		if tr.on {
			tr.span(kGetTS, a, tr.now())
			a = tr.now()
		}
		derr := s.Detach()
		if tr.on {
			tr.span(kDetach, a, tr.now())
		}
		r.mu.RUnlock()
		if err != nil {
			return stamp{}, fmt.Errorf("getts on %s: %w", name, err)
		}
		if derr != nil {
			return stamp{}, fmt.Errorf("detach from %s: %w", name, derr)
		}
		return stamp{ts: ts, gen: gen}, nil
	}
}
