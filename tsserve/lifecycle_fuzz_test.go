package tsserve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"tsspace"
)

// The lease-lifecycle fuzz harness drives a small server through
// generated sequences of attaches, batches, detaches, reaper ticks,
// connection drops, provisions and deprovisions over both wires, and
// after every step holds the server's books against a reference model.
const (
	lcProcs    = 4  // n of the default namespace and of every provisioned one
	lcQuota    = 2  // session quota of the provisioned namespaces
	lcMaxSteps = 64 // steps decoded from one input
)

// lcNames are the namespaces a run may provision, and lcAlgs their
// algorithms: ns0 is long-lived, ns1 one-shot, so its n timestamps form
// a budget that leases spend and attaches exhaust.
var (
	lcNames = [2]string{"ns0", "ns1"}
	lcAlgs  = [2]string{"collect", "sqrt"}
)

// lcOneShot is the one-shot namespace.
const lcOneShot = "ns1"

// Step opcodes, one input byte each, followed by one argument byte.
const (
	lcAttachHTTP   = iota // arg picks the namespace: default, ns0, ns1
	lcAttachBinary        // likewise, over wire v3
	lcGetTS               // arg picks a live lease
	lcDetachHTTP          // arg picks any lease, retired ones included
	lcDetachBinary        // likewise, over wire v3
	lcReap                // a reaper tick past every lease's TTL
	lcDrop                // close every binary client connection
	lcProvision           // arg picks the name
	lcDeprovision         // likewise, with its leases still live
	lcOps
)

// lcLease is one lease the model saw attached.
type lcLease struct {
	id     string
	ns     string
	binary bool
	live   bool
	sess   tsspace.SessionAPI // the attaching client's handle
}

// oneShot reports whether the lease ends with its first timestamp.
func (l *lcLease) oneShot() bool { return l.ns == lcOneShot }

// lcHarness is the system under test plus the model it is held against.
type lcHarness struct {
	t       *testing.T
	ctx     context.Context
	s       *Server
	c       *Client
	bc      *BinaryClient
	binAddr string
	trace   []string // the steps so far, for failure reports

	// The model.
	provisioned map[string]bool
	leases      []*lcLease
	issued      map[string][]tsspace.Timestamp // per namespace, in completion order
	spent       map[string]int                 // one-shot timestamps issued, per namespace
	reaped      uint64
	crashed     uint64
	unknownSess uint64
	unknownNS   uint64
}

func newLCHarness(t *testing.T) *lcHarness {
	obj, err := tsspace.New(tsspace.WithAlgorithm("collect"), tsspace.WithProcs(lcProcs))
	if err != nil {
		t.Fatal(err)
	}
	// An hour-long TTL keeps the background reaper out of the run: only
	// the harness's synthetic ticks reap.
	s := NewServer(obj, ServerConfig{SessionTTL: time.Hour})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeBinary(ln)
	hs := httptest.NewServer(s)
	h := &lcHarness{
		t: t, ctx: context.Background(), s: s,
		c:           NewClient(hs.URL, hs.Client()),
		bc:          NewBinaryClient(ln.Addr().String()),
		binAddr:     ln.Addr().String(),
		provisioned: map[string]bool{},
		issued:      map[string][]tsspace.Timestamp{},
		spent:       map[string]int{},
	}
	t.Cleanup(func() {
		h.closeBinary()
		hs.Close()
		s.Close()
		obj.Close()
	})
	return h
}

func (h *lcHarness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("after steps [%s]: %s", strings.Join(h.trace, " "), fmt.Sprintf(format, args...))
}

// live counts the model's live leases in the named namespace.
func (h *lcHarness) live(ns string) int {
	n := 0
	for _, l := range h.leases {
		if l.live && l.ns == ns {
			n++
		}
	}
	return n
}

func (h *lcHarness) step(op byte, arg int) {
	h.trace = append(h.trace, fmt.Sprintf("%d:%d", op, arg))
	switch op {
	case lcAttachHTTP, lcAttachBinary:
		ns := DefaultNamespace
		if arg%3 > 0 {
			ns = lcNames[arg%3-1]
		}
		h.attach(op == lcAttachBinary, ns)
	case lcGetTS:
		h.getTS(arg)
	case lcDetachHTTP, lcDetachBinary:
		h.detach(op == lcDetachBinary, arg)
	case lcReap:
		h.s.reapIdle(time.Now().Add(h.s.sessionTTL + time.Second))
		for _, l := range h.leases {
			if l.live {
				l.live = false
				h.reaped++
			}
		}
	case lcDrop:
		h.drop()
	case lcProvision:
		h.provision(arg % 2)
	case lcDeprovision:
		h.deprovision(lcNames[arg%2])
	}
}

// attach leases a session in ns. The server checks the namespace, then
// its quota, then the one-shot budget; an attach that passes all three
// with every pid leased or spent would queue on the pid pool, so the
// harness skips it.
func (h *lcHarness) attach(binary bool, ns string) {
	known := ns == DefaultNamespace || h.provisioned[ns]
	live, spent := h.live(ns), h.spent[ns]
	switch {
	case ns == DefaultNamespace && live >= lcProcs,
		known && ns == lcOneShot && live < lcQuota && spent < lcProcs && spent+live >= lcProcs:
		return // every pid is leased or spent: the attach would queue
	}
	var sess tsspace.SessionAPI
	var id string
	var err error
	if binary {
		var bs *BinarySession
		if bs, err = h.bc.AttachNamespace(h.ctx, ns); err == nil {
			sess, id = bs, bs.ID()
		}
	} else {
		var rs *RemoteSession
		if rs, err = h.c.Namespace(ns).Attach(h.ctx); err == nil {
			sess, id = rs, rs.ID()
		}
	}
	switch {
	case !known:
		if !errors.Is(err, ErrUnknownNamespace) {
			h.fatalf("attach into unprovisioned %s = %v, want ErrUnknownNamespace", ns, err)
		}
		h.unknownNS++
	case ns != DefaultNamespace && live >= lcQuota:
		if !errors.Is(err, ErrQuota) {
			h.fatalf("attach into full %s = %v, want ErrQuota", ns, err)
		}
	case ns == lcOneShot && spent >= lcProcs:
		if !errors.Is(err, tsspace.ErrExhausted) {
			h.fatalf("attach into spent %s = %v, want ErrExhausted", ns, err)
		}
	case err != nil:
		h.fatalf("attach into %s: %v", ns, err)
	default:
		h.leases = append(h.leases, &lcLease{id: id, ns: ns, binary: binary, live: true, sess: sess})
	}
}

// getTS takes one timestamp on a live lease, which must order after
// every timestamp its namespace completed before. A one-shot lease ends
// with it: the server has retired it by the time the timestamp arrives,
// which the books must show before the handle's Detach, and that Detach
// must send nothing — a detach frame or request would come back
// unknown_session and move the counter the next check holds.
func (h *lcHarness) getTS(pick int) {
	var live []*lcLease
	for _, l := range h.leases {
		if l.live {
			live = append(live, l)
		}
	}
	if len(live) == 0 {
		return
	}
	l := live[pick%len(live)]
	ts, err := l.sess.GetTS(h.ctx)
	if err != nil {
		h.fatalf("getts on live lease %s: %v", l.id, err)
	}
	for _, prev := range h.issued[l.ns] {
		if !tsspace.Less(prev, ts) {
			h.fatalf("%s: %v does not order after the earlier %v", l.ns, ts, prev)
		}
	}
	h.issued[l.ns] = append(h.issued[l.ns], ts)
	if l.oneShot() {
		l.live = false
		h.spent[l.ns]++
		h.check()
		if err := l.sess.Detach(); err != nil {
			h.fatalf("detach of spent one-shot lease %s: %v", l.id, err)
		}
	}
}

// detach sends a detach for any lease the model saw, bypassing the
// client handles (which short-circuit a second detach), so retired ids
// reach the server too.
func (h *lcHarness) detach(binary bool, pick int) {
	if len(h.leases) == 0 {
		return
	}
	l := h.leases[pick%len(h.leases)]
	var err error
	if binary {
		err = h.binaryDetach(l.id)
	} else {
		nc := h.c.Namespace(l.ns)
		err = nc.del(h.ctx, nc.scoped("/session/"+l.id), &DetachResponse{})
	}
	switch {
	case !binary && l.ns != DefaultNamespace && !h.provisioned[l.ns]:
		// The namespace-scoped route resolves the name before the id.
		if !errors.Is(err, ErrUnknownNamespace) {
			h.fatalf("http detach through deprovisioned %s = %v, want ErrUnknownNamespace", l.ns, err)
		}
		h.unknownNS++
	case l.live:
		if err != nil {
			h.fatalf("detach of live lease %s: %v", l.id, err)
		}
		l.live = false
	default:
		if !errors.Is(err, tsspace.ErrDetached) {
			h.fatalf("detach of retired lease %s = %v, want unknown_session", l.id, err)
		}
		h.unknownSess++
	}
}

// binaryDetach sends one raw detach frame over a pooled connection.
func (h *lcHarness) binaryDetach(id string) error {
	cn, err := h.bc.getConn(h.ctx)
	if err != nil {
		h.fatalf("binary dial: %v", err)
	}
	defer h.bc.putConn(cn)
	cn.arm(h.ctx)
	cn.out = beginFrame(cn.out[:0], frameDetach)
	cn.out = append(cn.out, id...)
	cn.out = endFrame(cn.out, 0)
	_, err = cn.exchange(h.ctx, frameDetachOK)
	return err
}

// closeBinary closes every connection the binary client holds: the ones
// bound to session handles and the idle pool.
func (h *lcHarness) closeBinary() {
	for _, l := range h.leases {
		if bs, ok := l.sess.(*BinarySession); ok {
			_ = bs.cn.c.Close()
		}
	}
	_ = h.bc.Close()
}

// drop closes every binary connection and waits — on the server, not
// the clock — for it to reclaim the live binary leases as crashes: until
// the crash-reclaimed counter reaches the model's tally and every
// connection's teardown has finished (retire books the counter before
// its SDK detach).
func (h *lcHarness) drop() {
	h.closeBinary()
	h.bc = NewBinaryClient(h.binAddr)
	for _, l := range h.leases {
		if l.live && l.binary {
			l.live = false
			h.crashed++
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		h.s.binMu.Lock()
		conns := len(h.s.binConns)
		h.s.binMu.Unlock()
		if conns == 0 && h.s.met.crashReclaimed.Value() >= h.crashed {
			return
		}
		if time.Now().After(deadline) {
			h.fatalf("crash-reclaimed %d of %d dropped leases; %d connections not torn down",
				h.s.met.crashReclaimed.Value(), h.crashed, conns)
		}
		runtime.Gosched()
	}
}

func (h *lcHarness) provision(i int) {
	name := lcNames[i]
	resp, err := h.c.ProvisionNamespace(h.ctx, name, ProvisionRequest{Algorithm: lcAlgs[i], Procs: lcProcs, MaxSessions: lcQuota})
	if err != nil {
		h.fatalf("provision %s: %v", name, err)
	}
	if resp.Created == h.provisioned[name] {
		h.fatalf("provision %s: created %v, but it was provisioned: %v", name, resp.Created, h.provisioned[name])
	}
	if resp.Created {
		h.issued[name], h.spent[name] = nil, 0 // a fresh Object
	}
	h.provisioned[name] = true
}

func (h *lcHarness) deprovision(name string) {
	resp, err := h.c.DeprovisionNamespace(h.ctx, name)
	if !h.provisioned[name] {
		if !errors.Is(err, ErrUnknownNamespace) {
			h.fatalf("deprovision of unprovisioned %s = %v, want ErrUnknownNamespace", name, err)
		}
		h.unknownNS++
		return
	}
	if err != nil {
		h.fatalf("deprovision %s: %v", name, err)
	}
	if want := h.live(name); resp.ReleasedSessions != want {
		h.fatalf("deprovision %s released %d leases, want %d", name, resp.ReleasedSessions, want)
	}
	for _, l := range h.leases {
		if l.ns == name {
			l.live = false
		}
	}
	h.provisioned[name] = false
}

// check holds the server's books against the model: per namespace, the
// quota slots held, the table entries bound to it, the Object's active
// sessions and the model's live leases all agree; so do the reap,
// crash, unknown-session and unknown-namespace counters and the
// binary-session split.
func (h *lcHarness) check() {
	h.t.Helper()
	s := h.s
	nss := s.namespaceList()
	provisioned := 0
	for _, up := range h.provisioned {
		if up {
			provisioned++
		}
	}
	if len(nss) != 1+provisioned {
		h.fatalf("server has %d namespaces, model %d", len(nss), 1+provisioned)
	}
	bound := map[*namespace]int64{}
	var binary int
	s.sessMu.Lock()
	for _, ws := range s.sessions {
		bound[ws.ns]++
		if ws.owner != nil {
			binary++
		}
	}
	s.sessMu.Unlock()
	for _, ns := range nss {
		want := int64(h.live(ns.name))
		held, active := ns.active.Load(), int64(ns.obj.Stats().ActiveSessions)
		if held != want || bound[ns] != want || active != want {
			h.fatalf("%s: quota held %d, table %d, Object active %d; model has %d live leases",
				ns.name, held, bound[ns], active, want)
		}
	}
	wantBinary := 0
	for _, l := range h.leases {
		if l.live && l.binary {
			wantBinary++
		}
	}
	if _, got := s.sessionCounts(); got != wantBinary {
		h.fatalf("%d binary sessions, model %d", got, wantBinary)
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"reaped", s.met.reaped.Value(), h.reaped},
		{"crash-reclaimed", s.met.crashReclaimed.Value(), h.crashed},
		{"unknown-session", s.met.unknownSessions.Value(), h.unknownSess},
		{"unknown-namespace", s.met.unknownNamespaces.Value(), h.unknownNS},
	} {
		if c.got != c.want {
			h.fatalf("%s counter %d, model %d", c.name, c.got, c.want)
		}
	}
}

// FuzzLeaseLifecycle decodes each input into at most lcMaxSteps (opcode,
// argument) byte pairs and checks the server against the model after
// every step.
func FuzzLeaseLifecycle(f *testing.F) {
	for _, seed := range [][]byte{
		// Quota on both wires, then a deprovision under live leases and
		// detaches of its ids through the dead route and over binary.
		{lcProvision, 0, lcAttachHTTP, 1, lcAttachBinary, 1, lcAttachHTTP, 1, lcAttachBinary, 1,
			lcGetTS, 0, lcGetTS, 1, lcDeprovision, 0, lcDetachHTTP, 0, lcDetachBinary, 1,
			lcDeprovision, 0, lcProvision, 0, lcAttachHTTP, 1, lcDetachHTTP, 0, lcDetachHTTP, 2},
		// Crash and reap: binary leases die with their connections, the
		// reaper takes the rest, and every id detaches as unknown after.
		{lcAttachHTTP, 0, lcAttachBinary, 0, lcAttachBinary, 0, lcGetTS, 0, lcGetTS, 1, lcGetTS, 2,
			lcDrop, 0, lcAttachBinary, 0, lcReap, 0, lcDetachHTTP, 0, lcDetachBinary, 3,
			lcAttachBinary, 0, lcGetTS, 0, lcDetachBinary, 4, lcDetachBinary, 4, lcDrop, 0},
		// A full default namespace, cross-wire detaches, and a second
		// namespace churned alongside.
		{lcAttachHTTP, 0, lcAttachHTTP, 0, lcAttachBinary, 0, lcAttachBinary, 0, lcAttachHTTP, 0,
			lcDetachBinary, 0, lcDetachHTTP, 2, lcAttachBinary, 0, lcProvision, 1, lcAttachBinary, 2,
			lcGetTS, 3, lcReap, 0, lcProvision, 1, lcAttachHTTP, 2, lcDeprovision, 1, lcGetTS, 0},
		// The one-shot namespace's budget spent over both wires: each
		// getTS ends its lease, a full quota refuses before the budget,
		// an attach that would queue is skipped, exhaustion refuses, the
		// spent ids detach as unknown on both wires, and a deprovision
		// and re-provision bring a fresh budget.
		{lcProvision, 1, lcAttachHTTP, 2, lcGetTS, 0, lcAttachBinary, 2, lcGetTS, 0,
			lcAttachHTTP, 2, lcAttachBinary, 2, lcAttachHTTP, 2, lcGetTS, 0, lcAttachBinary, 2,
			lcGetTS, 0, lcAttachBinary, 2, lcAttachHTTP, 2, lcDetachBinary, 0, lcDetachHTTP, 1,
			lcDeprovision, 1, lcProvision, 1, lcAttachBinary, 2, lcGetTS, 0, lcDeprovision, 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		h := newLCHarness(t)
		for i := 0; i+1 < len(prog) && i/2 < lcMaxSteps; i += 2 {
			h.step(prog[i]%lcOps, int(prog[i+1]))
			h.check()
		}
	})
}
