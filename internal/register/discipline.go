package register

import "fmt"

// WriteQuorum restricts which processes may write which registers,
// validating register-sharing disciplines such as Algorithm 2's
// "multi-reader/2-writer registers: register R[i] is written by processes
// 2i and 2i+1" (§5). Violations panic, because they indicate a broken
// algorithm rather than a recoverable runtime condition.
//
// All operations must go through PerProcess handles so that writes carry
// the writer's identity.
type WriteQuorum struct {
	inner   Mem
	writers [][]int // writers[i] = pids allowed to write register i; nil = anyone
}

// NewWriteQuorum wraps mem with a write-permission table. writers[i] lists
// the pids allowed to write register i; a nil entry permits all writers.
func NewWriteQuorum(mem Mem, writers [][]int) *WriteQuorum {
	if len(writers) != mem.Size() {
		panic(fmt.Sprintf("register: quorum table size %d != memory size %d", len(writers), mem.Size()))
	}
	return &WriteQuorum{inner: mem, writers: writers}
}

// TwoWriterTable returns the Algorithm 2 discipline for n processes over
// ⌈n/2⌉ registers: register i (0-based) is writable by processes 2i and
// 2i+1 (0-based pids). Pids ≥ n are excluded.
func TwoWriterTable(n int) [][]int {
	m := (n + 1) / 2
	table := make([][]int, m)
	for i := range table {
		ws := []int{2 * i}
		if 2*i+1 < n {
			ws = append(ws, 2*i+1)
		}
		table[i] = ws
	}
	return table
}

// SWMRTable returns a single-writer discipline over n registers: register i
// is writable only by process i.
func SWMRTable(n int) [][]int {
	table := make([][]int, n)
	for i := range table {
		table[i] = []int{i}
	}
	return table
}

// Handle returns a Mem bound to process pid; writes through it are checked
// against the permission table. When the wrapped memory provides the
// scalar fast path (Int64Mem), the handle forwards it with the same check,
// so the discipline layer never forces boxing.
func (q *WriteQuorum) Handle(pid int) Mem {
	h := &quorumHandle{q: q, pid: pid}
	if im, ok := q.inner.(Int64Mem); ok {
		return &quorumInt64Handle{quorumHandle: h, im: im}
	}
	return h
}

type quorumHandle struct {
	q   *WriteQuorum
	pid int
}

var _ Mem = (*quorumHandle)(nil)

func (h *quorumHandle) Size() int        { return h.q.inner.Size() }
func (h *quorumHandle) Read(i int) Value { return h.q.inner.Read(i) }

// check panics unless pid may write register i.
func (h *quorumHandle) check(i int) {
	allowed := h.q.writers[i]
	if allowed == nil {
		return
	}
	for _, w := range allowed {
		if w == h.pid {
			return
		}
	}
	//tslint:allow hotpath panic formatting on a discipline violation, which is a broken algorithm
	panic(fmt.Sprintf("register: process %d is not a permitted writer of register %d (writers %v)", h.pid, i, allowed))
}

func (h *quorumHandle) Write(i int, v Value) {
	h.check(i)
	h.q.inner.Write(i, v)
}

type quorumInt64Handle struct {
	*quorumHandle
	im Int64Mem
}

var _ Int64Mem = (*quorumInt64Handle)(nil)

// MaxInt64 forwards a collect; reads are unrestricted.
//
//tslint:hotpath
func (h *quorumInt64Handle) MaxInt64(m int) int64 { return h.im.MaxInt64(m) }

// WriteInt64 checks pid's permission for register i and forwards the
// write.
//
//tslint:hotpath
func (h *quorumInt64Handle) WriteInt64(i int, v int64) {
	h.check(i)
	h.im.WriteInt64(i, v)
}
