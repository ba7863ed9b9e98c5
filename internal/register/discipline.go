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
// 2i+1 (0-based pids). Pids ≥ n are excluded. The rows are capped
// windows of one shared pid list, so the table costs two allocations
// whatever n is.
func TwoWriterTable(n int) [][]int {
	pids := make([]int, n)
	for i := range pids {
		pids[i] = i
	}
	table := make([][]int, (n+1)/2)
	for i := range table {
		hi := min(2*i+2, n)
		table[i] = pids[2*i : hi : hi]
	}
	return table
}

// SWMRTable returns a single-writer discipline over n registers: register i
// is writable only by process i. Like TwoWriterTable it builds its rows
// over one shared pid list.
func SWMRTable(n int) [][]int {
	pids := make([]int, n)
	table := make([][]int, n)
	for i := range table {
		pids[i] = i
		table[i] = pids[i : i+1 : i+1]
	}
	return table
}

// Handle returns a Mem bound to process pid; writes through it, generic
// or scalar, are checked against the permission table, and reads are
// unrestricted.
func (q *WriteQuorum) Handle(pid int) Mem {
	return &quorumHandle{inner: q.inner, q: q, pid: pid}
}

// quorumHandle keeps the memory below in its own field, so a collect
// forwards without a hop through the WriteQuorum.
type quorumHandle struct {
	inner Mem
	q     *WriteQuorum
	pid   int
}

var _ Mem = (*quorumHandle)(nil)

func (h *quorumHandle) Size() int        { return h.inner.Size() }
func (h *quorumHandle) Read(i int) Value { return h.inner.Read(i) }

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
	h.inner.Write(i, v)
}

// MaxInt64 forwards a collect; reads are unrestricted.
//
//tslint:hotpath
func (h *quorumHandle) MaxInt64(m int) int64 { return h.inner.MaxInt64(m) }

// WriteInt64 checks pid's permission for register i and forwards the
// write.
//
//tslint:hotpath
func (h *quorumHandle) WriteInt64(i int, v int64) {
	h.check(i)
	h.inner.WriteInt64(i, v)
}
