package register

import "fmt"

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

// DisciplineFor enforces a write-permission table for process pid,
// validating register-sharing disciplines such as Algorithm 2's
// "multi-reader/2-writer registers: register R[i] is written by processes
// 2i and 2i+1" (§5). table[i] lists the pids allowed to write register i;
// a nil entry permits all writers. A nil table yields a nil middleware,
// which Wrap skips. Reads are unrestricted. A write by any other process,
// or a table whose size differs from the memory's, panics: either means
// a broken algorithm rather than a recoverable runtime condition.
func DisciplineFor(table [][]int, pid int) Middleware {
	if table == nil {
		return nil
	}
	return func(inner Mem) Mem {
		if len(table) != inner.Size() {
			panic(fmt.Sprintf("register: writer table size %d != memory size %d", len(table), inner.Size()))
		}
		return &disciplinedMem{inner: inner, writers: table, pid: pid}
	}
}

// disciplinedMem is one process's handle through the write discipline.
type disciplinedMem struct {
	inner   Mem
	writers [][]int // writers[i] = pids allowed to write register i; nil = anyone
	pid     int
}

var _ Mem = (*disciplinedMem)(nil)

func (h *disciplinedMem) Size() int        { return h.inner.Size() }
func (h *disciplinedMem) Read(i int) Value { return h.inner.Read(i) }

// check panics unless pid may write register i.
func (h *disciplinedMem) check(i int) {
	allowed := h.writers[i]
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

func (h *disciplinedMem) Write(i int, v Value) {
	h.check(i)
	h.inner.Write(i, v)
}

// MaxInt64 forwards a collect; reads are unrestricted.
//
//tslint:hotpath
func (h *disciplinedMem) MaxInt64(m int) int64 { return h.inner.MaxInt64(m) }

// WriteInt64 checks pid's permission for register i and forwards the
// write.
//
//tslint:hotpath
func (h *disciplinedMem) WriteInt64(i int, v int64) {
	h.check(i)
	h.inner.WriteInt64(i, v)
}
