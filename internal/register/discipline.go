package register

import "fmt"

// DisciplineFor enforces a register-sharing discipline for process pid,
// validating claims such as Algorithm 2's "multi-reader/2-writer
// registers: register R[i] is written by processes 2i and 2i+1" (§5).
// The discipline is one number, w, the writers per register: register i
// is written only by pids w·i … w·i+w−1, so w = 1 is single-writer and
// w = 2 is Algorithm 2's pairing. w = 0 permits any writer and yields a
// nil middleware, which Wrap skips. Reads are unrestricted. A write by
// any other process panics: it means a broken algorithm rather than a
// recoverable runtime condition.
func DisciplineFor(w, pid int) Middleware {
	if w == 0 {
		return nil
	}
	return func(inner Mem) Mem {
		return &disciplinedMem{inner: inner, writers: w, pid: pid}
	}
}

// disciplinedMem is one process's handle through the write discipline.
type disciplinedMem struct {
	inner   Mem
	writers int // writers per register; pid may write register pid/writers only
	pid     int
}

var _ Mem = (*disciplinedMem)(nil)

func (h *disciplinedMem) Size() int        { return h.inner.Size() }
func (h *disciplinedMem) Read(i int) Value { return h.inner.Read(i) }

// check panics unless pid may write register i.
func (h *disciplinedMem) check(i int) {
	if i == h.pid/h.writers {
		return
	}
	//tslint:allow hotpath panic formatting on a discipline violation, which is a broken algorithm
	panic(fmt.Sprintf("register: process %d is not a permitted writer of register %d (%d writers per register)", h.pid, i, h.writers))
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
