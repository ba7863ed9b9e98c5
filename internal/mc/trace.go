package mc

import (
	"encoding/binary"
	"fmt"
	"sort"

	"tsspace/internal/register"
	"tsspace/internal/sched"
)

// Dependent reports whether two operations of *different* processes are
// dependent in the Mazurkiewicz sense: they do not commute. Register
// operations commute unless they target the same register and at least one
// of them is a write. Operations of the same process are always dependent
// (program order).
func Dependent(a, b sched.Op) bool {
	if a.Pid == b.Pid {
		return true
	}
	if a.Reg != b.Reg {
		return false
	}
	return a.Kind == sched.OpWrite || b.Kind == sched.OpWrite
}

// keyer computes canonical keys: the Foata normal form of an executed
// trace, encoded as a string, is the unique canonical representative of
// the trace's Mazurkiewicz equivalence class. Two prefixes have the same
// key iff one can be obtained from the other by repeatedly swapping
// adjacent independent operations — in which case they lead to identical
// global states (same register contents, same process-local states) and
// their extensions are pairwise equivalent, so Count may share one count
// between them.
//
// The normal form is computed by leveling: an operation's level is one more
// than the maximum level of any earlier dependent operation (its latest
// cause). Operations on the same level are pairwise independent and are
// ordered by process id; the levels concatenated give the normal form.
//
// Each operation is encoded as uvarints (level, pid, reg<<1|write), and a
// write is followed by its value's id: the written values are part of the
// state, and a keyer numbers them by their fmt rendering (values are
// immutable and print deterministically). The key is exact, but ids mean
// something only within one keyer, so every key that is compared with
// another must come from the same keyer.
type keyer map[string]uint64

func (k keyer) key(trace []sched.Op) string {
	type leveled struct {
		level int
		op    sched.Op
	}
	ops := make([]leveled, len(trace))
	// Running per-process and per-register level summaries make the pass
	// linear: lastProc[p] is the level of p's latest op, lastWrite[r] the
	// level of r's latest write, readsSince[r] the maximum level among
	// reads of r after that write (a write depends on those reads too).
	lastProc := map[int]int{}
	lastWrite := map[int]int{}
	readsSince := map[int]int{}
	for i, op := range trace {
		level := lastProc[op.Pid]
		if l := lastWrite[op.Reg]; l > level {
			level = l
		}
		if op.Kind == sched.OpWrite {
			if l := readsSince[op.Reg]; l > level {
				level = l
			}
		}
		level++
		ops[i] = leveled{level: level, op: op}
		lastProc[op.Pid] = level
		if op.Kind == sched.OpWrite {
			lastWrite[op.Reg] = level
			readsSince[op.Reg] = 0
		} else if level > readsSince[op.Reg] {
			readsSince[op.Reg] = level
		}
	}
	// Two ops of one process never share a level (program order), so
	// (level, pid) is a total order.
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].level != ops[j].level {
			return ops[i].level < ops[j].level
		}
		return ops[i].op.Pid < ops[j].op.Pid
	})
	b := make([]byte, 0, 4*len(ops))
	for _, l := range ops {
		b = binary.AppendUvarint(b, uint64(l.level))
		b = binary.AppendUvarint(b, uint64(l.op.Pid))
		if l.op.Kind != sched.OpWrite {
			b = binary.AppendUvarint(b, uint64(l.op.Reg)<<1)
			continue
		}
		b = binary.AppendUvarint(b, uint64(l.op.Reg)<<1|1)
		b = binary.AppendUvarint(b, k.valueID(l.op.Val))
	}
	return string(b)
}

// valueID numbers v by its fmt rendering, in order of first sight.
func (k keyer) valueID(v register.Value) uint64 {
	s := fmt.Sprint(v)
	id, ok := k[s]
	if !ok {
		id = uint64(len(k))
		k[s] = id
	}
	return id
}
