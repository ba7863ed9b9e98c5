package mutant

import (
	"fmt"
	"sync" //tslint:allow registeraccess the mutex guards the mutant's crash-memo table, harness-side state outside the paper's register accounting

	"tsspace/internal/register"
	"tsspace/internal/timestamp"
)

// CrashMemo is the collect algorithm with a crash-recovery checkpoint bug:
// it memoizes the timestamp it computed for (pid, seq) after the scan but
// BEFORE publishing it to the process's register, and a retried call —
// which only ever happens when a crashed pid is re-leased and resumes the
// interrupted call — returns the memoized value without re-scanning or
// re-writing. In a crash-free run every (pid, seq) is invoked exactly
// once, so the memo never hits and the mutant is indistinguishable from
// collect: exhaustive exploration, fuzzing and every load mix pass it.
// Inject one crash while the process is poised on its register write,
// though, and the retry resurrects a timestamp computed against a
// pre-crash view of the registers — processes that completed in between
// are invisible to it, and the recovered call can return a timestamp not
// above one it strictly follows.
//
// The memo lives in the instance, so replays need a fresh instance per
// execution (engine.ExhaustiveOptions.NewAlg / CrashSweepOptions.NewAlg).
type CrashMemo struct {
	n    int
	mu   sync.Mutex
	memo map[[2]int]int64
}

var _ timestamp.Algorithm = (*CrashMemo)(nil)

func init() {
	timestamp.Register(timestamp.Info{
		Name:         "collect-crash-memo",
		Summary:      "collect with a crash-checkpoint bug: retried calls replay a stale memoized timestamp (caught only by crash injection)",
		New:          func(n int) timestamp.Algorithm { return NewCrashMemo(n) },
		ExploreCalls: 2,
		Mutant:       true,
	})
}

// NewCrashMemo returns the crash-checkpoint mutant for n processes.
func NewCrashMemo(n int) *CrashMemo {
	if n < 1 {
		panic(fmt.Sprintf("mutant: invalid process count %d", n))
	}
	return &CrashMemo{n: n, memo: make(map[[2]int]int64)}
}

// Name identifies the mutant in reports.
func (a *CrashMemo) Name() string { return "collect-crash-memo" }

// Registers returns n, like collect.
func (a *CrashMemo) Registers() int { return a.n }

// OneShot reports false, like collect.
func (a *CrashMemo) OneShot() bool { return false }

// WriterTable declares collect's single-writer discipline.
func (a *CrashMemo) WriterTable() [][]int { return register.SWMRTable(a.n) }

// GetTS collects honestly the first time each (pid, seq) is invoked and
// replays the memoized "checkpoint" on a retry, skipping both the re-scan
// and the register write.
func (a *CrashMemo) GetTS(mem register.Mem, pid, seq int) (timestamp.Timestamp, error) {
	if pid < 0 || pid >= a.n {
		return timestamp.Timestamp{}, fmt.Errorf("mutant: pid %d out of range [0,%d)", pid, a.n)
	}
	key := [2]int{pid, seq}
	a.mu.Lock()
	ts, hit := a.memo[key]
	a.mu.Unlock()
	if hit {
		// BUG: trust the pre-crash checkpoint. No re-scan (misses every
		// timestamp published since) and no write (the value is never
		// visible to later scans either).
		return timestamp.Timestamp{Rnd: ts}, nil
	}
	ts = mem.MaxInt64(a.n) + 1
	a.mu.Lock()
	a.memo[key] = ts // checkpointed before the write: the crash window
	a.mu.Unlock()
	mem.WriteInt64(pid, ts)
	return timestamp.Timestamp{Rnd: ts}, nil
}
