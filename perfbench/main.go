// Command perfbench is the repository's benchmark: one process that
// self-hosts tsserve.NewServer on loopback (HTTP and wire-v3 binary
// listeners) over the daemon's shipped default namespace — collect,
// n = 64, metered — and drives one of three closed-loop wire-v3
// workloads against it. HTTP carries the control plane: provisioning,
// space reads and the attach probe.
//
//	bash perfbench/run.sh --workload steady-b1-wire3 --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 1
//
// A caller that asks for a timestamp waits for it before it carries on,
// so every session runs a closed loop: the next operation starts when
// the previous one returns. Sessions never exceed two (the host's nproc).
//
// With --trace 0 the run reports the end-to-end metrics: throughput,
// per-operation latency p50/p90, set-up time, peak RSS and registers
// written. With --trace 1 it reports the per-layer ledger instead, each
// layer timed from outside the program: spans around the benchmark's
// own calls into the clients and the broker, deltas of
// Server.MetricsSnapshot, and replays of the same operation shape on an
// in-process tsspace.Object and on raw and metered register stacks.
//
// Every run checks the happens-before property on the timestamps it
// receives and the paper's space bound on the registers written. The
// last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A traced run also
// writes its spans to .bench_build/spans/, one JSON object per line.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// workload is one traffic mix; its sessions speak wire v3. Names are
// referred to by later changes; keep them stable.
type workload struct {
	name     string
	sessions int
	batch    int  // timestamps per GetTS/GetTSBatch call
	oneShot  bool // attach → GetTS → detach per timestamp on sqrt namespaces
	why      string
}

// The server's default namespace is the daemon's shipped configuration;
// the one-shot workload provisions sqrt namespaces beside it.
const (
	defaultAlg   = "collect"
	defaultProcs = 64
	oneShotAlg   = "sqrt"
	oneShotProcs = 4096
	oneShotRegs  = 128 // ⌈2√4096⌉, Algorithm 4's register count
)

var workloads = []workload{
	{name: "steady-b1-wire3", sessions: 1, batch: 1,
		why: "one session calling GetTS over wire v3: per-frame codec, loopback and dispatch costs dominate, and the layers add up serially"},
	{name: "steady-b256-wire3", sessions: 2, batch: 256,
		why: "two sessions batching 256 over wire v3: the metered 64-register scan and the meter's shared mutex dominate"},
	{name: "oneshot-sqrt-wire3", sessions: 2, batch: 1, oneShot: true,
		why: "the paper's one-shot regime: attach, GetTS, detach per timestamp on sqrt n=4096 namespaces, re-provisioned when exhausted"},
}

// dropped names the workloads the benchmark measured and left out, with
// the spread that ruled each out. Spread is the interquartile range of
// ten seeds' results over their median.
var dropped = []struct{ name, reason string }{
	{"steady-b16-wire2", "two attached HTTP/JSON sessions batching 16: over ten seeds at 20 s its throughput spread was 0.37 and its latency p90 spread 0.29, above the largest bound the benchmark sets (0.25)"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name, or all to run each in turn: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed for every random choice the benchmark makes")
	seconds := flag.Int("seconds", 10, "length of the measure window, seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer ledger")
	flag.Parse()
	if *name == "all" && flag.NArg() == 0 {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	for _, d := range dropped {
		if d.name == *name {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s was dropped: %s\n", d.name, d.reason)
			os.Exit(2)
		}
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s|all} --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	fmt.Printf("provenance seed=%d nproc=%d GOMAXPROCS=%d go=%s workload=%s wire=v3 sessions=%d batch=%d one_shot=%t default_ns=%s/n=%d/metered",
		*seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.name, w.sessions, w.batch, w.oneShot, defaultAlg, defaultProcs)
	if w.oneShot {
		fmt.Printf(" oneshot_ns=%s/n=%d/registers=%d", oneShotAlg, oneShotProcs, oneShotRegs)
	}
	fmt.Printf(" seconds=%d trace=%d\nworkload %s: %s\n", *seconds, *trace, w.name, w.why)

	b := &bench{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("metric %-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// runAll runs every workload in turn, each in its own process so that
// peak RSS and runtime state stay per workload, and ends with one result
// whose metrics are named <workload>/<metric>.
func runAll(seed uint64, seconds, trace int) int {
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(os.Args[0], "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
		cmd.Stderr = os.Stderr
		err := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: no result (%v)\n", w.name, errors.Join(err, jerr))
			return 1
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, m := range r.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	for _, d := range dropped {
		fmt.Printf("dropped %s: %s\n", d.name, d.reason)
	}
	line, _ := json.Marshal(all) // plain structs: cannot fail
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}
