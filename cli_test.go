// CLI smoke tests: build and run each command end to end, asserting the
// headline artifacts appear in the output. These pin the user-facing
// surface of the reproduction (the tables and figures EXPERIMENTS.md
// records).
package tsspace_test

import (
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLITsspace(t *testing.T) {
	out := runCmd(t, "./cmd/tsspace", "-n", "16,64", "-advcap", "64")
	for _, want := range []string{"E8", "E3/E4", "⌈2√n⌉", "16", "64"} {
		if !strings.Contains(out, want) {
			t.Errorf("tsspace output missing %q:\n%s", want, out)
		}
	}
}

func TestCLITscoverFigures(t *testing.T) {
	out := runCmd(t, "./cmd/tscover", "-fig", "1", "-n", "50")
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "*") {
		t.Errorf("figure 1 output malformed:\n%s", out)
	}
	out = runCmd(t, "./cmd/tscover", "-fig", "2")
	if !strings.Contains(out, "Case 2") {
		t.Errorf("figure 2 output missing Case 2:\n%s", out)
	}
}

func TestCLITscoverConstructions(t *testing.T) {
	out := runCmd(t, "./cmd/tscover", "-construct", "oneshot", "-n", "100")
	if !strings.Contains(out, "Theorem 1.2") || !strings.Contains(out, "✓") {
		t.Errorf("one-shot construction output malformed:\n%s", out)
	}
	out = runCmd(t, "./cmd/tscover", "-construct", "longlived", "-n", "30")
	if !strings.Contains(out, "Theorem 1.1") || !strings.Contains(out, "⌊n/6⌋") {
		t.Errorf("long-lived construction output malformed:\n%s", out)
	}
}

func TestCLITscoverPhases(t *testing.T) {
	out := runCmd(t, "./cmd/tscover", "-phases", "-n", "24")
	if !strings.Contains(out, "Claim 6.13") || !strings.Contains(out, "phase") {
		t.Errorf("phases output malformed:\n%s", out)
	}
}

func TestCLITscheck(t *testing.T) {
	out := runCmd(t, "./cmd/tscheck", "-n", "3", "-visits", "100", "-samples", "10", "-reps", "2")
	if !strings.Contains(out, "all checks passed") {
		t.Errorf("tscheck did not pass:\n%s", out)
	}
}

func TestCLITscheckExplore(t *testing.T) {
	out := runCmd(t, "./cmd/tscheck", "-explore", "-exploren", "2", "-compare", "-fuzz", "10", "-fuzzn", "4")
	for _, want := range []string{
		"all checks passed",
		"sleep-pruned",
		"E11", // the reduction table
		"not simulable; ran atomic stress instead", // fas rerouted
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tscheck -explore output missing %q:\n%s", want, out)
		}
	}
}

func TestCLITscheckMutant(t *testing.T) {
	dir := t.TempDir()
	out := runCmd(t, "./cmd/tscheck", "-mutant", "-cexdir", dir)
	for _, want := range []string{"mutant caught", "step witness", "counterexample written", "all checks passed"} {
		if !strings.Contains(out, want) {
			t.Errorf("tscheck -mutant output missing %q:\n%s", want, out)
		}
	}
}

func TestCLITstrace(t *testing.T) {
	out := runCmd(t, "./cmd/tstrace", "-alg", "collect", "-n", "3", "-calls", "2", "-seed", "4")
	for _, want := range []string{"p0", "timestamps returned", "verified ✓"} {
		if !strings.Contains(out, want) {
			t.Errorf("tstrace output missing %q:\n%s", want, out)
		}
	}
}

func TestCLITstraceWorkloads(t *testing.T) {
	out := runCmd(t, "./cmd/tstrace", "-alg", "dense", "-n", "4", "-calls", "2",
		"-workload", "churn", "-width", "2", "-seed", "2")
	if !strings.Contains(out, "churn/width-2") || !strings.Contains(out, "verified ✓") {
		t.Errorf("churn trace malformed:\n%s", out)
	}
	out = runCmd(t, "./cmd/tstrace", "-alg", "collect", "-n", "2",
		"-schedule", "0,0,0,1,1,1,0,1")
	if !strings.Contains(out, "adversarial/8-steps") || !strings.Contains(out, "verified ✓") {
		t.Errorf("scheduled trace malformed:\n%s", out)
	}
}

func TestCLIExamples(t *testing.T) {
	for _, ex := range []string{"quickstart", "eventlog", "fcfs", "renaming", "phases"} {
		out := runCmd(t, "./examples/"+ex)
		if len(out) < 50 {
			t.Errorf("example %s produced no meaningful output:\n%s", ex, out)
		}
		if strings.Contains(strings.ToLower(out), "violat") || strings.Contains(out, "panic") {
			t.Errorf("example %s reported a problem:\n%s", ex, out)
		}
	}
}

// TestCLITsserved starts the daemon on a free port, drives it with its own
// -smoke client mode (session getts + pairwise order checks + /metrics), and
// shuts it down — once per regime.
func TestCLITsserved(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "tsserved")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/tsserved").CombinedOutput(); err != nil {
		t.Fatalf("build tsserved: %v\n%s", err, out)
	}
	// collect drives the long-lived leg (pipelined batches plus the
	// namespace leg), sqrt the one-shot leg (one attach, getTS, detach per
	// timestamp).
	for _, d := range []struct{ alg, procs string }{{"collect", "8"}, {"sqrt", "16"}} {
		t.Run(d.alg, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close()

			daemon := exec.Command(bin, "-addr", addr, "-alg", d.alg, "-procs", d.procs)
			if err := daemon.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				daemon.Process.Kill()
				daemon.Wait()
			}()

			url := "http://" + addr
			deadline := time.Now().Add(10 * time.Second)
			for {
				if resp, err := http.Get(url + "/healthz"); err == nil {
					resp.Body.Close()
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("daemon did not become healthy")
				}
				time.Sleep(50 * time.Millisecond)
			}

			out, err := exec.Command(bin, "-smoke", url).CombinedOutput()
			if err != nil {
				t.Fatalf("smoke: %v\n%s", err, out)
			}
			for _, want := range []string{"8 timestamps strictly ordered", "tsserved smoke ok"} {
				if !strings.Contains(string(out), want) {
					t.Errorf("smoke output missing %q:\n%s", want, out)
				}
			}
		})
	}
}
