package tsspace_test

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// update rewrites every golden file this package checks: the command
// outputs under testdata/golden and the public surface under
// testdata/api.
//
//	go test -run 'TestGolden|TestPublicSurface' . -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// cexDir stands for a fresh -cexdir directory in a golden command's
// arguments, and replaces that directory's path in its output.
const cexDir = "$CEXDIR"

// goldenCases are the commands whose output TestGolden pins: the E3/E4/E8
// space tables, the model checker's E11 table and its crash, confront and
// fuzz sweeps, the Theorem 1.1 and 1.2 constructions, the §6.3 phases,
// tstrace timelines, the error paths and the catalogs. Each name is
// the golden file testdata/golden/<name>.txt; the counterexample files
// a -cexdir case writes sit in testdata/golden/<name>.cex/.
var goldenCases = []struct {
	name string
	args []string // a command TestGolden builds, then its flags
	exit int
}{
	{"tscheck", []string{"tscheck"}, 0},
	{"tscheck-small", []string{"tscheck", "-n", "3", "-visits", "100", "-samples", "10", "-reps", "2"}, 0},
	{"tscheck-explore-compare", []string{"tscheck", "-explore", "-compare"}, 0},
	{"tscheck-explore-compare-fuzz", []string{"tscheck", "-explore", "-exploren", "2", "-compare", "-fuzz", "10", "-fuzzn", "4"}, 0},
	{"tscheck-explore-mutant", []string{"tscheck", "-explore", "-exploren", "2", "-mutant", "-cexdir", cexDir}, 0},
	{"tscheck-explore-nopor", []string{"tscheck", "-explore", "-por=false", "-exploren", "2"}, 0},
	{"tscheck-mutant", []string{"tscheck", "-mutant", "-cexdir", cexDir}, 0},
	{"tscheck-crash", []string{"tscheck", "-crash", "-exploren", "2,3", "-cexdir", cexDir}, 0},
	{"tscheck-confront", []string{"tscheck", "-confront", "-confrontn", "8,16,32,64"}, 0},
	{"tscheck-fuzz", []string{"tscheck", "-fuzz", "200", "-fuzzn", "6"}, 0},
	{"tsspace", []string{"tsspace"}, 0},
	{"tsspace-n16-64", []string{"tsspace", "-n", "16,64", "-advcap", "64"}, 0},
	{"tsspace-bad-n", []string{"tsspace", "-n", "16,banana"}, 2},
	{"tscover-fig1", []string{"tscover", "-fig", "1", "-n", "50"}, 0},
	{"tscover-fig2", []string{"tscover", "-fig", "2"}, 0},
	{"tscover-oneshot", []string{"tscover", "-construct", "oneshot", "-n", "100"}, 0},
	{"tscover-longlived", []string{"tscover", "-construct", "longlived", "-n", "30"}, 0},
	{"tscover-phases", []string{"tscover", "-phases", "-n", "24"}, 0},
	{"tstrace-collect", []string{"tstrace", "-alg", "collect", "-n", "3", "-calls", "2", "-seed", "4"}, 0},
	{"tstrace-churn", []string{"tstrace", "-alg", "dense", "-n", "4", "-calls", "2", "-workload", "churn", "-width", "2", "-seed", "2"}, 0},
	{"tstrace-schedule", []string{"tstrace", "-alg", "collect", "-n", "2", "-schedule", "0,0,0,1,1,1,0,1"}, 0},
	{"tstrace-mutant-replay", []string{"tstrace", "-alg", "collect-stale-scan", "-n", "2", "-calls", "2", "-schedule", "0,0,0,1,1,1,0"}, 1},
	{"tstrace-bad-workload", []string{"tstrace", "-workload", "bogus"}, 2},
	{"tstrace-bad-schedule", []string{"tstrace", "-schedule", "0,x"}, 2},
	{"tstrace-no-process", []string{"tstrace", "-n", "2", "-schedule", "0,9"}, 1},
	{"tstrace-algs", []string{"tstrace", "-algs"}, 0},
	{"tsserved-algs", []string{"tsserved", "-algs"}, 0},
	{"phases", []string{"phases"}, 0},
}

// goldenPackages are built once; each binary is named after its
// directory.
var goldenPackages = []string{"./cmd/tscheck", "./cmd/tsspace", "./cmd/tscover", "./cmd/tstrace", "./cmd/tsserved", "./examples/phases"}

// TestGolden runs each command of goldenCases and compares its combined
// output, exit status and counterexample files with testdata/golden, byte
// for byte. Every command is deterministic: the simulated world runs
// seeded schedules, and no output carries a wall time.
func TestGolden(t *testing.T) {
	bin := buildCommands(t, goldenPackages...)
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cex := filepath.Join(t.TempDir(), "cex")
			args := slices.Clone(tc.args[1:])
			for i, a := range args {
				if a == cexDir {
					args[i] = cex
				}
			}
			out, err := exec.Command(filepath.Join(bin, tc.args[0]), args...).CombinedOutput()
			exit := 0
			var exitErr *exec.ExitError
			if errors.As(err, &exitErr) {
				exit = exitErr.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if exit != tc.exit {
				t.Errorf("%s exited %d, want %d", strings.Join(tc.args, " "), exit, tc.exit)
			}
			golden := filepath.Join("testdata", "golden", tc.name)
			checkGolden(t, golden+".txt", strings.ReplaceAll(string(out), cex, cexDir))
			if slices.Contains(tc.args, cexDir) {
				checkGoldenDir(t, golden+".cex", cex)
			}
		})
	}
}

// buildCommands builds pkgs into a fresh directory, each binary named
// after its package directory, and returns the directory.
func buildCommands(t *testing.T, pkgs ...string) string {
	t.Helper()
	bin := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-o", bin + string(filepath.Separator)}, pkgs...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// go test caches a pass against the files this process opened, and
	// the commands' sources are not among them: open every module
	// directory they build from, so that editing one reruns the test.
	list := exec.Command("go", append([]string{"list", "-deps", "-f", "{{if not .Standard}}{{.Dir}}{{end}}"}, pkgs...)...)
	dirs, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, dir := range strings.Split(string(dirs), "\n") {
		if dir == "" {
			continue
		}
		if _, err := os.ReadDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	return bin
}

// checkGolden compares got with the golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (write it with -update)", err)
	}
	if got == string(want) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end of output)"
	}
	t.Errorf("%s differs at line %d:\nwant: %s\n got: %s\n(accept an intended change with -update)\n--- got:\n%s",
		golden, i+1, line(wl), line(gl), got)
}

// checkGoldenDir compares every file of dir with the same-named file of
// the golden directory, which must hold no other files; -update replaces
// the golden directory.
func checkGoldenDir(t *testing.T, golden, dir string) {
	t.Helper()
	names := fileNames(t, dir)
	if *update {
		if err := os.RemoveAll(golden); err != nil {
			t.Fatal(err)
		}
	} else if want := fileNames(t, golden); !slices.Equal(names, want) {
		t.Fatalf("counterexample files %v, want %v", names, want)
	}
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join(golden, name), string(got))
	}
}

// fileNames lists the entries of dir, sorted by name.
func fileNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}
