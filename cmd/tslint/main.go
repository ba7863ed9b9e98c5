// Command tslint is the repo's static-analysis gate: a multichecker in
// the shape of golang.org/x/tools/go/analysis (self-contained — the
// container builds offline) enforcing the invariants the tests cannot
// see at runtime:
//
//	registeraccess  algorithm packages touch shared state only through
//	                internal/register (the paper's per-register op
//	                accounting stays exact)
//	hotpath         //tslint:hotpath roots stay 0 allocs/op: no fmt, no
//	                make/new/closures, no interface boxing, no mutexes
//	typederr        exported SDK errors wrap sentinels (%w), never
//	                anonymous fmt.Errorf/errors.New values
//	registryinit    every algorithm package self-registers from init()
//	                with coherent Info (OneShot/Mutant)
//	atomicmix       a field accessed through sync/atomic is never also
//	                accessed plainly outside constructors
//
// plus curated lite ports of the stock nilness and unusedwrite passes,
// and a copylocks pass reduced to the one copy go vet does not report:
// a function result that holds a lock by value.
//
// Usage:
//
//	go run ./cmd/tslint ./...
//	go run ./cmd/tslint -analyzers hotpath,typederr ./tsserve
//	go run ./cmd/tslint -list
//
// Intentional violations are annotated in source:
//
//	//tslint:allow <analyzer> <reason>
//
// on (or directly above) the offending line; the reason is mandatory and
// unused or malformed annotations are themselves diagnostics. Exit status
// is 1 when any finding survives, so CI runs it as a blocking step.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tsspace/cmd/tslint/internal/checks"
	"tsspace/cmd/tslint/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tslint [-list] [-analyzers a,b] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range checks.All() {
			fmt.Printf("%-16s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return
	}

	suite := checks.All()
	if *only != "" {
		var ok bool
		suite, ok = checks.ByName(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "tslint: unknown analyzer in -analyzers %q (known: %s)\n", *only, strings.Join(checks.Names(), ", "))
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tslint:", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tslint:", err)
		os.Exit(2)
	}
	findings, err := lint.Run(pkgs, suite, checks.Names())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tslint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "tslint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
