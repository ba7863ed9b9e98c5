package tsspace_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tsspace"
)

// TestPublicSurface is the apidiff-style gate on the SDK: it renders the
// exported declarations of the public packages from their ASTs and
// compares against checked-in golden files, so any change to the public
// surface — added, removed or re-signed symbols — fails CI until the
// golden is regenerated deliberately:
//
//	go test -run TestPublicSurface . -update
//
// Initializers, function bodies and unexported members are stripped: the
// golden tracks the surface, not the implementation.

func TestPublicSurface(t *testing.T) {
	for _, pkg := range []struct{ name, dir string }{
		{"tsspace", "."},
		{"tsserve", "tsserve"},
		{"tsload", "tsload"},
	} {
		t.Run(pkg.name, func(t *testing.T) {
			got := publicSurface(t, pkg.dir)
			golden := filepath.Join("testdata", "api", pkg.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d lines)", golden, strings.Count(got, "\n"))
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (regenerate with `go test -run TestPublicSurface . -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("public surface of %s changed.\n--- want (%s)\n%s\n--- got\n%s\n"+
					"If the change is intentional, regenerate with `go test -run TestPublicSurface . -update`.",
					pkg.name, golden, want, got)
			}
		})
	}
}

// Space renders as the same four JSON keys on /metrics and in BENCH rows.
// The golden prints Space as an alias of an internal type, so it cannot
// see those keys; this pins them.
func TestSpaceJSONKeys(t *testing.T) {
	b, err := json.Marshal(tsspace.Space{Registers: 1, Written: 2, Reads: 3, Writes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"registers":1,"written":2,"reads":3,"writes":4}`; string(b) != want {
		t.Errorf("Space marshals to %s, want %s", b, want)
	}
}

// publicSurface renders one line per exported declaration of the package
// in dir, sorted.
func publicSurface(t *testing.T, dir string) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				lines = append(lines, declSurface(t, fset, decl)...)
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func declSurface(t *testing.T, fset *token.FileSet, decl ast.Decl) []string {
	t.Helper()
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedRecv(d.Recv) {
			return nil
		}
		fn := *d
		fn.Doc, fn.Body = nil, nil
		return []string{render(t, fset, &fn)}
	case *ast.GenDecl:
		var lines []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				ts := *s
				ts.Doc, ts.Comment = nil, nil
				ts.Type = stripUnexported(ts.Type)
				lines = append(lines, render(t, fset, &ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{&ts}}))
			case *ast.ValueSpec:
				// Initializers are implementation, not surface: keep the
				// exported names and the declared type only.
				var names []*ast.Ident
				for _, name := range s.Names {
					if name.IsExported() {
						names = append(names, ast.NewIdent(name.Name))
					}
				}
				if len(names) == 0 {
					continue
				}
				vs := &ast.ValueSpec{Names: names, Type: s.Type}
				lines = append(lines, render(t, fset, &ast.GenDecl{Tok: d.Tok, Specs: []ast.Spec{vs}}))
			}
		}
		return lines
	}
	return nil
}

// exportedRecv reports whether a method's receiver base type is exported
// (true for plain functions).
func exportedRecv(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return true
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr: // generic receiver
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// stripUnexported removes unexported fields and methods from struct and
// interface types, so the golden only pins the public members.
func stripUnexported(typ ast.Expr) ast.Expr {
	switch tt := typ.(type) {
	case *ast.StructType:
		out := *tt
		out.Fields = stripFields(tt.Fields)
		return &out
	case *ast.InterfaceType:
		out := *tt
		out.Methods = stripFields(tt.Methods)
		return &out
	}
	return typ
}

func stripFields(fields *ast.FieldList) *ast.FieldList {
	if fields == nil {
		return nil
	}
	out := &ast.FieldList{}
	for _, f := range fields.List {
		var names []*ast.Ident
		for _, name := range f.Names {
			if name.IsExported() {
				names = append(names, ast.NewIdent(name.Name))
			}
		}
		if len(f.Names) > 0 && len(names) == 0 {
			continue // all names unexported
		}
		nf := &ast.Field{Names: names, Type: f.Type, Tag: f.Tag}
		out.List = append(out.List, nf)
	}
	return out
}

func render(t *testing.T, fset *token.FileSet, node any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, node); err != nil {
		t.Fatal(err)
	}
	// Collapse multi-line renderings (struct types) into one canonical line.
	line := strings.Join(strings.Fields(buf.String()), " ")
	if line == "" {
		t.Fatal("empty rendering")
	}
	return line
}
