// Command doclint checks that every exported identifier in the named
// package directories carries a doc comment, and that each package has a
// package comment. It is the CI companion to the repository's
// documentation convention: the godoc of internal/node, internal/memory
// and internal/workload is part of the determinism contract's paper
// trail, so a missing comment is a build failure, not a style nit.
//
// Usage:
//
//	doclint DIR [DIR...]
//
// Each DIR is one package directory (not recursive; list the packages
// explicitly so the lint surface is deliberate). Test files are skipped.
// Exit codes: 0 when clean, 1 with one "file:line: message" per finding,
// 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"lingerlonger/internal/cli"
)

func main() {
	cli.Run("doclint", realMain)
}

func realMain() error {
	cli.RegisterVersionFlag()
	flag.Parse()
	if cli.VersionRequested() {
		return cli.PrintVersion("doclint")
	}
	if flag.NArg() == 0 {
		return cli.Usagef("want at least one package directory")
	}
	var findings []string
	for _, dir := range flag.Args() {
		fs, err := lintDir(dir)
		if err != nil {
			return err
		}
		findings = append(findings, fs...)
	}
	if len(findings) > 0 {
		sort.Strings(findings)
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		return fmt.Errorf("doclint: %d undocumented exported identifier(s)", len(findings))
	}
	return nil
}

// lintDir parses every non-test .go file in dir and reports exported
// declarations without doc comments, plus a missing package comment.
func lintDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("doclint: no Go files in %s", dir)
	}

	var findings []string
	report := func(pos token.Pos, format string, args ...any) {
		findings = append(findings, fmt.Sprintf("%s: %s", fset.Position(pos), fmt.Sprintf(format, args...)))
	}

	hasPkgDoc := false
	for _, f := range files {
		if f.Doc != nil {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc {
		report(files[0].Package, "package %s has no package comment", files[0].Name.Name)
	}

	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedRecv(d) {
					continue
				}
				if d.Doc == nil {
					report(d.Pos(), "exported %s %s is undocumented", kindOf(d), d.Name.Name)
				}
			case *ast.GenDecl:
				lintGenDecl(d, report)
			}
		}
	}
	return findings, nil
}

// exportedRecv reports whether d is a plain function or a method on an
// exported receiver type; methods on unexported types are internal even
// when their own name is capitalized (interface satisfaction).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// kindOf names the declaration for the finding message.
func kindOf(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// lintGenDecl checks const/var/type declarations: a doc comment on the
// decl covers a single spec; in grouped declarations each exported spec
// needs its own comment (matching godoc's rendering, where the group
// comment does not attach to members).
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string, ...any)) {
	switch d.Tok {
	case token.TYPE:
		for _, spec := range d.Specs {
			s := spec.(*ast.TypeSpec)
			if !s.Name.IsExported() {
				continue
			}
			if s.Doc == nil && (d.Doc == nil || len(d.Specs) > 1) {
				report(s.Pos(), "exported type %s is undocumented", s.Name.Name)
			}
		}
	case token.CONST, token.VAR:
		// A group comment documents the whole block (iota enums); a spec
		// comment documents one spec. Either satisfies the lint.
		for _, spec := range d.Specs {
			s := spec.(*ast.ValueSpec)
			var exported *ast.Ident
			for _, n := range s.Names {
				if n.IsExported() {
					exported = n
					break
				}
			}
			if exported == nil {
				continue
			}
			if s.Doc == nil && s.Comment == nil && d.Doc == nil {
				report(s.Pos(), "exported %s %s is undocumented", d.Tok, exported.Name)
			}
		}
	}
}
