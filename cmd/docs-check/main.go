// Command docs-check enforces three gates on the documented surface:
//
//   - godoc coverage: every exported top-level declaration (and exported
//     method) in the given package directories must carry a doc comment,
//     and every package must have a package comment.
//   - flag coverage (-flags): every command-line flag a binary registers
//     (flag.String / sub.Bool / ... — any *"name", ...* flag-package call)
//     must be mentioned as -name in README.md or OPERATIONS.md, so the
//     operator surface can't drift ahead of its documentation.
//   - unused exports (-unused): every exported top-level func, method,
//     type, const or var declared under the given directories must be
//     mentioned by name somewhere in the repository's Go files — program,
//     tests, examples, benchmark/ — besides where it is declared. An
//     option or accessor nothing calls is surface someone has to document,
//     test and keep working; this fails the build on the next one. The scan
//     is by name, not by type, so it under-reports (one caller of any
//     Stats keeps every Stats) and never needs a build context.
//
// Usage:
//
//	docs-check [dir ...]           # godoc gate; default: internal/obs
//	docs-check -flags [cmddir ...] # flag gate; default: cmd/flexlog-server cmd/flexlog-cli
//	docs-check -unused [dir ...]   # unused-export gate; default: internal cmd
//
// It exits non-zero listing each miss, so `make docs-check` fails the
// build when documentation drifts. It parses source directly (go/parser),
// so it needs no build context and runs in a second.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

func main() {
	flagMode := flag.Bool("flags", false, "check that every registered command-line flag is documented in README.md or OPERATIONS.md")
	unusedMode := flag.Bool("unused", false, "list exported top-level names that no Go file of the repository mentions besides their declaration")
	flag.Parse()
	dirs := flag.Args()

	switch {
	case *unusedMode:
		if len(dirs) == 0 {
			dirs = []string{"internal", "cmd"}
		}
		misses, err := checkUnused(".", dirs)
		if err != nil {
			fatal(err)
		}
		report(misses, "exported names nothing mentions (delete them, or the callers that should exist are missing)")
		fmt.Printf("docs-check: every exported name under %s is mentioned somewhere\n", strings.Join(dirs, ", "))
	case *flagMode:
		if len(dirs) == 0 {
			dirs = []string{"cmd/flexlog-server", "cmd/flexlog-cli"}
		}
		docs, err := loadDocs("README.md", "OPERATIONS.md")
		if err != nil {
			fatal(err)
		}
		var misses []string
		for _, dir := range dirs {
			m, err := checkFlags(dir, docs)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", dir, err))
			}
			misses = append(misses, m...)
		}
		report(misses, "undocumented flags (add -name to README.md or OPERATIONS.md)")
		fmt.Printf("docs-check: flags in %d command(s) all documented\n", len(dirs))
	default:
		if len(dirs) == 0 {
			dirs = []string{"internal/obs"}
		}
		var misses []string
		for _, dir := range dirs {
			m, err := checkDir(dir)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", dir, err))
			}
			misses = append(misses, m...)
		}
		report(misses, "undocumented exported symbols")
		fmt.Printf("docs-check: %d package(s) clean\n", len(dirs))
	}
}

// fatal exits on a gate that could not run.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "docs-check: %v\n", err)
	os.Exit(1)
}

// report lists a gate's misses and exits non-zero if there are any.
func report(misses []string, what string) {
	if len(misses) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "docs-check: %d %s:\n", len(misses), what)
	for _, m := range misses {
		fmt.Fprintf(os.Stderr, "  %s\n", m)
	}
	os.Exit(1)
}

// loadDocs concatenates the named markdown files (a missing file is an
// error — the gate must not silently pass on a renamed doc).
func loadDocs(files ...string) (string, error) {
	var sb strings.Builder
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// checkFlags parses every non-test .go file in a command directory,
// collects each flag-registration call's flag name, and returns one line
// per flag whose "-name" never appears in the docs.
func checkFlags(dir, docs string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fname, ok := flagName(call)
				if !ok {
					return true
				}
				if !strings.Contains(docs, "-"+fname) {
					out = append(out, fmt.Sprintf("%s:%d: flag -%s", filepath.Base(name), fset.Position(call.Pos()).Line, fname))
				}
				return true
			})
		}
	}
	return out, nil
}

// flagRegisters are the flag-package methods that declare a flag with the
// name as their first string-literal argument. Both the package-level
// flag.X and FlagSet method forms (sub.X) match, since the selector name
// is the same.
var flagRegisters = map[string]bool{
	"Bool": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true,
	"String": true, "Float64": true, "Duration": true,
	"BoolVar": true, "IntVar": true, "Int64Var": true, "UintVar": true, "Uint64Var": true,
	"StringVar": true, "Float64Var": true, "DurationVar": true,
}

// flagName extracts the declared flag name from a flag-registration call,
// reporting ok=false for any other call expression.
func flagName(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !flagRegisters[sel.Sel.Name] {
		return "", false
	}
	// The name is the first argument for flag.X / sub.X, the second for
	// the *Var forms (whose first argument is the pointer).
	idx := 0
	if strings.HasSuffix(sel.Sel.Name, "Var") {
		idx = 1
	}
	if len(call.Args) <= idx {
		return "", false
	}
	lit, ok := call.Args[idx].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING || len(lit.Value) < 2 {
		return "", false
	}
	return lit.Value[1 : len(lit.Value)-1], true
}

// checkDir parses every non-test .go file in dir and returns one line per
// undocumented exported symbol.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			out = append(out, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
		for name, f := range pkg.Files {
			out = append(out, checkFile(fset, filepath.Base(name), f)...)
		}
	}
	return out, nil
}

// checkFile reports undocumented exported declarations of one file.
func checkFile(fset *token.FileSet, file string, f *ast.File) []string {
	var out []string
	miss := func(pos token.Pos, what string) {
		out = append(out, fmt.Sprintf("%s:%d: %s", file, fset.Position(pos).Line, what))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			kind := "function"
			name := d.Name.Name
			if d.Recv != nil {
				// Only flag methods on exported receivers; unexported types
				// are internal regardless of their method casing.
				recv := receiverName(d.Recv)
				if recv == "" || !ast.IsExported(recv) {
					continue
				}
				kind = "method"
				name = recv + "." + name
			}
			miss(d.Pos(), fmt.Sprintf("%s %s has no doc comment", kind, name))
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						miss(s.Pos(), fmt.Sprintf("type %s has no doc comment", s.Name.Name))
					}
				case *ast.ValueSpec:
					// A doc comment on the grouped decl covers the group.
					if d.Doc != nil || s.Doc != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							miss(n.Pos(), fmt.Sprintf("%s %s has no doc comment", strings.ToLower(d.Tok.String()), n.Name))
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName extracts the receiver's type name ("" when unnamed).
func receiverName(fl *ast.FieldList) string {
	if fl == nil || len(fl.List) == 0 {
		return ""
	}
	t := fl.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// stdlibCalled are the methods only the standard library calls (through
// error, fmt.Stringer and errors.Unwrap), so no file of the repository has
// to mention them.
var stdlibCalled = map[string]bool{"Error": true, "String": true, "Unwrap": true}

// checkUnused parses every Go file under root (tests, examples and the
// benchmark module included; the benchmark's build directory and VCS
// metadata are not source) and returns one line per exported top-level
// name declared in a non-test file under dirs that is never mentioned: a
// name all of whose identifier occurrences, across the repository, are
// top-level declarations of it.
func checkUnused(root string, dirs []string) ([]string, error) {
	var (
		fset      = token.NewFileSet()
		mentioned = make(map[string]int)      // identifier occurrences, declarations included
		declared  = make(map[string]int)      // top-level declarations of the name, any file
		exported  = make(map[string][]string) // name -> "pos: kind Name" per reportable declaration
	)
	for i, dir := range dirs {
		// A renamed directory must fail the gate, not empty it.
		if _, err := os.Stat(dir); err != nil {
			return nil, err
		}
		dirs[i] = filepath.Clean(dir) + string(filepath.Separator)
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mentioned[id.Name]++
			}
			return true
		})
		reportable := !strings.HasSuffix(path, "_test.go") &&
			slices.ContainsFunc(dirs, func(dir string) bool { return strings.HasPrefix(path, dir) })
		declare := func(id *ast.Ident, kind string, allowed bool) {
			declared[id.Name]++
			if reportable && id.IsExported() && !allowed {
				exported[id.Name] = append(exported[id.Name], fmt.Sprintf("%s: %s%s", fset.Position(id.Pos()), kind, id.Name))
			}
		}
		for _, gd := range f.Decls {
			switch d := gd.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name, "func ", false)
				} else {
					declare(d.Name, "method "+receiverName(d.Recv)+".", stdlibCalled[d.Name.Name])
				}
			case *ast.GenDecl:
				for i, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name, "type ", false)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							// The zero member of an enum is what a zero value
							// already is; code rarely has to name it.
							declare(id, strings.ToLower(d.Tok.String())+" ", i == 0 && isIota(s))
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for name, decls := range exported {
		if mentioned[name] == declared[name] {
			out = append(out, decls...)
		}
	}
	sort.Strings(out)
	return out, nil
}

// isIota reports whether a const spec's value is iota: the first member of
// an enumeration.
func isIota(s *ast.ValueSpec) bool {
	if len(s.Values) != 1 {
		return false
	}
	id, ok := s.Values[0].(*ast.Ident)
	return ok && id.Name == "iota"
}
