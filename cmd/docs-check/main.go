// Command docs-check enforces four gates on the documented surface:
//
//   - godoc coverage: every exported top-level declaration (and exported
//     method) in the given package directories must carry a doc comment,
//     and every package must have a package comment.
//   - flag coverage (-flags): every command-line flag a binary registers
//     (flag.String / sub.Bool / ... — any *"name", ...* flag-package call)
//     must be mentioned as -name in README.md or OPERATIONS.md, so the
//     operator surface can't drift ahead of its documentation.
//   - metric coverage (-metrics): every flexlog_* metric family named in a
//     non-test Go file under the given directories — in a string literal
//     or an obs struct tag — must appear in OPERATIONS.md.
//   - dead code (-deadcode): every exported func, method, type, const,
//     var and struct field under internal/ must be used by non-test code of
//     the module (internal/, cmd/, examples/), and every unexported struct
//     field there read by it. The module is type-checked (go/types), so a
//     test caller, or a caller of another type's method of the same name,
//     keeps nothing alive. An option (a field of a *Config, *Policy or
//     *Profile struct) is used only where a caller sets it, not where its
//     own package fills a default. Names only the benchmark module uses
//     are listed in a section of their own and pass; names that stay
//     without a program use are on the allowlist (allowlist.go), one typed
//     reason each, and an entry that names a used or missing identifier
//     fails the gate. It also prints the number of options.
//
// Usage:
//
//	docs-check [dir ...]           # godoc gate; default: internal/obs
//	docs-check -flags [cmddir ...] # flag gate; default: cmd/flexlog-server cmd/flexlog-cli
//	docs-check -metrics [dir ...]  # metric gate; default: internal cmd
//	docs-check -deadcode           # dead-code gate over the module in the current directory
//
// It exits non-zero listing each miss, so `make docs-check` fails the
// build when documentation drifts. The first three gates parse source
// (go/parser) and run in a second; -deadcode type-checks the module and
// the standard library it imports from source, which takes seconds.
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
	"regexp"
	"sort"
	"strings"
)

func main() {
	flagMode := flag.Bool("flags", false, "check that every registered command-line flag is documented in README.md or OPERATIONS.md")
	deadMode := flag.Bool("deadcode", false, "check that every exported name under internal/ has a non-test caller in the module, and every unexported field a reader")
	metricsMode := flag.Bool("metrics", false, "check that every flexlog_* metric family named in Go source is documented in OPERATIONS.md")
	flag.Parse()
	dirs := flag.Args()

	switch {
	case *metricsMode:
		if len(dirs) == 0 {
			dirs = []string{"internal", "cmd"}
		}
		docs, err := loadDocs("OPERATIONS.md")
		if err != nil {
			fatal(err)
		}
		families, misses, err := checkMetrics(dirs, docs)
		if err != nil {
			fatal(err)
		}
		report(misses, "undocumented metric families (add them to OPERATIONS.md)")
		fmt.Printf("docs-check: %d metric families all documented\n", families)
	case *deadMode:
		rep, err := checkDeadcode(".", "benchmark", allowlist)
		if err != nil {
			fatal(err)
		}
		if len(rep.Bench) > 0 {
			fmt.Printf("docs-check: %d exported names only benchmark/ uses (delete them once it stops):\n", len(rep.Bench))
			for _, b := range rep.Bench {
				fmt.Printf("  %s\n", b)
			}
		}
		fmt.Printf("docs-check: %d options (exported fields of the *Config, *Policy and *Profile structs under internal/)\n", rep.Options)
		report(append(rep.Stale, rep.Dead...), "names no program code uses: exports without a caller, options nothing sets as a choice, fields nothing reads (delete them, or allowlist them with a reason)")
		fmt.Printf("docs-check: every exported name under internal/ has a program caller, every unexported field a reader\n")
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

// metricName matches a metric family name inside a string literal, a
// struct tag or a document.
var metricName = regexp.MustCompile(`\bflexlog_[a-z0-9_]*[a-z0-9]\b`)

// checkMetrics parses every non-test .go file under dirs, collects each
// flexlog_* family named in a string literal (struct tags included), and
// returns how many there are and one line per family the docs never name.
func checkMetrics(dirs []string, docs string) (int, []string, error) {
	documented := make(map[string]bool)
	for _, name := range metricName.FindAllString(docs, -1) {
		documented[name] = true
	}
	fset := token.NewFileSet()
	first := make(map[string]string) // family -> position of its first mention
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					for _, name := range metricName.FindAllString(lit.Value, -1) {
						if _, seen := first[name]; !seen {
							first[name] = fset.Position(lit.Pos()).String()
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			return 0, nil, err
		}
	}
	var out []string
	for name, pos := range first {
		if !documented[name] {
			out = append(out, fmt.Sprintf("%s: %s", pos, name))
		}
	}
	sort.Strings(out)
	return len(first), out, nil
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
