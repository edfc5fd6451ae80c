package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
)

// deadReport is what -deadcode finds: exported names under internal/ that
// no program code uses and unexported fields it never reads (Dead fails
// the gate), the ones only the benchmark module keeps alive (Bench, listed
// but passing), and allowlist entries that name no dead identifier or give
// no typed reason (Stale, failing: the list cannot rot). Options counts
// the exported fields of the *Config, *Policy and *Profile structs under
// internal/: every value an operator or a test can set independently.
type deadReport struct {
	Dead, Bench, Stale []string
	Options            int
}

// reasonKinds are the allowlist's four reasons; an entry's reason starts
// with one of them.
var reasonKinds = []string{"paper API: ", "operator surface: ", "test seam: ", "test support: "}

// checkDeadcode type-checks the module at root (non-test files only) and
// reports every exported func, method, type, const, var and struct field
// declared under root/internal that no non-test code of the module uses,
// and every unexported struct field declared there that it never reads.
// A use inside the name's own declaration or in a method receiver does not
// count. A method is used when its type satisfies an interface that has
// it: one the program names, or fmt.Stringer, error, or the errors
// package's Unwrap/Is/As conventions. A field is used when a positional
// literal sets it or reflection reads it (an obs tag other than "-", or a
// json tag); a field of a *Config, *Policy or *Profile struct is used only
// where program code sets it as a choice (see markUses). A field of a
// struct compared with == or used as a map key is read. Uses from
// root/benchDir (its tests included) are counted apart. allow maps a name,
// written as in the report ("internal/pkg.Type.Method"), to the one
// reason it stays, which starts with one of reasonKinds.
func checkDeadcode(root, benchDir string, allow map[string]string) (*deadReport, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			path == filepath.Join(root, benchDir) || fileExists(filepath.Join(path, "go.mod"))) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		path := l.module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := l.Import(path); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, err
		}
	}
	configs := l.configFields()
	used, read := make(map[types.Object]bool), make(map[types.Object]bool)
	for path, pkg := range l.pkgs {
		markUses(l.info, pkg, l.files[path], configs, used, read)
	}
	markImplemented(l, used)
	for _, tv := range l.info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			readAll(m.Key(), read)
		}
	}

	benchUsed := make(map[types.Object]bool)
	if bench := filepath.Join(root, benchDir); benchDir != "" && fileExists(bench) {
		files, err := l.parseDir(bench, true)
		if err != nil {
			return nil, err
		}
		info := newInfo()
		conf := types.Config{Importer: l}
		pkg, err := conf.Check(benchDir, l.fset, files, info)
		if err != nil {
			return nil, err
		}
		markUses(info, pkg, files, configs, benchUsed, nil)
	}

	rep := &deadReport{}
	seen := make(map[string]bool)
	cands, options := l.candidates()
	rep.Options = options
	for _, c := range cands {
		if c.obj.Exported() && used[c.obj] || !c.obj.Exported() && read[c.obj] {
			continue
		}
		if _, ok := allow[c.name]; ok {
			seen[c.name] = true
			continue
		}
		line := fmt.Sprintf("%s: %s", l.fset.Position(c.obj.Pos()), c.name)
		if benchUsed[c.obj] {
			rep.Bench = append(rep.Bench, line)
		} else {
			rep.Dead = append(rep.Dead, line)
		}
	}
	for name, reason := range allow {
		switch {
		case !seen[name]:
			rep.Stale = append(rep.Stale, name+": allowlisted, but used by the program or not declared")
		case !slices.ContainsFunc(reasonKinds, func(k string) bool { return strings.HasPrefix(reason, k) }):
			rep.Stale = append(rep.Stale, name+": allowlisted without a reason of a known kind ("+strings.Join(reasonKinds, ", ")+")")
		}
	}
	sort.Strings(rep.Dead)
	sort.Strings(rep.Bench)
	sort.Strings(rep.Stale)
	return rep, nil
}

// fileExists reports whether path names an existing file or directory.
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// loader type-checks the module's packages from source, each once, so a
// name has one object however many packages import it; the standard
// library is type-checked from source too, by the "source" importer.
type loader struct {
	fset         *token.FileSet
	root, module string
	std          types.Importer
	pkgs         map[string]*types.Package
	files        map[string][]*ast.File
	info         *types.Info // every module package's non-test files
}

func newLoader(root string) (*loader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var module string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", root)
	}
	fset := token.NewFileSet()
	return &loader{
		fset: fset, root: root, module: module,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  make(map[string]*types.Package),
		files: make(map[string][]*ast.File),
		info:  newInfo(),
	}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
}

// Import returns the checked package at path: from source for the module's
// own packages, from the standard library otherwise.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")))
	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = pkg, files
	return pkg, nil
}

// parseDir parses the Go files of dir the default build context selects,
// with the in-package test files when tests is set.
func (l *loader) parseDir(dir string, tests bool) ([]*ast.File, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if tests {
		names = append(names, bp.TestGoFiles...)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

type candidate struct {
	name string // internal/pkg.Name, internal/pkg.Type.Member
	obj  types.Object
}

// candidates lists the names declared under internal/ the gate checks:
// package-level exported objects, the exported methods and fields of
// exported types, and the unexported fields of every struct type, all but
// the fields reflection reads. It also counts the options, the exported
// fields of config structs.
func (l *loader) candidates() (out []candidate, options int) {
	for path, pkg := range l.pkgs {
		rel := strings.TrimPrefix(path, l.module+"/")
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := rel + "." + name
			if obj.Exported() {
				out = append(out, candidate{key, obj})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && obj.Exported() {
					out = append(out, candidate{key + "." + m.Name(), m})
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f, tag := st.Field(i), reflect.StructTag(st.Tag(i))
				if f.Exported() && isConfigType(name) {
					options++
				}
				obs, hasObs := tag.Lookup("obs")
				json, hasJSON := tag.Lookup("json")
				if f.Embedded() || f.Name() == "_" || f.Exported() && !obj.Exported() || hasObs && obs != "-" || hasJSON && json != "-" {
					continue
				}
				out = append(out, candidate{key + "." + f.Name(), f})
			}
		}
	}
	return out, options
}

// isConfigType reports whether a struct type of this name holds options.
func isConfigType(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Policy") || strings.HasSuffix(name, "Profile")
}

// configFields returns the fields of the module's config structs.
func (l *loader) configFields() map[*types.Var]bool {
	fields := make(map[*types.Var]bool)
	for _, pkg := range l.pkgs {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && isConfigType(name) {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						fields[st.Field(i)] = true
					}
				}
			}
		}
	}
	return fields
}

// returnsConfig reports whether fn returns a config struct of its package.
func returnsConfig(fn types.Object) bool {
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if n, ok := res.At(i).Type().(*types.Named); ok && n.Obj().Pkg() == fn.Pkg() && isConfigType(n.Obj().Name()) {
			return true
		}
	}
	return false
}

// zeroTested returns the fields cond compares with their zero value
// (f == 0, f <= 0, f == "", f == nil).
func zeroTested(info *types.Info, cond ast.Expr) map[types.Object]bool {
	zero := make(map[types.Object]bool)
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != token.EQL && b.Op != token.LEQ {
			return true
		}
		sel, ok := b.X.(*ast.SelectorExpr)
		if y := info.Types[b.Y]; ok && (y.IsNil() || y.Value != nil && (y.Value.ExactString() == "0" || y.Value.ExactString() == `""`)) {
			zero[info.Uses[sel.Sel]] = true
		}
		return true
	})
	return zero
}

// readAll marks as read every field of t, a struct compared whole or used
// as a map key, and of the structs and arrays it holds.
func readAll(t types.Type, read map[types.Object]bool) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			read[u.Field(i).Origin()] = true
			readAll(u.Field(i).Type(), read)
		}
	case *types.Array:
		readAll(u.Elem(), read)
	}
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// markUses records in used every object the files of pkg use, except a
// use inside the object's own declaration or in a method's receiver, and
// in read (unless nil) every struct field they read. Writing a field (an
// assignment, ++, a key) does not read it, but taking its address does, as
// does writing through the pointer it holds. A config field is used where
// it is set as a choice: outside its package, in a func literal (an
// option), or by other code of its package. In its package, a default fill
// (a set under a zero test of that field) is no choice; nor is a value a
// config-returning func gives, unless two such funcs give different values.
func markUses(info *types.Info, pkg *types.Package, files []*ast.File, configs map[*types.Var]bool, used, read map[types.Object]bool) {
	set := make(map[*ast.Ident]ast.Expr)      // selectors and keys written, to the value written
	taken := make(map[*ast.Ident]bool)        // selectors whose address is taken
	fills := make(map[*ast.Ident]bool)        // sets under a zero test of the same field
	ctorVals := make(map[types.Object]string) // a config field's value in its package's constructors
	markSet := func(e, val ast.Expr, addr bool) {
		for first := true; ; first = false {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if _, ptr := info.TypeOf(x).Underlying().(*types.Pointer); ptr && !first {
					return
				}
				set[x.Sel], taken[x.Sel] = val, addr
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return
			}
		}
	}
	type scope struct {
		owner types.Object
		ctor  bool // in a config-returning func of pkg
	}
	var visit func(s scope) func(ast.Node) bool
	visit = func(s scope) func(ast.Node) bool {
		return func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				ast.Inspect(x.Type, visit(scope{owner: s.owner}))
				ast.Inspect(x.Body, visit(scope{owner: s.owner}))
				return false
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					markSet(lhs, x.Rhs[min(i, len(x.Rhs)-1)], false)
				}
			case *ast.IncDecStmt:
				markSet(x.X, nil, false)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					markSet(x.X, nil, true)
				}
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					set[id] = x.Value
				}
			case *ast.BinaryExpr:
				if read != nil && (x.Op == token.EQL || x.Op == token.NEQ) {
					readAll(info.TypeOf(x.X), read)
				}
			case *ast.IfStmt:
				if zero := zeroTested(info, x.Cond); len(zero) > 0 {
					ast.Inspect(x.Body, func(n ast.Node) bool {
						if as, ok := n.(*ast.AssignStmt); ok {
							for _, lhs := range as.Lhs {
								if sel, ok := lhs.(*ast.SelectorExpr); ok && zero[info.Uses[sel.Sel]] {
									fills[sel.Sel] = true
								}
							}
						}
						return true
					})
				}
			case *ast.CompositeLit:
				tv, ok := info.Types[x]
				if !ok {
					return true
				}
				if st, ok := tv.Type.Underlying().(*types.Struct); ok && len(x.Elts) > 0 {
					if _, keyed := x.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < st.NumFields(); i++ {
							used[st.Field(i).Origin()] = true
						}
					}
				}
			case *ast.Ident:
				obj := info.Uses[x]
				if obj == nil {
					return true
				}
				obj = origin(obj)
				if obj == s.owner {
					return true
				}
				if v, ok := obj.(*types.Var); ok && v.IsField() {
					val, isSet := set[x]
					if read != nil && (!isSet || taken[x]) {
						read[obj] = true
					}
					switch {
					case !configs[v]:
					case !isSet || fills[x] && v.Pkg() == pkg:
						return true
					case s.ctor && v.Pkg() == pkg:
						// Two constructors giving different values make it a choice.
						prev, seen := ctorVals[v]
						if ctorVals[v] = types.ExprString(val); !seen || prev == ctorVals[v] {
							return true
						}
					}
				}
				used[obj] = true
			}
			return true
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				v := visit(scope{info.Defs[d.Name], returnsConfig(info.Defs[d.Name])})
				ast.Inspect(d.Type, v)
				if d.Body != nil {
					ast.Inspect(d.Body, v)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var owner types.Object
					if ts, ok := spec.(*ast.TypeSpec); ok {
						owner = info.Defs[ts.Name]
					}
					ast.Inspect(spec, visit(scope{owner: owner}))
				}
			}
		}
	}
}

// conventions are the interfaces the standard library calls by type
// assertion, so no program code names them.
const conventions = `package conventions
type stringer interface{ String() string }
type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
type errorer interface{ Error() string }
`

// markImplemented marks as used every method of a module type that
// satisfies an interface the program uses, or one of the conventions,
// through that interface's method set.
func markImplemented(l *loader, used map[types.Object]bool) {
	ifaces := make(map[*types.Interface]bool)
	seen := make(map[types.Type]bool)
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
			return
		}
		switch x := t.(type) {
		case *types.Pointer:
			walk(x.Elem())
		case *types.Slice:
			walk(x.Elem())
		case *types.Array:
			walk(x.Elem())
		case *types.Map:
			walk(x.Key())
			walk(x.Elem())
		case *types.Chan:
			walk(x.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{x.Params(), x.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type())
				}
			}
		}
	}
	for _, tv := range l.info.Types {
		walk(tv.Type)
	}
	for _, obj := range l.info.Uses {
		walk(obj.Type())
	}
	fset := token.NewFileSet()
	f, _ := parser.ParseFile(fset, "conventions.go", conventions, 0) // a constant that parses
	conv, _ := (&types.Config{}).Check("conventions", fset, []*ast.File{f}, nil)
	for _, name := range conv.Scope().Names() {
		walk(conv.Scope().Lookup(name).Type())
	}

	for _, pkg := range l.pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue // an uninstantiated type implements nothing
			}
			ptr := types.NewPointer(tn.Type())
			for it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(ptr, false, it.Method(i).Pkg(), it.Method(i).Name())
					if m != nil {
						used[origin(m)] = true
					}
				}
			}
		}
	}
}
