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
	"sort"
	"strings"
)

// deadReport is what -deadcode finds: exported names under internal/ that
// no program code uses (Dead fails the gate), the ones only the benchmark
// module keeps alive (Bench, listed but passing), and allowlist entries
// that name no dead identifier (Stale, failing: the list cannot rot).
type deadReport struct {
	Dead, Bench, Stale []string
}

// checkDeadcode type-checks the module at root (non-test files only) and
// reports every exported func, method, type, const, var and struct field
// declared under root/internal that no non-test code of the module uses.
// A use inside the name's own declaration or in a method receiver does not
// count. A method is used when its type satisfies an interface that has
// it: one the program names, or fmt.Stringer, error, or the errors
// package's Unwrap/Is/As conventions. A field is used when a positional
// literal sets it or reflection reads it (an obs tag other than "-", or a
// json tag); a field of a *Config, *Policy or *Profile struct is used only
// where program code sets it. Uses from root/benchDir (its tests included)
// are counted apart. allow maps a name, written as in the report
// ("internal/pkg.Type.Method"), to the one reason it stays.
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
	used := make(map[types.Object]bool)
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
		markUses(l.info, l.files[path], used)
	}
	markImplemented(l, used)

	benchUsed := make(map[types.Object]bool)
	if bench := filepath.Join(root, benchDir); benchDir != "" && fileExists(bench) {
		files, err := l.parseDir(bench, true)
		if err != nil {
			return nil, err
		}
		info := newInfo()
		conf := types.Config{Importer: l}
		if _, err := conf.Check(benchDir, l.fset, files, info); err != nil {
			return nil, err
		}
		markUses(info, files, benchUsed)
	}

	rep := &deadReport{}
	seen := make(map[string]bool)
	for _, c := range l.candidates() {
		if used[c.obj] {
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
		case strings.TrimSpace(reason) == "":
			rep.Stale = append(rep.Stale, name+": allowlisted without a reason")
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

// candidates lists the exported names declared under internal/: package
// level objects, the methods of exported types, and the named fields of
// exported struct types that no reflection reads.
func (l *loader) candidates() []candidate {
	var out []candidate
	for path, pkg := range l.pkgs {
		rel := strings.TrimPrefix(path, l.module+"/")
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			key := rel + "." + name
			out = append(out, candidate{key, obj})
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out = append(out, candidate{key + "." + m.Name(), m})
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f, tag := st.Field(i), reflect.StructTag(st.Tag(i))
				obs, hasObs := tag.Lookup("obs")
				json, hasJSON := tag.Lookup("json")
				if !f.Exported() || f.Embedded() || hasObs && obs != "-" || hasJSON && json != "-" {
					continue
				}
				out = append(out, candidate{key + "." + f.Name(), f})
			}
		}
	}
	return out
}

// isConfigField reports whether v is a field of a struct type named
// *Config, *Policy or *Profile: an option, used only where it is set.
func isConfigField(v *types.Var) bool {
	if !v.IsField() || v.Pkg() == nil {
		return false
	}
	for _, name := range v.Pkg().Scope().Names() {
		tn, ok := v.Pkg().Scope().Lookup(name).(*types.TypeName)
		if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Policy") || strings.HasSuffix(name, "Profile")) {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == v {
					return true
				}
			}
		}
	}
	return false
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

// markUses records in used every object files use, except a use inside
// the object's own declaration or in a method's receiver.
func markUses(info *types.Info, files []*ast.File, used map[types.Object]bool) {
	set := make(map[*ast.Ident]bool) // selectors and keys written, not read
	markSet := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				set[x.Sel] = true
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
	configs := make(map[*types.Var]bool)
	visit := func(owner types.Object) func(ast.Node) bool {
		return func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					markSet(lhs)
				}
			case *ast.IncDecStmt:
				markSet(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					markSet(x.X)
				}
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					set[id] = true
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
				if obj == owner {
					return true
				}
				if v, ok := obj.(*types.Var); ok && !set[x] && v.IsField() {
					isConfig, known := configs[v]
					if !known {
						isConfig = isConfigField(v)
						configs[v] = isConfig
					}
					if isConfig {
						return true
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
				v := visit(info.Defs[d.Name])
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
					ast.Inspect(spec, visit(owner))
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
