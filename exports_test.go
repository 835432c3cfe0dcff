// The exports audit: an exported identifier in internal/ that only
// tests reach is surface every refactor must carry for nothing. This
// test type-checks every non-test package of the module and of the
// perfbench module with go/parser and go/types, and fails on each
// exported identifier under internal/ that no non-test code uses,
// unless testdata/exports_allowlist.txt names it with a reason.
package uwm_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const exportsAllowlist = "testdata/exports_allowlist.txt"

// TestExportsHaveCallers fails on an exported package-level function,
// type, variable or constant, or an exported method, declared under
// internal/ and used only from _test.go files. Struct fields are not
// checked: encoding/json reaches them by reflection.
//
// A use is any reference from non-test code of the module, its
// commands and examples, or perfbench, other than from the
// identifier's own declaration (a type's own methods do not keep the
// type alive). A method also counts as used when a used interface
// method reaches it: a call through Iface.M marks M on every named
// type whose method set satisfies Iface, promoted methods included.
//
// The allowlist holds one identifier per line, followed by the reason
// it stays. An entry whose identifier no longer exists, or that now
// has a non-test use, fails the test too, so the list only shrinks.
func TestExportsHaveCallers(t *testing.T) {
	l := newExportsLoader(t)
	l.addModule(".", "uwm", "perfbench")
	l.addModule("perfbench", "uwm/perfbench")
	for _, p := range l.sortedPaths() {
		if _, err := l.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	declared := l.exportedInternal()
	used := l.usedObjects()

	allow := readExportsAllowlist(t)
	var unused []string
	for name, obj := range declared {
		_, listed := allow[name]
		switch {
		case used[obj] && listed:
			t.Errorf("%s: allowlisted but has a non-test use; drop it from %s", name, exportsAllowlist)
		case !used[obj] && !listed:
			unused = append(unused, name)
		}
	}
	for name := range allow {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s: allowlisted but not declared; drop it from %s", name, exportsAllowlist)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		p := l.fset.Position(declared[name].Pos())
		t.Errorf("%s:%d: %s is exported but only tests use it: delete it, move it into a _test.go file, or allowlist it with a reason",
			p.Filename, p.Line, name)
	}
}

// exportsLoader type-checks the module's non-test packages on demand,
// resolving module imports from source and the standard library from
// the compiler's export data. One types.Info collects every package.
type exportsLoader struct {
	t     *testing.T
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	files map[*ast.File]string // file -> import path
	info  *types.Info
}

func newExportsLoader(t *testing.T) *exportsLoader {
	return &exportsLoader{
		t:     t,
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[*ast.File]string{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
}

// addModule registers every package directory under root as modPath
// plus its relative path, skipping testdata, hidden directories and
// the named nested modules.
func (l *exportsLoader) addModule(root, modPath string, skip ...string) {
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, p)
		for _, s := range skip {
			if rel == s {
				return filepath.SkipDir
			}
		}
		if _, err := build.Default.ImportDir(p, 0); err != nil {
			return nil // no buildable non-test Go files here
		}
		l.dirs[path.Join(modPath, filepath.ToSlash(rel))] = p
		return nil
	})
	if err != nil {
		l.t.Fatal(err)
	}
}

func (l *exportsLoader) sortedPaths() []string {
	var ps []string
	for p := range l.dirs {
		ps = append(ps, p)
	}
	sort.Strings(ps)
	return ps
}

// Import implements types.Importer.
func (l *exportsLoader) Import(importPath string) (*types.Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	dir, ok := l.dirs[importPath]
	if !ok {
		return l.std.Import(importPath)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		l.files[f] = importPath
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// exportedInternal maps the audit name of every exported package-level
// object and exported method declared under internal/ to its object.
// Names read "internal/pkg.Ident" or "internal/pkg.Type.Method".
func (l *exportsLoader) exportedInternal() map[string]types.Object {
	out := map[string]types.Object{}
	for importPath, pkg := range l.pkgs {
		rel, ok := strings.CutPrefix(importPath, "uwm/")
		if !ok || !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				out[rel+"."+name] = obj
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if m := iface.ExplicitMethod(i); m.Exported() {
						out[rel+"."+name+"."+m.Name()] = m
					}
				}
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						out[rel+"."+name+"."+m.Name()] = m
					}
				}
			}
		}
	}
	return out
}

// usedObjects returns every object referenced from non-test code
// outside its own declaration, closed over interface dispatch.
func (l *exportsLoader) usedObjects() map[types.Object]bool {
	used := map[types.Object]bool{}
	for f := range l.files {
		for _, decl := range f.Decls {
			owners := declOwners(l.info, decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := l.info.Uses[id]
				if obj == nil {
					return true
				}
				obj = origin(obj)
				if !owners[obj] {
					used[obj] = true
				}
				return true
			})
		}
	}

	// Interface dispatch: a used interface method reaches the method
	// of the same name on every module type that implements it.
	var named []*types.Named
	for _, pkg := range l.pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	for obj := range used {
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		recv := m.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		iface, ok := recv.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, n := range named {
			ptr := types.NewPointer(n)
			if !types.Implements(ptr, iface) {
				continue
			}
			if sel := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name()); sel != nil {
				used[origin(sel.Obj())] = true
			}
		}
	}
	return used
}

// declOwners returns the objects a top-level declaration declares, so
// that references from inside it do not count as uses of itself. A
// method's owners are the method and its receiver's base type.
func declOwners(info *types.Info, decl ast.Decl) map[types.Object]bool {
	owners := map[types.Object]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		owners[info.Defs[d.Name]] = true
		if d.Recv != nil && len(d.Recv.List) == 1 {
			if id := recvBase(d.Recv.List[0].Type); id != nil {
				owners[info.Uses[id]] = true
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				owners[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, id := range s.Names {
					owners[info.Defs[id]] = true
				}
			}
		}
	}
	return owners
}

// recvBase returns the type name of a receiver expression such as T,
// *T or *T[K].
func recvBase(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// origin maps an instantiated generic function, method or field back
// to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// readExportsAllowlist parses the allowlist: one "identifier reason"
// pair per line, blank lines and #-comments ignored.
func readExportsAllowlist(t *testing.T) map[string]string {
	f, err := os.Open(exportsAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", exportsAllowlist, n, name)
		}
		if _, dup := allow[name]; dup {
			t.Errorf("%s:%d: %s is listed twice", exportsAllowlist, n, name)
		}
		allow[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}
