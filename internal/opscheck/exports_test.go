package opscheck

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
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported identifiers of internal/ packages that
// may stay although no non-test file references them, each with its reason.
// A key is "pkg.Name" or "pkg.Type.Method", with pkg the path below
// bfdn/internal/; a type's entry covers its methods. References from inside
// an allowed declaration do not count as uses, so what only allowed code
// reaches must be listed too. An entry that names no identifier, or one
// that non-test code references, fails the check, so the list cannot
// outlive its reasons.
var testOnlyAllowed = map[string]string{
	"server.Endpoints":   "opscheck reads the route catalog to check OPERATIONS.md",
	"server.MetricNames": "opscheck reads the metric registry to check OPERATIONS.md",
	"obs.Registry.Names": "server.MetricNames lists the daemon's registry with it",

	"sim.Checker":    "the model checker of the checked tests and FuzzCheckpoint, until an independent oracle replaces it",
	"sim.NewChecker": "the model checker of the checked tests and FuzzCheckpoint, until an independent oracle replaces it",
	"sim.RunChecked": "the model checker of the checked tests and FuzzCheckpoint, until an independent oracle replaces it",

	"sim.Ticket.From":      "the golden fingerprints of other packages hash an explore's parent",
	"tree.Tree.IsAncestor": "invariant tests in tree, core, teams and recursive check ancestry",
	"tree.Tree.LCA":        "invariant tests in tree and recursive meet robots' paths",
	"tree.Encode":          "the test-data format of tree's FuzzDecode corpus",
	"tree.Decode":          "the test-data format of tree's FuzzDecode corpus",
	"obs.Histogram.Count":  "sweep's recorder tests count a histogram's observations",
	"jobstore.Store.Dir":   "TestJobIdentityPinned reads a facade store's raw journal",
}

// allowed reports whether testOnlyAllowed covers key: with its own entry,
// or for a method with its type's.
func allowed(key string) bool {
	if _, ok := testOnlyAllowed[key]; ok {
		return true
	}
	if i := strings.LastIndex(key, "."); i > 0 {
		_, ok := testOnlyAllowed[key[:i]]
		return ok
	}
	return false
}

// testSupportPackages are internal/ packages that exist for the tests: their
// exports are not checked, and their references do not count as uses.
var testSupportPackages = map[string]bool{
	"bfdn/internal/opscheck": true,
}

// TestNoTestOnlyExports fails on every exported identifier of an internal/
// package that no non-test file of the module or of benchmark/ references:
// code that only tests reach belongs in the tests. It type-checks the
// non-test files with go/types, importing the standard library from source.
// A reference from inside the identifier's own declaration does not count,
// and a method that satisfies an interface is skipped, since a call through
// the interface reaches it unnamed. The root package is the public API and
// stays out of scope.
func TestNoTestOnlyExports(t *testing.T) {
	l := newExportLoader(t, "../..")
	for path := range l.dirs {
		if _, err := l.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	cands := l.candidates()
	used := l.uses(cands)
	satisfied := l.satisfyingMethods()

	var found []string
	seen := map[string]bool{}
	for obj, key := range cands {
		seen[key] = true
		if used[obj] || satisfied[obj] {
			continue
		}
		if allowed(key) {
			continue
		}
		pos := l.fset.Position(obj.Pos())
		rel, _ := filepath.Rel(l.root, pos.Filename)
		found = append(found, fmt.Sprintf("%s (%s:%d): no non-test code references it", key, filepath.ToSlash(rel), pos.Line))
	}
	sort.Strings(found)
	for _, f := range found {
		t.Error(f)
	}
	for key := range testOnlyAllowed {
		if !seen[key] {
			t.Errorf("allow-list entry %s names no exported identifier of an internal/ package", key)
			continue
		}
		for obj, k := range cands {
			if k == key && (used[obj] || satisfied[obj]) {
				t.Errorf("allow-list entry %s is referenced by non-test code; drop it from the list", key)
			}
		}
	}
	if len(cands) < 500 || !seen["sim.NewWorld"] {
		t.Fatalf("scanned %d exported identifiers without sim.NewWorld; the scan is broken", len(cands))
	}
	reached := map[string]bool{}
	for obj := range satisfied {
		reached[cands[obj]] = true
	}
	for _, key := range []string{
		"core.Algorithm.SelectMoves", "core.Algorithm.Reset", "urns.LeastLoadedPlayer.Choose",
		"adversary.AllowAll.Allowed", "tree.Tree.String",
	} {
		if !reached[key] {
			t.Errorf("%s implements an interface, but the scan did not see it", key)
		}
	}
}

// exportLoader type-checks the non-test Go files of the bfdn and
// bfdn/benchmark modules, and the standard library from source.
type exportLoader struct {
	t     *testing.T
	root  string
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func newExportLoader(t *testing.T, root string) *exportLoader {
	root, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	// Pure-Go variants of net and os/user: importing from source must not
	// run cgo.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &exportLoader{
		t:     t,
		root:  root,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := "bfdn"
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		if files := l.goFiles(path); len(files) > 0 {
			l.dirs[imp] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// goFiles lists the non-test Go files of dir that the default build
// context selects.
func (l *exportLoader) goFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			l.t.Fatal(err)
		} else if ok {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files
}

// Import type-checks a package of the modules from its non-test files, and
// delegates every other path to the standard library's source importer.
func (l *exportLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	var files []*ast.File
	for _, name := range l.goFiles(dir) {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.files[path] = files
	return pkg, nil
}

// candidates returns every exported package-level identifier, method and
// interface method of the internal/ packages outside testSupportPackages,
// keyed to its allow-list name.
func (l *exportLoader) candidates() map[types.Object]string {
	cands := map[types.Object]string{}
	for path, pkg := range l.pkgs {
		short, ok := strings.CutPrefix(path, "bfdn/internal/")
		if !ok || testSupportPackages[path] {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				cands[obj] = short + "." + name
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					cands[m] = short + "." + name + "." + m.Name()
				}
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if m := iface.ExplicitMethod(i); m.Exported() {
						cands[m] = short + "." + name + "." + m.Name()
					}
				}
			}
		}
	}
	return cands
}

// uses returns the candidates that a non-test file references from outside
// their own declaration. A method's receiver type does not count as a use
// of the type.
func (l *exportLoader) uses(cands map[types.Object]string) map[types.Object]bool {
	used := map[types.Object]bool{}
	for path, files := range l.files {
		if testSupportPackages[path] {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				l.declUses(decl, cands, used)
			}
		}
	}
	return used
}

func (l *exportLoader) declUses(decl ast.Decl, cands map[types.Object]string, used map[types.Object]bool) {
	// self holds the objects this declaration declares: a reference to
	// one of them from inside is recursion, not a use. skip holds the
	// parts whose references are not uses: a method's receiver, a
	// "var _ I = T{}" assertion, and the declaration of an allowed
	// identifier.
	self := map[types.Object]bool{}
	skip := map[ast.Node]bool{}
	declares := func(n ast.Node, ids ...*ast.Ident) {
		for _, id := range ids {
			obj := l.info.Defs[id]
			self[obj] = true
			if allowed(cands[obj]) {
				skip[n] = true
			}
		}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		declares(d, d.Name)
		if d.Recv != nil {
			skip[d.Recv] = true
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				declares(s, s.Name)
			case *ast.ValueSpec:
				declares(s, s.Names...)
				blank := true
				for _, id := range s.Names {
					blank = blank && id.Name == "_"
				}
				if blank {
					skip[s] = true
				}
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		if n == nil || skip[n] {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := origin(l.info.Uses[id])
		if obj == nil || self[obj] {
			return true
		}
		if _, ok := cands[obj]; ok {
			used[obj] = true
		}
		return true
	})
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// satisfyingMethods returns the exported methods of internal/ types that
// implement some method of an interface declared or used anywhere in the
// checked code or the standard library it imports.
func (l *exportLoader) satisfyingMethods() map[types.Object]bool {
	var ifaces []*types.Interface
	seenIface := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if iface, ok := typ.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && !seenIface[iface] {
			seenIface[iface] = true
			ifaces = append(ifaces, iface)
		}
	}
	for _, tv := range l.info.Types {
		if tv.Type != nil {
			addIface(tv.Type)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seenPkg := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seenPkg[pkg] {
			return
		}
		seenPkg[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range l.pkgs {
		walk(pkg)
	}

	satisfied := map[types.Object]bool{}
	for path, pkg := range l.pkgs {
		if !strings.HasPrefix(path, "bfdn/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			var methods []*types.Func
			own, isIface := named.Underlying().(*types.Interface)
			if isIface {
				for i := 0; i < own.NumExplicitMethods(); i++ {
					methods = append(methods, own.ExplicitMethod(i))
				}
			} else {
				for i := 0; i < named.NumMethods(); i++ {
					methods = append(methods, named.Method(i))
				}
			}
			if len(methods) == 0 {
				continue
			}
			ptr := types.NewPointer(named)
			for _, iface := range ifaces {
				if iface == own || !types.Implements(named, iface) && (isIface || !types.Implements(ptr, iface)) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					for _, m := range methods {
						if m.Name() == iface.Method(i).Name() {
							satisfied[m] = true
						}
					}
				}
			}
		}
	}
	return satisfied
}
