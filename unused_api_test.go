package repro_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported internal/ functions and methods
// that no non-test code calls but that stay anyway, each with its
// reason. A key is a types.Func FullName, or a package path, which
// allows every exported function and method of that package.
var testOnlyAllowed = map[string]string{
	"repro/internal/platform/frozen":                   "the pre-spec platform construction, kept as the bit oracle the platform and sim frozen diffs compare against",
	"repro/internal/faultfs.NewInjector":               "the fault-injecting test fake behind simd.Config.FS; simd's chaos tests and faultfs's own tests drive it",
	"(*repro/internal/faultfs.Injector).Add":           "scripts a fault rule on the test fake behind simd.Config.FS",
	"(*repro/internal/faultfs.Injector).Injected":      "counts the faults the test fake behind simd.Config.FS fired",
	"(*repro/internal/faultfs.Injector).InjectedTotal": "counts the faults the test fake behind simd.Config.FS fired",
	"repro/internal/faultfs.IsInjected":                "tells an injected fault of the test fake behind simd.Config.FS from a real one",
	"(*repro/internal/stability.TransientCache).Hits":  "stability's and appaware's tests check that lanes sharing the memo hit it",
	"(*repro/internal/thermal.Sensor).Drops":           "thermal's and sim's tests check that injected sensor drops fire",
}

// TestInternalAPIHasProductionCallers fails when an exported function
// or method in internal/ has no caller outside _test.go files, so API
// that only tests use lives in the tests that use it. Callers are the
// non-test files of every package of the module, perfbench and the
// examples included, under every build constraint the module uses.
// Interface implementations and the methods of the types pkg/ re-exports
// by alias are public or reached through an interface, so they are not
// listed. The allowlist above must name exactly the rest.
func TestInternalAPIHasProductionCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	s := newAPIScan(t)
	unused := s.unused()

	var missing []string
	for _, name := range unused {
		if testOnlyAllowed[name] == "" && testOnlyAllowed[s.pkgOf(name)] == "" {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("exported internal/ API that no non-test code calls; delete it, move it into a _test.go file, or allowlist it with a reason:\n\t%s",
			strings.Join(missing, "\n\t"))
	}

	unusedSet := map[string]bool{}
	unusedPkgs := map[string]bool{}
	for _, name := range unused {
		unusedSet[name] = true
		unusedPkgs[s.pkgOf(name)] = true
	}
	for key := range testOnlyAllowed {
		switch {
		case s.pkgs[key] != nil:
			if !unusedPkgs[key] {
				t.Errorf("allowlisted package %s has no test-only API left; drop its entry", key)
			}
		case s.decls[key] == nil:
			t.Errorf("allowlisted %s no longer exists; drop its entry", key)
		case !unusedSet[key]:
			t.Errorf("allowlisted %s now has a non-test caller (or implements an interface); drop its entry", key)
		}
	}
}

// apiScan type-checks the module's non-test files and records which
// functions they use. Module packages are checked here so uses resolve
// to one object per declaration; the standard library comes from the
// source importer.
type apiScan struct {
	t     *testing.T
	fset  *token.FileSet
	std   types.ImporterFrom
	dirs  map[string]string         // import path -> directory
	pkgs  map[string]*types.Package // import path -> checked package (host build)
	infos map[string]*types.Info
	files map[string][]*ast.File
	used  map[string]bool        // FullName of every function some non-test code refers to
	decls map[string]*types.Func // FullName -> exported internal/ function or method
}

func newAPIScan(t *testing.T) *apiScan {
	fset := token.NewFileSet()
	s := &apiScan{
		t:     t,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
		files: map[string][]*ast.File{},
		used:  map[string]bool{},
		decls: map[string]*types.Func{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		imp := "repro"
		if path != "." {
			imp += "/" + filepath.ToSlash(path)
		}
		s.dirs[imp] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The host build first, then the other build the module's
	// constraints (amd64 and !amd64) select, so a caller in an
	// *_other.go file counts.
	paths := make([]string, 0, len(s.dirs))
	for p := range s.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := s.Import(p); err != nil && !isNoGo(err) {
			t.Fatalf("%s: %v", p, err)
		}
	}
	other := build.Default
	other.GOARCH = "arm64"
	for _, p := range paths {
		host, err := build.Default.ImportDir(s.dirs[p], 0)
		if err != nil {
			continue
		}
		alt, err := other.ImportDir(s.dirs[p], 0)
		if err != nil || strings.Join(alt.GoFiles, " ") == strings.Join(host.GoFiles, " ") {
			continue
		}
		if _, _, _, err := s.check(p, alt.GoFiles); err != nil {
			t.Fatalf("%s (GOARCH=arm64): %v", p, err)
		}
	}
	return s
}

// pkgOf returns the import path of the package declaring name.
func (s *apiScan) pkgOf(name string) string {
	if fn := s.decls[name]; fn != nil {
		return fn.Pkg().Path()
	}
	return ""
}

func isNoGo(err error) bool {
	var noGo *build.NoGoError
	return errors.As(err, &noGo)
}

// Import resolves a module import path to the package checked from its
// directory and anything else to the standard library.
func (s *apiScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

func (s *apiScan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg := s.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	d, ok := s.dirs[path]
	if !ok {
		return s.std.ImportFrom(path, dir, mode)
	}
	bp, err := build.Default.ImportDir(d, 0)
	if err != nil {
		return nil, err
	}
	pkg, info, files, err := s.check(path, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	s.pkgs[path], s.infos[path], s.files[path] = pkg, info, files
	return pkg, nil
}

// check type-checks the named files of one package, records the
// functions they use and the exported internal/ functions they declare
// (the first build to declare one keeps it).
func (s *apiScan) check(path string, names []string) (*types.Package, *types.Info, []*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(s.dirs[path], name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = info.Defs[fd.Name]
				if fn, ok := self.(*types.Func); ok && fn.Exported() && strings.HasPrefix(path, "repro/internal/") && s.decls[fn.FullName()] == nil {
					s.decls[fn.FullName()] = fn
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if fn, ok := info.Uses[id].(*types.Func); ok && fn != self {
					s.used[fn.Origin().FullName()] = true
				}
				return true
			})
		}
	}
	return pkg, info, files, nil
}

// unused returns, sorted, the exported internal/ functions and methods
// that no non-test code refers to, less interface implementations and
// the methods of types pkg/ re-exports by alias.
func (s *apiScan) unused() []string {
	aliased := map[*types.TypeName]bool{}
	for path, files := range s.files {
		if !strings.HasPrefix(path, "repro/pkg/") {
			continue
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !ts.Assign.IsValid() {
					return true
				}
				typ := s.infos[path].Types[ts.Type].Type
				if p, ok := typ.(*types.Pointer); ok {
					typ = p.Elem()
				}
				if named, ok := typ.(*types.Named); ok {
					aliased[named.Obj()] = true
				}
				return true
			})
		}
	}

	ifaces := s.interfaces()
	var out []string
	for name, fn := range s.decls {
		if s.used[name] {
			continue
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			named, ok := typ.(*types.Named)
			if ok && (aliased[named.Obj()] || implementsAny(named, fn.Name(), ifaces)) {
				continue
			}
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// interfaces collects every interface the module's code can reach: the
// named interfaces of its packages and of every package they import,
// and the interface literals its expressions use.
func (s *apiScan) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range s.pkgs {
		walk(pkg)
	}
	// Interfaces the standard library asserts inside function bodies,
	// which the source importer does not type-check.
	conv, err := parser.ParseFile(s.fset, "conventions.go", stdConventions, 0)
	if err != nil {
		s.t.Fatal(err)
	}
	convPkg, err := (&types.Config{}).Check("conventions", s.fset, []*ast.File{conv}, nil)
	if err != nil {
		s.t.Fatal(err)
	}
	walk(convPkg)
	for _, info := range s.infos {
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	return out
}

// stdConventions declares the method sets the standard library finds
// by type assertion: the error interface and errors' unwrapping hooks.
const stdConventions = `package conventions

type (
	err          interface{ error }
	unwrapper    interface{ Unwrap() error }
	multiWrapper interface{ Unwrap() []error }
	iser         interface{ Is(error) bool }
	aser         interface{ As(any) bool }
)
`

func implementsAny(named *types.Named, method string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		if !hasMethod(it, method) {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}
