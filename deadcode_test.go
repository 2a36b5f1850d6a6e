package wavelettrie_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The source pass below type-checks every package of the module (and
// the nested bench module's main package) from source, with nothing but
// the standard library, for the dead-code gate.

const modulePath = "repro"

// gated reports whether a package's declarations are held to the
// dead-code gate: the library itself, not its commands or examples.
func gated(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/internal/") ||
		path == modulePath+"/store" || path == modulePath+"/server"
}

// listedPackage is the part of `go list -json` the pass reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Name         string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Path string }
}

type sourcePackage struct {
	listedPackage
	files []*ast.File // GoFiles, type-checked
	types *types.Package
}

// declaration is one node of the reference graph: a function, method,
// type, package-level var or const, or a field of a named struct.
type declaration struct {
	name  string // import path, then Type.Member or Name: "repro/store.Snapshot.Len"
	obj   types.Object
	uses  []token.Pos // the declarations its source refers to
	gated bool
}

type sourceProgram struct {
	fset  *token.FileSet
	pkgs  []*sourcePackage
	decls map[token.Pos]*declaration // keyed by the declaring identifier
	roots []token.Pos                // main, init, Example and harness test functions
	// ifaces holds every interface type the program names, by method
	// name: a method of a reachable type is reached through one it
	// implements.
	ifaces    map[string][]*types.Interface
	testFuncs map[string]bool // Test/Fuzz/Benchmark functions in the module
}

var (
	programOnce sync.Once
	program     *sourceProgram
	programErr  error
)

func loadProgram(t *testing.T) *sourceProgram {
	t.Helper()
	programOnce.Do(func() { program, programErr = newSourceProgram() })
	if programErr != nil {
		t.Fatal(programErr)
	}
	return program
}

func goList(args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v", strings.Join(args, " "), err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// moduleImporter hands out the pass's own packages, so that an object
// has one identity program-wide, and type-checks the standard library
// from source.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.checked[path]; p != nil {
		return p, nil
	}
	return m.std.Import(path)
}

func newSourceProgram() (*sourceProgram, error) {
	// `go list -deps` prints dependencies first, so packages type-check
	// in order. bench is a nested module; its main package is a caller.
	root, err := goList("list", "-deps", "-json", "./...")
	if err != nil {
		return nil, err
	}
	bench, err := goList("-C", "bench", "list", "-deps", "-json", ".")
	if err != nil {
		return nil, err
	}
	// The pure-Go files of the standard library declare the same API as
	// its cgo ones, and need no C toolchain.
	build.Default.CgoEnabled = false
	p := &sourceProgram{
		fset:      token.NewFileSet(),
		decls:     map[token.Pos]*declaration{},
		ifaces:    map[string][]*types.Interface{},
		testFuncs: map[string]bool{},
	}
	imp := moduleImporter{checked: map[string]*types.Package{}, std: importer.ForCompiler(p.fset, "source", nil)}
	seen := map[string]bool{}
	for _, lp := range append(root, bench...) {
		if lp.Standard || seen[lp.ImportPath] {
			continue
		}
		seen[lp.ImportPath] = true
		pkg := &sourcePackage{listedPackage: lp}
		if pkg.files, err = p.parse(lp.Dir, lp.GoFiles); err != nil {
			return nil, err
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		if pkg.types, err = conf.Check(lp.ImportPath, p.fset, pkg.files, info); err != nil {
			return nil, err
		}
		imp.checked[lp.ImportPath] = pkg.types
		p.pkgs = append(p.pkgs, pkg)
		p.collect(pkg.types, pkg.files, info, gated(lp.ImportPath))
		p.addInterfaces(info)
	}
	// Test files come after every package: they may import one that `go
	// list` prints later (a test-only helper package), which would
	// otherwise be type-checked again from source, apart from the pass.
	for _, pkg := range p.pkgs {
		if err := p.addTests(pkg, imp); err != nil {
			return nil, err
		}
	}
	p.collectStdInterfaces(imp.checked)
	return p, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
}

func (p *sourceProgram) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// addTests records the package's test function names and type-checks
// its test files when they hold a root: an Example, or any test of the
// benchmark harness, whose module CI tests beside this one. Test files
// may use helpers only the test build declares, so type errors are
// tolerated outside the roots' bodies.
func (p *sourceProgram) addTests(pkg *sourcePackage, imp moduleImporter) error {
	harness := pkg.Module != nil && pkg.Module.Path != modulePath
	for _, set := range [][]string{pkg.TestGoFiles, pkg.XTestGoFiles} {
		if len(set) == 0 {
			continue
		}
		files, err := p.parse(pkg.Dir, set)
		if err != nil {
			return err
		}
		var roots []*ast.FuncDecl
		for _, f := range files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					p.testFuncs[fn.Name.Name] = true
					if strings.HasPrefix(fn.Name.Name, "Example") || harness && testName.MatchString(fn.Name.Name) {
						roots = append(roots, fn)
					}
				}
			}
		}
		if len(roots) == 0 {
			continue
		}
		path, checked := pkg.ImportPath+"_test", files
		if files[0].Name.Name == pkg.Name {
			path, checked = pkg.ImportPath, append(files, pkg.files...)
		}
		var errs []types.Error
		info := newInfo()
		conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err.(types.Error)) }}
		tpkg, _ := conf.Check(path, p.fset, checked, info)
		for _, err := range errs {
			for _, fn := range roots {
				if fn.Pos() <= err.Pos && err.Pos < fn.End() {
					return err
				}
			}
		}
		p.collect(tpkg, files, info, false)
		if harness {
			p.addInterfaces(info)
		}
		for _, fn := range roots {
			p.roots = append(p.roots, fn.Name.Pos())
		}
	}
	return nil
}

// origin maps an instantiated generic object to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// collect adds the files' top-level declarations to the graph, each
// with the declarations its source refers to. A named struct's fields
// are declarations of their own; embedded ones go with the struct.
func (p *sourceProgram) collect(pkg *types.Package, files []*ast.File, info *types.Info, gated bool) {
	add := func(id *ast.Ident, name string, nodes ...ast.Node) *declaration {
		obj := info.Defs[id]
		d := p.decls[id.Pos()]
		if d == nil {
			d = &declaration{name: pkg.Path() + "." + name, obj: obj, gated: gated}
			p.decls[id.Pos()] = d
		}
		for _, n := range nodes {
			d.uses = append(d.uses, refs(n, info)...)
		}
		return d
	}
	for _, f := range files {
		isMain := f.Name.Name == "main"
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if recv := receiverTypeName(d); recv != "" {
					name = recv + "." + name
				} else if name == "init" || isMain && name == "main" {
					p.roots = append(p.roots, d.Name.Pos())
				}
				if d.Name.Name != "_" {
					add(d.Name, name, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							add(s.Name, s.Name.Name, s)
							continue
						}
						td := add(s.Name, s.Name.Name, s.Name)
						if s.TypeParams != nil {
							td.uses = append(td.uses, refs(s.TypeParams, info)...)
						}
						for _, field := range st.Fields.List {
							if len(field.Names) == 0 {
								td.uses = append(td.uses, refs(field.Type, info)...)
							}
							for _, fn := range field.Names {
								fd := add(fn, s.Name.Name+"."+fn.Name, field.Type)
								// A field is only as live as its struct.
								fd.uses = append(fd.uses, s.Name.Pos())
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.Name == "_" {
								continue
							}
							vd := add(id, id.Name, s)
							// A constant repeated from its group's
							// previous spec names its type only there.
							if n, ok := info.Defs[id].Type().(*types.Named); ok {
								vd.uses = append(vd.uses, n.Origin().Obj().Pos())
							}
						}
					}
				}
			}
		}
	}
}

// refs lists the positions of the objects n refers to, including every
// field of a struct literal written without keys.
func refs(n ast.Node, info *types.Info) []token.Pos {
	var out []token.Pos
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && obj.Pkg() != nil {
				out = append(out, origin(obj).Pos())
			}
		case *ast.CompositeLit:
			tv := info.Types[n]
			if tv.Type == nil {
				break
			}
			st, ok := tv.Type.Underlying().(*types.Struct)
			if ok && len(n.Elts) > 0 {
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := 0; i < st.NumFields(); i++ {
						out = append(out, st.Field(i).Origin().Pos())
					}
				}
			}
		}
		return true
	})
	return out
}

// addInterfaces records every interface type the checked files name,
// and every constraint a generic function or type is instantiated
// against, with the type arguments in place of its type parameters: a
// generic body calls its type arguments' methods through their
// constraint. It sees no test's files but the harness's: an interface
// only a test names calls nothing.
func (p *sourceProgram) addInterfaces(info *types.Info) {
	for _, tv := range info.Types {
		if tv.Type == nil {
			continue
		}
		if iface, ok := tv.Type.Underlying().(*types.Interface); ok {
			p.addInterface(iface)
		}
	}
	for id, inst := range info.Instances {
		var tparams *types.TypeParamList
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			tparams = obj.Origin().Type().(*types.Signature).TypeParams()
		case *types.TypeName:
			if named, ok := obj.Type().(*types.Named); ok {
				tparams = named.Origin().TypeParams()
			}
		}
		for i := 0; tparams != nil && i < tparams.Len(); i++ {
			if iface := instantiated(tparams.At(i).Constraint(), tparams, inst.TypeArgs); iface != nil {
				p.addInterface(iface)
			}
		}
	}
}

// instantiated returns constraint c with the type arguments args in place
// of the type parameters tparams, when c is a named interface or an
// instance of a generic one over them; nil when it is neither.
func instantiated(c types.Type, tparams *types.TypeParamList, args *types.TypeList) *types.Interface {
	named, ok := c.(*types.Named)
	if !ok {
		return nil
	}
	if named.TypeArgs().Len() == 0 {
		iface, _ := named.Underlying().(*types.Interface)
		return iface
	}
	subst := make([]types.Type, named.TypeArgs().Len())
	for i := range subst {
		subst[i] = named.TypeArgs().At(i)
		if tp, ok := subst[i].(*types.TypeParam); ok && tp.Index() < tparams.Len() && tparams.At(tp.Index()) == tp {
			subst[i] = args.At(tp.Index())
		}
	}
	inst, err := types.Instantiate(nil, named.Origin(), subst, false)
	if err != nil {
		return nil
	}
	iface, _ := inst.Underlying().(*types.Interface)
	return iface
}

func (p *sourceProgram) addInterface(iface *types.Interface) {
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		p.ifaces[name] = append(p.ifaces[name], iface)
	}
}

// collectStdInterfaces adds the package-level interfaces of every
// standard-library package the program imports, directly or not.
func (p *sourceProgram) collectStdInterfaces(module map[string]*types.Package) {
	p.addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if module[pkg.Path()] != pkg {
			for _, name := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
					if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
						p.addInterface(iface)
					}
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range module {
		walk(pkg)
	}
}

// reach returns every declaration reachable from the roots plus extra.
// A method is reached when something calls it by name, or when its
// receiver type is reached and implements an interface that has it.
func (p *sourceProgram) reach(extra []token.Pos) map[token.Pos]bool {
	reached := map[token.Pos]bool{}
	var queue []token.Pos
	mark := func(pos token.Pos) {
		if d := p.decls[pos]; d != nil && !reached[pos] {
			reached[pos] = true
			queue = append(queue, pos)
		}
	}
	for _, pos := range append(append([]token.Pos(nil), p.roots...), extra...) {
		mark(pos)
	}
	for len(queue) > 0 {
		d := p.decls[queue[0]]
		queue = queue[1:]
		for _, pos := range d.uses {
			mark(pos)
		}
		tn, ok := d.obj.(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); p.viaInterface(named, m) {
				mark(m.Pos())
			}
		}
	}
	return reached
}

func (p *sourceProgram) viaInterface(named *types.Named, m *types.Func) bool {
	for _, iface := range p.ifaces[m.Name()] {
		// Implements is unspecified on uninstantiated generic types:
		// there the name alone decides.
		if named.TypeParams().Len() > 0 || types.Implements(named, iface) ||
			types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

func receiverTypeName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch t := typ.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return t.X.(*ast.Ident).Name
	case *ast.IndexListExpr:
		return t.X.(*ast.Ident).Name
	}
	return ""
}

// allowReasons are the only grounds on which a declaration nothing
// reaches may stay: (a) the paper's public API or §3's bounds, (b) a
// seqstore baseline the paper's tables compare against, (c) the Go
// client's method for a wire op the server serves, (d) a helper tests in
// another package need, followed by those tests' names.
var allowReasons = []string{"(a)", "(b)", "(c)", "(d)"}

var testName = regexp.MustCompile(`^(Test|Fuzz|Benchmark)\w*$`)

// TestNoDeadCode fails on any declaration in the library that neither a
// command, an example, the benchmark harness nor testdata/deadcode.allow
// reaches. Fix a report by deleting the declaration, or by adding an
// allowlist line with one reason from allowReasons. An allowlist line
// that names a missing declaration, or one reached without it, fails
// too, so the list only shrinks.
func TestNoDeadCode(t *testing.T) {
	p := loadProgram(t)
	byName := map[string]token.Pos{}
	for pos, d := range p.decls {
		if d.gated {
			byName[d.name] = pos
		}
	}
	allow, err := os.ReadFile(filepath.Join("testdata", "deadcode.allow"))
	if err != nil {
		t.Fatal(err)
	}
	var allowed []token.Pos
	lineOf := map[token.Pos]int{}
	for i, line := range strings.Split(string(allow), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		where := fmt.Sprintf("deadcode.allow:%d: %s", i+1, fields[0])
		pos, ok := byName[fields[0]]
		switch {
		case !ok:
			t.Errorf("%s: no such declaration in the gated packages", where)
			continue
		case len(fields) < 2 || !slices.Contains(allowReasons, fields[1]):
			t.Errorf("%s: want one reason of (a), (b), (c), (d)", where)
		case fields[1] == "(d)" && len(fields) == 2:
			t.Errorf("%s: a (d) line names the tests that need it", where)
		case fields[1] != "(d)" && len(fields) > 2:
			t.Errorf("%s: only a (d) line takes more than its reason", where)
		case fields[1] == "(d)":
			for _, name := range fields[2:] {
				if name = strings.TrimSuffix(name, ","); !testName.MatchString(name) || !p.testFuncs[name] {
					t.Errorf("%s: no test %s in the module", where, name)
				}
			}
		}
		allowed = append(allowed, pos)
		lineOf[pos] = i + 1
	}
	reached := p.reach(nil)
	for _, pos := range allowed {
		if reached[pos] {
			t.Errorf("deadcode.allow:%d: %s is reached without its line: drop the line", lineOf[pos], p.decls[pos].name)
		}
	}
	reached = p.reach(allowed)
	var dead []string
	for pos, d := range p.decls {
		if d.gated && !reached[pos] {
			dead = append(dead, fmt.Sprintf("%s: %s", p.fset.Position(pos), d.name))
		}
	}
	sort.Strings(dead)
	for _, line := range dead {
		t.Errorf("unreachable: %s", line)
	}
}
