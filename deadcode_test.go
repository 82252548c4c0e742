package repro_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// deadcodeAllowlist names the identifiers that TestNoTestOnlyCode accepts
// with no production caller, each with the reason it stays in a non-test
// file. It holds at most five entries. Before adding one, delete the
// identifier, move it into the _test.go file of the one package whose
// tests use it, or give it a production caller; an entry is for code that
// the tests of two or more packages share, because Go test files cannot
// be imported across packages. Keys are "import/path.Name" and
// "import/path.Type.Member".
var deadcodeAllowlist = map[string]string{
	"repro/internal/exact.MinMax": "the Held-Karp oracle that ktour's factor-of-optimal test and " +
		"lowerbound's bound-below-optimum test both compare against; in test files it would need two copies",
}

// TestNoTestOnlyCode type-checks every package of the module and fails,
// naming file:line, on each package-level func, method, type, const, var
// or struct field declared in a non-test file that no non-test file uses
// outside its own declaration. e2ebench's non-test files count as callers
// (it is a separate module that benchmarks internal packages), and the
// root facade's exported API, methods that implement an interface and
// json-tagged fields (read by reflection) are exempt. DESIGN.md §8 says
// how to resolve a finding.
func TestNoTestOnlyCode(t *testing.T) {
	if len(deadcodeAllowlist) > 5 {
		t.Errorf("deadcodeAllowlist has %d entries; keep it at five or fewer", len(deadcodeAllowlist))
	}
	for key, why := range deadcodeAllowlist {
		if strings.TrimSpace(why) == "" {
			t.Errorf("deadcodeAllowlist entry %s gives no reason", key)
		}
	}
	r, err := findTestOnlyCode(".", "repro", "e2ebench")
	if err != nil {
		t.Fatal(err)
	}
	if want := countListed(t, ".") + countListed(t, "e2ebench"); r.checked < want {
		t.Fatalf("type-checked %d packages, but go list ./... reports %d here and in e2ebench", r.checked, want)
	}
	allowed := map[string]bool{}
	for _, f := range r.findings {
		if _, ok := deadcodeAllowlist[f.key]; ok {
			allowed[f.key] = true
			continue
		}
		t.Errorf("%s: %s %s has no caller outside test files: delete it, move it into the _test.go file of the package whose tests use it, or give it a production caller", f.where(), f.kind, f.key)
	}
	for key := range deadcodeAllowlist {
		if !allowed[key] {
			t.Errorf("deadcodeAllowlist entry %s names nothing the guard reports; remove it", key)
		}
	}
}

// TestDeadcodeGuardSelfTest runs the guard on the fixture module under
// testdata/deadcode, which declares one orphan func, one method that only
// its tests call, one method that implements fmt.Stringer, one json-tagged
// field and one func whose only caller is the outside module in
// testdata/deadcode/outside (as e2ebench is to this one). The guard must
// report exactly the first two.
func TestDeadcodeGuardSelfTest(t *testing.T) {
	root := filepath.Join("testdata", "deadcode")
	r, err := findTestOnlyCode(root, "fixture", "outside")
	if err != nil {
		t.Fatal(err)
	}
	if want := countListed(t, root) + countListed(t, filepath.Join(root, "outside")); r.checked < want || want != 2 {
		t.Errorf("type-checked %d packages, go list reports %d; want 2", r.checked, want)
	}
	var got []string
	for _, f := range r.findings {
		got = append(got, f.kind+" "+f.key+" at "+f.where())
	}
	want := []string{
		"func fixture/lib.Orphan at lib/lib.go:9",
		"method fixture/lib.Counter.Reset at lib/lib.go:30",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("guard reported\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// countListed is the number of packages `go list ./...` reports in dir.
func countListed(t *testing.T, dir string) int {
	t.Helper()
	out, err := goList(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	return len(strings.Fields(string(out)))
}

// deadcodeFinding is one identifier with no production caller.
type deadcodeFinding struct {
	key  string // "import/path.Name" or "import/path.Type.Member"
	kind string // func, method, type, const, var or field
	file string // relative to the module root
	line int
}

func (f deadcodeFinding) where() string {
	return fmt.Sprintf("%s:%d", filepath.ToSlash(f.file), f.line)
}

type deadcodeReport struct {
	checked  int // packages type-checked, the outside callers' included
	findings []deadcodeFinding
}

// listedPackage is the part of a `go list -json` record the guard reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

type checkedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// deadcodeLoader type-checks the module's packages and the outside
// callers from source and loads the standard library from the export
// data `go list -export` names, all through one importer, so that every
// package sees the same objects.
type deadcodeLoader struct {
	fset    *token.FileSet
	listed  map[string]*listedPackage
	checked map[string]*checkedPackage
	std     types.Importer
}

func goList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.Bytes())
	}
	return out, nil
}

// listAll returns the packages of dir's module matched by ./... and
// records them and their dependencies in l.listed.
func (l *deadcodeLoader) listAll(dir string) ([]*listedPackage, error) {
	out, err := goList(dir, "-deps", "-export", "-json=ImportPath,Name,Dir,GoFiles,Export,Standard,DepOnly", "./...")
	if err != nil {
		return nil, err
	}
	var matched []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if !lp.DepOnly {
			matched = append(matched, lp)
		}
		if l.listed[lp.ImportPath] == nil {
			l.listed[lp.ImportPath] = lp
		}
	}
	return matched, nil
}

func (l *deadcodeLoader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	lp := l.listed[path]
	if lp == nil {
		return nil, fmt.Errorf("import %q: not in go list's output", path)
	}
	if lp.Standard {
		return l.std.Import(path)
	}
	c, err := l.check(lp)
	if err != nil {
		return nil, err
	}
	return c.pkg, nil
}

func (l *deadcodeLoader) check(lp *listedPackage) (*checkedPackage, error) {
	if c := l.checked[lp.ImportPath]; c != nil {
		return c, nil
	}
	c := &checkedPackage{info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, f)
	}
	var errs []error
	conf := types.Config{Importer: l, Error: func(err error) { errs = append(errs, err) }}
	c.pkg, _ = conf.Check(lp.ImportPath, l.fset, c.files, c.info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w", lp.ImportPath, errors.Join(errs...))
	}
	l.checked[lp.ImportPath] = c
	return c, nil
}

// deadcodeDecl is one identifier the guard checks. A use between pos and
// end lies inside its own declaration and does not count.
type deadcodeDecl struct {
	key, kind string
	pos, end  token.Pos
}

// findTestOnlyCode runs the guard on the module at root. facade is the
// import path whose exported identifiers are public API, and outside
// lists module directories, relative to root, whose non-test files count
// as callers but are not themselves checked.
func findTestOnlyCode(root, facade string, outside ...string) (deadcodeReport, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return deadcodeReport{}, err
	}
	fset := token.NewFileSet()
	l := &deadcodeLoader{fset: fset, listed: map[string]*listedPackage{}, checked: map[string]*checkedPackage{}}
	l.std = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if lp := l.listed[path]; lp != nil && lp.Export != "" {
			return os.Open(lp.Export)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	own, err := l.listAll(root)
	if err != nil {
		return deadcodeReport{}, err
	}
	var callers []*listedPackage
	for _, dir := range outside {
		ps, err := l.listAll(filepath.Join(root, dir))
		if err != nil {
			return deadcodeReport{}, err
		}
		callers = append(callers, ps...)
	}
	var checked []*checkedPackage
	for _, lp := range append(own, callers...) {
		c, err := l.check(lp)
		if err != nil {
			return deadcodeReport{}, err
		}
		checked = append(checked, c)
	}

	decls := map[types.Object]*deadcodeDecl{}
	for _, c := range checked[:len(own)] {
		collectDecls(c, facade, decls)
	}
	used := map[types.Object]bool{}
	for _, c := range checked {
		collectUses(c, decls, used)
	}
	implementers := interfaceMethods(checked)

	r := deadcodeReport{checked: len(checked)}
	for obj, d := range decls {
		if used[obj] || implementers[obj] {
			continue
		}
		p := fset.Position(d.pos)
		rel, err := filepath.Rel(root, p.Filename)
		if err != nil {
			return deadcodeReport{}, err
		}
		r.findings = append(r.findings, deadcodeFinding{key: d.key, kind: d.kind, file: rel, line: p.Line})
	}
	sort.Slice(r.findings, func(i, j int) bool {
		a, b := r.findings[i], r.findings[j]
		return a.file < b.file || (a.file == b.file && a.line < b.line)
	})
	return r, nil
}

// collectDecls records c's package-level funcs, methods, types, consts,
// vars and struct fields, less the exempt ones: main and init, blank
// names, the facade's exported API and json-tagged fields.
func collectDecls(c *checkedPackage, facade string, decls map[types.Object]*deadcodeDecl) {
	path := c.pkg.Path()
	add := func(obj types.Object, key, kind string, node ast.Node) {
		if obj == nil || obj.Name() == "_" || (path == facade && obj.Exported()) {
			return
		}
		decls[obj] = &deadcodeDecl{key: key, kind: kind, pos: node.Pos(), end: node.End()}
	}
	for _, f := range c.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn := c.info.Defs[d.Name]
				if fn == nil || d.Name.Name == "init" || (d.Recv == nil && d.Name.Name == "main" && c.pkg.Name() == "main") {
					continue
				}
				if d.Recv == nil {
					add(fn, path+"."+fn.Name(), "func", d)
					continue
				}
				add(fn, path+"."+receiverName(fn)+"."+fn.Name(), "method", d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						tn := c.info.Defs[s.Name]
						add(tn, path+"."+s.Name.Name, "type", s)
						st, ok := s.Type.(*ast.StructType)
						if !ok || tn == nil {
							continue
						}
						fields := tn.Type().Underlying().(*types.Struct)
						i := 0
						for _, field := range st.Fields.List {
							for n := max(1, len(field.Names)); n > 0; n, i = n-1, i+1 {
								if _, tagged := reflect.StructTag(fields.Tag(i)).Lookup("json"); tagged {
									continue
								}
								v := fields.Field(i)
								add(v, path+"."+s.Name.Name+"."+v.Name(), "field", field)
							}
						}
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, name := range s.Names {
							if obj := c.info.Defs[name]; obj != nil {
								add(obj, path+"."+name.Name, kind, s)
							}
						}
					}
				}
			}
		}
	}
}

// receiverName is the name of fn's receiver base type.
func receiverName(fn types.Object) string {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return recv.(*types.Named).Obj().Name()
}

// collectUses marks every declared object that c's files use outside its
// own declaration. A method's receiver type does not count as a use of
// that type, a promoted selection uses the embedded fields it passes
// through, and an unkeyed struct literal uses every field.
func collectUses(c *checkedPackage, decls map[types.Object]*deadcodeDecl, used map[types.Object]bool) {
	receivers := map[*ast.Ident]bool{}
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			case *ast.CompositeLit:
				st, ok := c.info.Types[n].Type.Underlying().(*types.Struct)
				if !ok || len(n.Elts) == 0 {
					break
				}
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := 0; i < st.NumFields(); i++ {
						used[st.Field(i).Origin()] = true
					}
				}
			}
			return true
		})
	}
	for id, obj := range c.info.Uses {
		if receivers[id] {
			continue
		}
		obj = origin(obj)
		if d := decls[obj]; d != nil && d.pos <= id.Pos() && id.Pos() < d.end {
			continue
		}
		used[obj] = true
	}
	for _, sel := range c.info.Selections {
		typ := sel.Recv()
		idx := sel.Index()
		for _, i := range idx[:len(idx)-1] {
			if p, ok := typ.Underlying().(*types.Pointer); ok {
				typ = p.Elem()
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				break
			}
			used[st.Field(i).Origin()] = true
			typ = st.Field(i).Type()
		}
	}
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// interfaceMethods returns the methods, declared in the checked packages,
// by which their receiver type (or a pointer to it) implements some
// interface the program can see: error, a package-level interface of any
// package it imports, or an interface type written in its own code.
func interfaceMethods(checked []*checkedPackage) map[types.Object]bool {
	byMethod := map[string][]*types.Interface{}
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] || !it.IsMethodSet() {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seenPkg := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !isGeneric(tn.Type()) {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, c := range checked {
		visit(c.pkg)
		for _, tv := range c.info.Types {
			if tv.IsType() && !isGeneric(tv.Type) {
				addIface(tv.Type)
			}
		}
	}

	implementers := map[types.Object]bool{}
	for _, c := range checked {
		for _, name := range c.pkg.Scope().Names() {
			tn, ok := c.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || isGeneric(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			ptr := types.NewPointer(named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				for _, it := range byMethod[m.Name()] {
					if types.Implements(named, it) || types.Implements(ptr, it) {
						implementers[m] = true
						break
					}
				}
			}
		}
	}
	return implementers
}

func isGeneric(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.TypeParams().Len() > 0
}
