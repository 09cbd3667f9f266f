package corgi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"corgi/internal/raceon"
)

// unreachableKept names the declarations the gate may find unreachable and
// why each is kept; what only they reach is kept with them. Two kinds
// qualify: a reference oracle that tests compare production against, and a
// fixture that tests of several packages build on. An entry that becomes
// reachable, or no longer exists, is stale and fails the gate too.
var unreachableKept = map[string]string{
	"attack.Adversary.Posterior":           "posterior-ratio oracle: the exact Bayesian posterior that the eps-Geo-Ind-after-pruning tests bound",
	"attack.Adversary.PosteriorRatioBound": "posterior-ratio oracle: the e^(eps*d) bound the tests hold that posterior to",
	"attack.Adversary.MAPAccuracy":         "posterior-ratio oracle: the MAP adversary's exact success rate",
	"lp.Problem.CheckFeasible":             "feasibility oracle the solver tests check every returned point with",
	"sample.Alias.Prob":                    "the exact distribution an alias table encodes, the oracle of the sampler's distribution tests",
	"sample.Alias.N":                       "the support size of an alias table, read by the same distribution tests",
	"hexgrid.Disk":                         "the cell-disk fixture five packages' tests build their regions from",
	"raceon.Enabled":                       "fixture: tests whose assertions the race detector perturbs skip on it",
	"clock.NewManual":                      "fixture: the manual clock the budget, stream and cluster tests (and nodetest's nodes) read instead of time.Now",
	"clock.Manual.Now":                     "fixture: what a test hands every Now field in place of time.Now",
	"clock.Manual.Advance":                 "fixture: how the budget, stream and cluster tests move time instead of waiting for it",
	"nodetest.Start":                       "fixture: the one N-node bring-up the cluster, node and loadgen tests share",
	"nodetest.Cluster.Restart":             "fixture: restarts a cluster node on its old addresses, for the cluster kill-and-restart test",
}

// TestNothingUnreachable is the module's dead-code gate. Every function,
// method and package-level constant or variable in its non-test code must
// be reachable from a root, and a root is:
//   - every main and init, and every package-level initialiser;
//   - every exported function and method declared in the module's root
//     package (corgi.go, the API code outside the module can import);
//   - every method that satisfies an interface type of the type-checked
//     program: one declared in any package the module builds on
//     (fmt.Stringer, error, json.Marshaler, flag.Value, heap.Interface,
//     ...), an interface literal such as an errors.As target, errors' own
//     Unwrap/Is/As probes, or the constraint of a type parameter that an
//     instantiation binds the type to.
//
// What only tests call is unreachable: delete it, or move it into the test
// files that use it.
func TestNothingUnreachable(t *testing.T) {
	if raceon.Enabled {
		t.Skip("static analysis: the race detector has nothing to instrument here")
	}
	found, kept, err := unreachable(".", unreachableKept)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s: %s is unreachable (%d lines): delete it, or move it into the tests that use it", f.pos, f.name, f.lines)
	}
	for name := range unreachableKept {
		if !kept[name] {
			t.Errorf("kept entry %s is stale: it is reachable or gone", name)
		}
	}
}

// TestUnreachableFixture runs the gate over testdata/deadcode, a module
// with one planted dead function beside three methods that only an
// interface type reaches: an errors.As target literal, a generic
// constraint and flag.Value (whose String is also a fmt.Stringer). The gate
// must report the planted function and nothing else.
func TestUnreachableFixture(t *testing.T) {
	if raceon.Enabled {
		t.Skip("static analysis: the race detector has nothing to instrument here")
	}
	found, _, err := unreachable(filepath.Join("testdata", "deadcode"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range found {
		names = append(names, f.name)
	}
	if strings.Join(names, " ") != "deadcode.planted" {
		t.Errorf("fixture: the gate reports %v, want [deadcode.planted]", names)
	}
}

// finding is one unreachable declaration: its name (the last element of
// its package path, then a method's receiver type), where it is, and its
// length in lines with its doc comment.
type finding struct {
	name  string
	pos   token.Position
	lines int
}

// listed is what `go list -json` says of one package.
type listed struct {
	ImportPath, Name, Dir, Export string
	GoFiles                       []string
	Standard                      bool
}

// unreachable type-checks every non-test package of the module at dir, the
// standard library from the export data `go list -export` builds or finds
// in the build cache, and returns the declarations that no root reaches,
// sorted by name. A declaration named in kept is not returned but counts
// as a root; the result's second value says which names of kept were
// unreachable until then.
func unreachable(dir string, kept map[string]string) ([]finding, map[string]bool, error) {
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Export,GoFiles,Standard", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}

	type pkg struct {
		listed
		files []*ast.File
		info  *types.Info
		types *types.Package
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	var std []string
	var mod []*pkg
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})}
	// go list -deps prints each package after everything it imports.
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var l listed
		if err := dec.Decode(&l); err != nil {
			return nil, nil, err
		}
		if l.Standard {
			if l.Export != "" {
				exports[l.ImportPath] = l.Export
				std = append(std, l.ImportPath)
			}
			continue
		}
		p := &pkg{listed: l, info: &types.Info{
			Types:     map[ast.Expr]types.TypeAndValue{},
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Instances: map[*ast.Ident]types.Instance{},
		}}
		for _, name := range l.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(l.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			p.files = append(p.files, f)
		}
		if p.types, err = conf.Check(l.ImportPath, fset, p.files, p.info); err != nil {
			return nil, nil, err
		}
		checked[l.ImportPath] = p.types
		mod = append(mod, p)
	}

	// The interface types of the program: every one declared at package
	// level, every interface type expression in the module, and the
	// anonymous ones errors.Is, As and Unwrap probe for.
	var ifaces []*types.Interface
	declared := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	declared(types.Universe)
	for _, path := range std {
		p, err := gc.Import(path)
		if err != nil {
			return nil, nil, err
		}
		declared(p.Scope())
	}
	for _, probe := range []string{"interface{ Unwrap() error }", "interface{ Unwrap() []error }",
		"interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		tv, err := types.Eval(fset, nil, token.NoPos, probe)
		if err != nil {
			return nil, nil, err
		}
		ifaces = append(ifaces, tv.Type.(*types.Interface))
	}

	// Every declaration the gate judges, with what it uses; and the roots.
	type decl struct {
		finding
		uses []types.Object
	}
	decls := map[types.Object]*decl{}
	var roots []types.Object
	uses := func(p *pkg, n ast.Node) (objs []types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				switch o := p.info.Uses[id].(type) {
				case *types.Func:
					objs = append(objs, o.Origin())
				case *types.Var, *types.Const:
					objs = append(objs, o)
				}
			}
			return true
		})
		return objs
	}
	span := func(doc *ast.CommentGroup, n ast.Node) int {
		start := n.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		return fset.Position(n.End()).Line - fset.Position(start).Line + 1
	}
	var named []*types.Named
	for _, p := range mod {
		prefix := path.Base(p.ImportPath) + "."
		api := p.Dir == root
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					name := prefix + fn.Name()
					if d.Recv != nil {
						name = prefix + receiverNamed(fn).Obj().Name() + "." + fn.Name()
					}
					decls[fn] = &decl{finding{name, fset.Position(d.Pos()), span(d.Doc, d)}, uses(p, d)}
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.Name == "main") ||
						api && fn.Exported() && (d.Recv == nil || receiverNamed(fn).Obj().Exported()) {
						roots = append(roots, fn)
					}
				case *ast.GenDecl:
					roots = append(roots, uses(p, d)...)
					for _, s := range d.Specs {
						vs, ok := s.(*ast.ValueSpec)
						if !ok {
							continue
						}
						doc := vs.Doc
						if doc == nil && !d.Lparen.IsValid() {
							doc = d.Doc
						}
						for _, id := range vs.Names {
							if o := p.info.Defs[id]; o != nil && id.Name != "_" {
								decls[o] = &decl{finding: finding{prefix + id.Name, fset.Position(vs.Pos()), span(doc, vs)}}
								if api && o.Exported() {
									roots = append(roots, o)
								}
							}
						}
					}
				}
			}
		}
		scope := p.types.Scope()
		declared(scope)
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				ifaces = append(ifaces, it)
			}
		}
		// A type argument's methods that its parameter's constraint names
		// are called through the type parameter.
		for id, inst := range p.info.Instances {
			var tparams *types.TypeParamList
			switch o := p.info.Uses[id].(type) {
			case *types.Func:
				tparams = o.Type().(*types.Signature).TypeParams()
			case *types.TypeName:
				if n, ok := o.Type().(*types.Named); ok {
					tparams = n.TypeParams()
				}
			}
			for i := 0; tparams != nil && i < tparams.Len(); i++ {
				if it, ok := tparams.At(i).Constraint().Underlying().(*types.Interface); ok {
					roots = append(roots, methods(inst.TypeArgs.At(i), it)...)
				}
			}
		}
	}

	// A method that satisfies an interface of the program is a root. Only
	// the types that have the interface's first method are tried.
	byMethod := map[string][]*types.Named{}
	for _, n := range named {
		ms := types.NewMethodSet(types.NewPointer(n))
		for i := 0; i < ms.Len(); i++ {
			name := ms.At(i).Obj().Name()
			byMethod[name] = append(byMethod[name], n)
		}
	}
	for _, it := range ifaces {
		if it.NumMethods() == 0 {
			continue
		}
		for _, n := range byMethod[it.Method(0).Name()] {
			if types.Implements(n, it) {
				roots = append(roots, methods(n, it)...)
			} else if p := types.NewPointer(n); types.Implements(p, it) {
				roots = append(roots, methods(p, it)...)
			}
		}
	}

	reached := map[types.Object]bool{}
	reach := func(work []types.Object) {
		for len(work) > 0 {
			o := work[len(work)-1]
			work = work[:len(work)-1]
			if d := decls[o]; d != nil && !reached[o] {
				reached[o] = true
				work = append(work, d.uses...)
			}
		}
	}
	reach(roots)
	keptFound := map[string]bool{}
	var keptRoots []types.Object
	for o, d := range decls {
		if _, ok := kept[d.name]; ok && !reached[o] {
			keptFound[d.name] = true
			keptRoots = append(keptRoots, o)
		}
	}
	reach(keptRoots)
	var found []finding
	for o, d := range decls {
		if !reached[o] {
			found = append(found, d.finding)
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].name < found[j].name })
	return found, keptFound, nil
}

// receiverNamed is the named type a method is declared on.
func receiverNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Unalias(t).(*types.Named)
}

// methods are the declarations that calling each method of it on a value
// of type t runs.
func methods(t types.Type, it *types.Interface) []types.Object {
	var fns []types.Object
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name()); obj != nil {
			fns = append(fns, obj.(*types.Func).Origin())
		}
	}
	return fns
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
