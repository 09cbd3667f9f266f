package corgi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// waitsKept names the test functions that may wait on the wall clock and
// why each does. The target is an empty map: time a test controls is a
// clock.Manual it advances, and an event a test waits for is a channel.
// An entry that no longer waits is stale and fails the lint too.
var waitsKept = map[string]string{
	"loadgen.TestOpenLoopCountsEveryArrival": "open-loop latency is wall time by design: a request is timed from when " +
		"its arrival was due, so seeing the queue wait in it takes a target that holds the one worker for real time " +
		"while arrivals queue behind it; the load generator keeps time.Now, and no event stands in for elapsed time",
}

// wallClockWaits are the time package's functions that wait on the wall
// clock or build something that does.
var wallClockWaits = map[string]bool{"Sleep": true, "After": true, "NewTimer": true, "Tick": true, "NewTicker": true}

// TestNoWallClockWaits is the module's lint against tests that wait on
// the wall clock: no _test.go file may call or refer to time.Sleep,
// time.After, time.NewTimer, time.Tick or time.NewTicker outside a
// function waitsKept names.
func TestNoWallClockWaits(t *testing.T) {
	found, err := waits(".")
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	for _, w := range found {
		if _, ok := waitsKept[w.name]; ok {
			kept[w.name] = true
			continue
		}
		t.Errorf("%s: %s waits on the wall clock with time.%s: advance a clock.Manual or wait on a channel", w.pos, w.name, w.fn)
	}
	for name := range waitsKept {
		if !kept[name] {
			t.Errorf("kept entry %s is stale: it waits on the wall clock no more", name)
		}
	}
}

// TestWallClockWaitsFixture runs the lint over testdata/waits, where three
// tests wait (through an import alias, a dot import and a method value)
// beside a test that only reads the clock, one whose "time" is a local
// variable, and a non-test file that sleeps. The lint must report the
// three and nothing else.
func TestWallClockWaitsFixture(t *testing.T) {
	found, err := waits(filepath.Join("testdata", "waits"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range found {
		got = append(got, w.name+" "+w.fn)
	}
	if want := "waits.TestAliased Sleep, waits.TestDotted After, waits.TestValue NewTicker"; strings.Join(got, ", ") != want {
		t.Errorf("fixture: the lint reports [%s], want [%s]", strings.Join(got, ", "), want)
	}
}

// wait is one wall-clock wait in a test file: the function it is in
// (package name, then a method's receiver type), where it is, and which
// time function it names.
type wait struct {
	name, fn string
	pos      token.Position
}

// waits parses every _test.go file under dir, testdata directories aside,
// and returns the wall-clock waits in them sorted by function name.
func waits(dir string) ([]wait, error) {
	var found []wait
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		found = append(found, fileWaits(fset, f)...)
		return nil
	})
	sort.SliceStable(found, func(i, j int) bool { return found[i].name < found[j].name })
	return found, err
}

// fileWaits finds the wall-clock waits in one parsed file: a selector on
// the name the file imports "time" under, or with a dot import a bare
// name, that the parser did not resolve to a declaration of the file.
func fileWaits(fset *token.FileSet, f *ast.File) []wait {
	local := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
			local = "time"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" || local == "_" {
		return nil
	}
	var found []wait
	for _, d := range f.Decls {
		name := f.Name.Name + "."
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name += id.Name + "."
				}
			}
			name += d.Name.Name
		case *ast.GenDecl:
			name += "<declarations>"
		}
		report := func(id *ast.Ident) {
			if wallClockWaits[id.Name] {
				found = append(found, wait{name: name, fn: id.Name, pos: fset.Position(id.Pos())})
			}
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == local && x.Obj == nil {
					report(n.Sel)
				} else {
					ast.Inspect(n.X, visit) // a field or method name is no wait
				}
				return false
			case *ast.Ident:
				if local == "." && n.Obj == nil {
					report(n)
				}
			}
			return true
		}
		ast.Inspect(d, visit)
	}
	return found
}
