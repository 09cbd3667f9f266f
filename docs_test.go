package corgi

import (
	"encoding/json"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"corgi/internal/budget"
	"corgi/internal/cluster"
	"corgi/internal/core"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/session"
	"corgi/internal/stream"
)

// designDocs are the documents the docs tests hold to the tree: every
// path, route, test, counter and benchmark name they cite must exist.
var designDocs = []string{"README.md", "ARCHITECTURE.md"}

// readDocs returns each design document's text by file name.
func readDocs(t *testing.T) map[string]string {
	t.Helper()
	docs := map[string]string{}
	for _, name := range designDocs {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}
	return docs
}

// uniqueMatches returns the distinct values of submatch group of re in s,
// sorted.
func uniqueMatches(re *regexp.Regexp, s string, group int) []string {
	seen := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(s, -1) {
		seen[m[group]] = true
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

var (
	// docPath matches a repository path under one of the source trees; a
	// trailing '.' is sentence punctuation, not part of the path.
	docPath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])((?:internal|cmd|bench|examples)/[A-Za-z0-9_./*-]*[A-Za-z0-9_/*-])`)
	// docSelector is a Go selector written after a package path
	// (internal/budget.Accountant), which names the package.
	docSelector = regexp.MustCompile(`\.[A-Z][A-Za-z0-9_]*$`)
)

// TestDocsPathsExist: every internal/, cmd/, bench/ and examples/ path the
// documents name exists (a '*' in one is a glob that must match).
func TestDocsPathsExist(t *testing.T) {
	for name, text := range readDocs(t) {
		for _, p := range uniqueMatches(docPath, text, 1) {
			dir := docSelector.ReplaceAllString(strings.TrimSuffix(p, "/"), "")
			matches, err := filepath.Glob(filepath.FromSlash(dir))
			if err != nil || len(matches) == 0 {
				t.Errorf("%s names %s, which does not exist", name, p)
			}
		}
	}
}

var docRoute = regexp.MustCompile(`/healthz|/v1/[a-z0-9_/]*[a-z0-9_]`)

// TestDocsRoutesAreServed: every /v1/ route and /healthz the documents name
// is a pattern the one HTTP handler registers.
func TestDocsRoutesAreServed(t *testing.T) {
	mux := new(proto.MultiHandler).Mux()
	for name, text := range readDocs(t) {
		for _, route := range uniqueMatches(docRoute, text, 0) {
			if _, pattern := mux.Handler(httptest.NewRequest("GET", route, nil)); pattern != route {
				t.Errorf("%s names route %s, which proto.MultiHandler.Mux() does not serve", name, route)
			}
		}
	}
}

// docTest matches a cited Test or Fuzz function, with the package it was
// qualified by, if any.
var docTest = regexp.MustCompile(`\b(?:([a-z][a-z0-9]*)\.)?((?:Test|Fuzz)[A-Z][A-Za-z0-9_]*)`)

// declaredTests maps every Test and Fuzz function of the module's _test.go
// files to the directories (by base name) that declare one of that name.
func declaredTests(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)[A-Za-z0-9_]*)\(`)
	tests := map[string]map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && path != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir, _ := filepath.Abs(filepath.Dir(path))
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			if tests[m[1]] == nil {
				tests[m[1]] = map[string]bool{}
			}
			tests[m[1]][filepath.Base(dir)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tests
}

// TestDocsCiteDeclaredTests: every Test or Fuzz function the documents
// cite is declared in a _test.go file, in the named package when the
// citation names one (proto.TestStatsBodyGolden).
func TestDocsCiteDeclaredTests(t *testing.T) {
	tests := declaredTests(t)
	for name, text := range readDocs(t) {
		seen := map[string]bool{}
		for _, m := range docTest.FindAllStringSubmatch(text, -1) {
			pkg, fn := m[1], m[2]
			if seen[m[0]] {
				continue
			}
			seen[m[0]] = true
			switch dirs := tests[fn]; {
			case dirs == nil:
				t.Errorf("%s cites %s, which no _test.go file declares", name, m[0])
			case pkg != "" && !dirs[pkg]:
				t.Errorf("%s cites %s, but package %s declares no %s", name, m[0], pkg, fn)
			}
		}
	}
}

var (
	// docLayerMetric is a backticked layer.metric_name: Go identifiers
	// carry no underscore, corgi-bench's per-layer names always do.
	docLayerMetric = regexp.MustCompile("`([a-z]+)\\.([a-z0-9]*_[a-z0-9_]*)`")
	// docRunMetric is a backticked run-level metric, named by its unit.
	docRunMetric = regexp.MustCompile("`([a-z0-9_]+_(?:per_op|per_s|mb|us|ns|ms))`")
	// docWorkload is a corgi-bench workload name.
	docWorkload = regexp.MustCompile(`\b(?:replay|cold)_[a-z0-9_]+\b`)
)

// TestDocsBenchNamesExist: every corgi-bench metric and workload the
// documents cite is declared in BENCHMARK.json.
func TestDocsBenchNamesExist(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name string }
	var bench struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	workloads, metrics, layers := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		metrics[m.Name] = true
		if layer, _, ok := strings.Cut(m.Name, "."); ok {
			layers[layer] = true
		}
	}
	if len(workloads) == 0 || len(metrics) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads or no metrics")
	}
	for name, text := range readDocs(t) {
		for _, m := range uniqueMatches(docLayerMetric, text, 0) {
			metric := strings.Trim(m, "`")
			if layer, _, _ := strings.Cut(metric, "."); layers[layer] && !metrics[metric] {
				t.Errorf("%s cites corgi-bench metric %s, which BENCHMARK.json does not declare", name, metric)
			}
		}
		for _, metric := range uniqueMatches(docRunMetric, text, 1) {
			if !metrics[metric] {
				t.Errorf("%s cites corgi-bench metric %s, which BENCHMARK.json does not declare", name, metric)
			}
		}
		for _, w := range uniqueMatches(docWorkload, text, 0) {
			if !workloads[w] {
				t.Errorf("%s cites corgi-bench workload %s, which BENCHMARK.json does not declare", name, w)
			}
		}
	}
}

// statsTypes are the Go types whose JSON encodings GET /v1/stats serves,
// by the name ARCHITECTURE.md's counter tables give them in their header.
var statsTypes = map[string]reflect.Type{
	"proto.MultiStatsResponse": reflect.TypeOf(proto.MultiStatsResponse{}),
	"core.EngineStats":         reflect.TypeOf(core.EngineStats{}),
	"session.Stats":            reflect.TypeOf(session.Stats{}),
	"budget.Stats":             reflect.TypeOf(budget.Stats{}),
	"registry.LeaseStats":      reflect.TypeOf(registry.LeaseStats{}),
	"stream.Stats":             reflect.TypeOf(stream.Stats{}),
	"cluster.Stats":            reflect.TypeOf(cluster.Stats{}),
}

// jsonNames returns the JSON keys of a struct type's fields.
func jsonNames(typ reflect.Type) map[string]bool {
	names := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case key == "-" || !f.IsExported():
		case key == "":
			names[f.Name] = true
		default:
			names[key] = true
		}
	}
	return names
}

// tableCell returns the first cell of a markdown table row, or false for a
// line that is not one.
func tableCell(line string) (string, bool) {
	if !strings.HasPrefix(line, "|") {
		return "", false
	}
	cells := strings.Split(line, "|")
	return strings.TrimSpace(cells[1]), len(cells) > 2
}

var backticked = regexp.MustCompile("`([^`]+)`")

// TestDocsStatsTablesMatchStructs: ARCHITECTURE.md has one counter table
// per /v1/stats type, headed by the type's name, and its first column
// lists exactly the type's JSON keys, none missing and none extra.
func TestDocsStatsTablesMatchStructs(t *testing.T) {
	text := readDocs(t)["ARCHITECTURE.md"]
	tables := map[string]map[string]bool{}
	var current map[string]bool
	for _, line := range strings.Split(text, "\n") {
		cell, ok := tableCell(line)
		if !ok {
			current = nil
			continue
		}
		if current == nil {
			for _, m := range backticked.FindAllStringSubmatch(cell, -1) {
				if _, known := statsTypes[m[1]]; known {
					if tables[m[1]] != nil {
						t.Errorf("ARCHITECTURE.md has two counter tables for %s", m[1])
					}
					current = map[string]bool{}
					tables[m[1]] = current
				}
			}
			if current == nil {
				current = map[string]bool{} // some other table: read and drop
			}
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(cell, -1) {
			current[m[1]] = true
		}
	}
	for typeName, typ := range statsTypes {
		documented, ok := tables[typeName]
		if !ok {
			t.Errorf("ARCHITECTURE.md has no counter table headed %s", typeName)
			continue
		}
		fields := jsonNames(typ)
		for key := range fields {
			if !documented[key] {
				t.Errorf("ARCHITECTURE.md's %s table lacks %s", typeName, key)
			}
		}
		for key := range documented {
			if !fields[key] {
				t.Errorf("ARCHITECTURE.md's %s table lists %s, which %s does not encode", typeName, key, typeName)
			}
		}
	}
}

// TestArchitectureMapListsEveryPackage: the package map at the top of
// ARCHITECTURE.md has one row per directory under internal/ and cmd/,
// and no row for a directory that does not exist.
func TestArchitectureMapListsEveryPackage(t *testing.T) {
	text := readDocs(t)["ARCHITECTURE.md"]
	_, section, ok := strings.Cut(text, "\n## Package map\n")
	if !ok {
		t.Fatal(`ARCHITECTURE.md has no "## Package map" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]int{}
	for _, line := range strings.Split(section, "\n") {
		if cell, ok := tableCell(line); ok {
			for _, m := range backticked.FindAllStringSubmatch(cell, -1) {
				rows[strings.TrimSuffix(m[1], "/")]++
			}
		}
	}
	want := map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				want[root+"/"+e.Name()] = true
			}
		}
	}
	for dir := range want {
		if n := rows[dir]; n != 1 {
			t.Errorf("ARCHITECTURE.md's package map lists %s %d times, want once", dir, n)
		}
	}
	for row := range rows {
		if (strings.HasPrefix(row, "internal/") || strings.HasPrefix(row, "cmd/")) && !want[row] {
			t.Errorf("ARCHITECTURE.md's package map lists %s, which is not a directory under internal/ or cmd/", row)
		}
	}
}
