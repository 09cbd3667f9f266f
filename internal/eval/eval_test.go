package eval

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"corgi/internal/mechanism"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig9", "fig10a", "fig10b", "fig11", "fig12", "fig13", "fig14",
		"headline", "ext-planar", "ext-attack", "ext-budget", "ext-rpbvariant", "ext-approx-quality",
		"frontier"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("registry[%d] = %s, want %s", i, ids[i], id)
		}
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%s) failed", id)
		}
		if Describe(id) == "" {
			t.Errorf("Describe(%s) empty", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown id must not resolve")
	}
	if Describe("nope") != "" {
		t.Error("unknown id must describe empty")
	}
}

func TestTableFprint(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}, {"333", "4"}}}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// quickRuns memoizes each runner's output at Config{Quick: true, Seed: 1},
// so the golden test and the shape tests below read the same tables and no
// runner executes twice in one test binary (no test here is parallel).
var quickRuns = map[string]*Output{}

func quickOutput(t *testing.T, id string) *Output {
	t.Helper()
	if out, ok := quickRuns[id]; ok {
		return out
	}
	run, ok := Lookup(id)
	if !ok {
		t.Fatalf("unknown runner %s", id)
	}
	out, err := run(&Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	quickRuns[id] = out
	return out
}

func render(tabs []*Table) []byte {
	var buf bytes.Buffer
	for _, tab := range tabs {
		tab.Fprint(&buf)
	}
	return buf.Bytes()
}

// TestRunnersGolden pins every runner's quick output. The non-timing
// tables must render byte for byte as they did before the two evaluation
// packages were folded into one (digests recorded at that parent commit);
// the timing tables are checked for shape; the frontier is pinned by its
// JSON artifact.
func TestRunnersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at quick scale; skipped in -short")
	}
	for _, tc := range []struct {
		id     string
		digest string // sha256 of the rendered tables, or of the JSON artifact for frontier
		rows   []int  // timing tables: rows per table instead of a digest
	}{
		{id: "fig9", digest: "b15869897e86d5abcaf158099b33f6a6ea9c7774f9a029d7a8552a9b65f0d8b1"},
		{id: "fig10a", rows: []int{3}},
		{id: "fig10b", digest: "662276b0a328289069f1121b1591b814cee917eba213298b795935007a44a9be"},
		{id: "fig11", digest: "e32e8042c7aec62ecb4c975070a10c1725d740bfc39b60f4cebf38a7356d41c0"},
		{id: "fig12", digest: "485e2e6b75db3d0defa61d5daad91c6448345b2e7932bc566c14f999576d7038"},
		{id: "fig13", digest: "53a03093990827b9ca1b338b8b74ee3e00a25afcdcb85beadbe679c274146ca0"},
		{id: "fig14", rows: []int{4, 4}},
		{id: "headline", digest: "c04ddb75073058fe7881265e31cd09c45e7389992f653f98f32a11802b0b4518"},
		{id: "ext-planar", digest: "6df5c4de30d094d7e9791acb66b71c96375a0b2adfb91c78953bc193ab8e0d09"},
		{id: "ext-attack", digest: "41cd563bafbfb3353d03da8c130209557cfa79693a4a83aded4c42248a05497d"},
		{id: "ext-budget", digest: "cd1f2b5ac4ad7296647bef885fbcb375419b5bbcf28031ae53c84438d175c3bd"},
		{id: "ext-rpbvariant", digest: "a61ac8c68f98081adba414264cb0c05bf8be2be0cf462409bf00f500b71a1d65"},
		{id: "ext-approx-quality", digest: "5f2b6e2715b6ea3adb20abab460abf60ff9dbfb4860e764c15507eecd2c04c19"},
		{id: "frontier", digest: "dabb01bea11f088776ceb3be0ae760eb1b65f5ef81b6513b8dae9faad46eafb2"},
	} {
		t.Run(tc.id, func(t *testing.T) {
			out := quickOutput(t, tc.id)
			switch {
			case tc.rows != nil:
				if len(out.Tables) != len(tc.rows) {
					t.Fatalf("%d tables, want %d", len(out.Tables), len(tc.rows))
				}
				for i, tab := range out.Tables {
					if len(tab.Rows) != tc.rows[i] {
						t.Errorf("%s: %d rows, want %d", tab.ID, len(tab.Rows), tc.rows[i])
					}
					for _, row := range tab.Rows {
						if len(row) != len(tab.Header) {
							t.Errorf("%s: row %v does not match header %v", tab.ID, row, tab.Header)
						}
					}
				}
			case out.Artifact != nil:
				if len(out.Tables) == 0 {
					t.Error("artifact rendered no tables")
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(artifactJSON(t, out.Artifact))); got != tc.digest {
					t.Errorf("artifact sha256 = %s, want %s", got, tc.digest)
				}
			default:
				text := render(out.Tables)
				if got := fmt.Sprintf("%x", sha256.Sum256(text)); got != tc.digest {
					t.Errorf("tables sha256 = %s, want %s:\n%s", got, tc.digest, text)
				}
			}
		})
	}
}

// TestFrontierFullGolden pins the paper-scale frontier at seed 1: three
// epsilons under both adversaries, and 12 users x 16 steps of trajectory
// replay at each, where the quick golden replays one epsilon.
func TestFrontierFullGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale frontier solves LPs at three epsilons; skipped in -short")
	}
	out, err := RunFrontier(&Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const want = "e6b2ff60105b7876b7fca344ae0432bdecc01a97fbb6d0bc52e77140904410af"
	if got := fmt.Sprintf("%x", sha256.Sum256(artifactJSON(t, out.Artifact))); got != want {
		t.Errorf("artifact sha256 = %s, want %s", got, want)
	}
}

// artifactJSON encodes an artifact exactly as corgi-experiments -out does.
func artifactJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestFig10bCountsExactly validates the pure-counting experiment fully.
func TestFig10bCountsExactly(t *testing.T) {
	tabs := quickOutput(t, "fig10b").Tables
	if len(tabs) != 1 || len(tabs[0].Rows) != 7 {
		t.Fatalf("unexpected shape: %+v", tabs)
	}
	for _, row := range tabs[0].Rows {
		k, _ := strconv.Atoi(row[0])
		without, _ := strconv.Atoi(row[1])
		with, _ := strconv.Atoi(row[2])
		if without != k*k*(k-1) {
			t.Errorf("K=%d: without = %d, want %d", k, without, k*k*(k-1))
		}
		if with >= without && k > 13 {
			t.Errorf("K=%d: approximation did not reduce constraints", k)
		}
	}
}

// TestExtBudgetSoundness checks the approximation dominates the exact
// budget on real matrices (Prop. 4.5).
func TestExtBudgetSoundness(t *testing.T) {
	for _, row := range quickOutput(t, "ext-budget").Tables[0].Rows {
		if row[4] != "true" {
			t.Errorf("approx < exact for delta=%s", row[0])
		}
	}
}

// TestHeadlineShape verifies the core robustness claim end to end: the
// robust matrix must violate (strictly) less than the non-robust one.
func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("headline experiment skipped in -short")
	}
	rows := quickOutput(t, "headline").Tables[0].Rows
	corgi, _ := strconv.ParseFloat(rows[0][1], 64)
	plain, _ := strconv.ParseFloat(rows[1][1], 64)
	if corgi >= plain {
		t.Errorf("CORGI violations %.3f%% not below non-robust %.3f%%", corgi, plain)
	}
	if plain <= 0 {
		t.Error("non-robust matrix should violate after pruning")
	}
}

// TestFig12Shape verifies violations grow with pruning and CORGI stays
// below the baseline at the delta it was built for.
func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig12 skipped in -short")
	}
	for _, tab := range quickOutput(t, "fig12").Tables {
		first := tab.Rows[0]
		last := tab.Rows[len(tab.Rows)-1]
		nrFirst, _ := strconv.ParseFloat(first[1], 64)
		nrLast, _ := strconv.ParseFloat(last[1], 64)
		if nrLast < nrFirst {
			t.Errorf("%s: non-robust violations should grow with pruning: %v -> %v", tab.ID, nrFirst, nrLast)
		}
		// At small prune counts CORGI must beat the baseline.
		corgiFirst, _ := strconv.ParseFloat(first[2], 64)
		if corgiFirst > nrFirst {
			t.Errorf("%s: CORGI %.3f%% above baseline %.3f%% at 1 pruned", tab.ID, corgiFirst, nrFirst)
		}
	}
}

// TestFig9RepeatsDiffer pins the -full repeats: each runs in its own
// world, so repeats 2 and 3 trace different losses than repeat 1 (they
// used to be three copies of one row), while repeat 1 stays the world of
// the quick table: its first iterations are the quick table's rows.
func TestFig9RepeatsDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("fig9 at paper scale skipped in -short")
	}
	full, err := Fig9(&Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// rows are (delta, repeat, iteration, loss); key them by repeat.
	loss := map[string]map[string]string{}
	for _, row := range full.Tables[0].Rows {
		if loss[row[1]] == nil {
			loss[row[1]] = map[string]string{}
		}
		loss[row[1]][row[0]+"/"+row[2]] = row[3]
	}
	if len(loss) != 3 {
		t.Fatalf("full fig9 has %d repeats, want 3", len(loss))
	}
	for _, rep := range []string{"2", "3"} {
		same := true
		for k, v := range loss[rep] {
			if loss["1"][k] != v {
				same = false
			}
		}
		if same {
			t.Errorf("repeat %s is byte-identical to repeat 1", rep)
		}
	}
	for _, row := range quickOutput(t, "fig9").Tables[0].Rows {
		if got := loss["1"][row[0]+"/"+row[2]]; got != row[3] {
			t.Errorf("delta %s iteration %s: full repeat 1 reads %s, quick table %s", row[0], row[2], got, row[3])
		}
	}
}

// TestFrontierReportPR10 asserts the quick frontier sweep's acceptance
// shape (both adversaries, truncated Gowalla replay): the three registered
// mechanisms under the remapping adversary, both serving mechanisms under
// the trajectory adversary, and the robust mechanism dominating the
// non-robust baseline post-prune.
func TestFrontierReportPR10(t *testing.T) {
	if testing.Short() {
		t.Skip("frontier sweep solves LPs and replays trajectories; skipped in -short")
	}
	f, ok := quickOutput(t, "frontier").Artifact.(*Frontier)
	if !ok {
		t.Fatal("frontier runner's artifact is not a *Frontier")
	}
	if f.Schema != Schema {
		t.Fatalf("schema = %q, want %q", f.Schema, Schema)
	}
	if f.Seed != 1 || !f.Quick || f.Delta != 3 || len(f.Epsilons) != 2 {
		t.Fatalf("artifact echoes seed=%d quick=%v delta=%d epsilons=%v, want 1 true 3 [10 15]",
			f.Seed, f.Quick, f.Delta, f.Epsilons)
	}
	if len(f.Mechanisms) != 3 {
		t.Fatalf("frontier covers %d mechanisms, want 3", len(f.Mechanisms))
	}
	want := map[string]bool{"forest-optimal": false, "forest-nonrobust": false,
		mechanism.PlanarLaplaceName: false}
	for _, m := range f.Mechanisms {
		if len(m.Points) != len(f.Epsilons) {
			t.Fatalf("%s has %d points, want %d", m.Name, len(m.Points), len(f.Epsilons))
		}
		for _, p := range m.Points {
			if p.RemapErrorKm <= 0 {
				t.Fatalf("%s at eps=%g: remap error %v, want > 0", m.Name, p.Epsilon, p.RemapErrorKm)
			}
		}
		if _, ok := want[m.Name]; ok {
			want[m.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("mechanism %s missing from the frontier", name)
		}
	}
	if !f.RobustDominates {
		t.Fatal("robust mechanism does not dominate the non-robust baseline post-prune")
	}
	if len(f.Trajectory) < 2 {
		t.Fatalf("trajectory adversary covered %d mechanism points, want >= 2", len(f.Trajectory))
	}
	for _, tp := range f.Trajectory {
		if tp.Steps == 0 {
			t.Fatalf("trajectory point %s/eps=%g replayed zero steps", tp.Mechanism, tp.Epsilon)
		}
		if tp.TrajErrorKm <= 0 {
			t.Fatalf("trajectory point %s/eps=%g: traj error %v, want > 0", tp.Mechanism, tp.Epsilon, tp.TrajErrorKm)
		}
		if tp.LinearEpsBudget <= 0 {
			t.Fatalf("trajectory point %s/eps=%g: no epsilon charged", tp.Mechanism, tp.Epsilon)
		}
	}
}
