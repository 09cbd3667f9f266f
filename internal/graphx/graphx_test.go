package graphx

import (
	"math"
	"testing"

	"corgi/internal/geo"
	"corgi/internal/hexgrid"
)

func testDist(t *testing.T) (func(a, b hexgrid.Coord) float64, *hexgrid.System) {
	t.Helper()
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.5)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return func(a, b hexgrid.Coord) float64 {
		return sys.CenterXY(0, a).Dist(sys.CenterXY(0, b))
	}, sys
}

func TestBuildValidation(t *testing.T) {
	dist, _ := testDist(t)
	if _, err := Build(nil, dist, WeightPaper); err == nil {
		t.Error("empty cell set must fail")
	}
	cells := []hexgrid.Coord{{Q: 0, R: 0}, {Q: 0, R: 0}}
	if _, err := Build(cells, dist, WeightPaper); err == nil {
		t.Error("duplicate cells must fail")
	}
}

func TestGraphStructureOnDisk(t *testing.T) {
	dist, _ := testDist(t)
	cells := hexgrid.Disk(hexgrid.Coord{}, 3) // 37 cells
	g, err := Build(cells, dist, WeightPaper)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.coords) != 37 {
		t.Errorf("%d nodes, want 37", len(g.coords))
	}
	if !g.Connected() {
		t.Error("disk graph must be connected")
	}
	// The center cell has all 12 neighbors inside the disk.
	ci, ok := g.index[hexgrid.Coord{}]
	if !ok {
		t.Fatal("center not indexed")
	}
	if len(g.adj[ci]) != 12 {
		t.Errorf("center degree = %d, want 12", len(g.adj[ci]))
	}
	// Immediate edges have weight ~a, diagonal ~sqrt(3)a.
	a := 0.5
	for _, e := range g.Edges() {
		want := a
		if e.Diagonal {
			want = math.Sqrt(3) * a
		}
		if math.Abs(e.W-want) > 1e-9 {
			t.Errorf("edge %d-%d weight %v, want %v", e.From, e.To, e.W, want)
		}
		if e.From >= e.To {
			t.Errorf("edge %d-%d not normalized", e.From, e.To)
		}
		if e.W != e.Dist {
			t.Errorf("paper mode must keep W == Dist")
		}
	}
}

func TestWeightExactMode(t *testing.T) {
	dist, _ := testDist(t)
	cells := hexgrid.Disk(hexgrid.Coord{}, 2)
	gp, err := Build(cells, dist, WeightPaper)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := Build(cells, dist, WeightExact)
	if err != nil {
		t.Fatal(err)
	}
	if len(gp.Edges()) != len(ge.Edges()) {
		t.Fatal("edge counts differ across modes")
	}
	for i, ep := range gp.Edges() {
		ee := ge.Edges()[i]
		if math.Abs(ee.W-ep.W/Stretch) > 1e-12 {
			t.Errorf("exact weight %v, want %v/Stretch", ee.W, ep.W)
		}
		if ee.Dist != ep.Dist {
			t.Error("Dist must be mode independent")
		}
	}
}

func TestStretchValue(t *testing.T) {
	// cos(15°) + (2-sqrt(3))sin(15°) ≈ 1.03528
	if math.Abs(Stretch-1.035276) > 1e-5 {
		t.Errorf("Stretch = %v", Stretch)
	}
}

func TestShortestPathsBasics(t *testing.T) {
	dist, _ := testDist(t)
	cells := hexgrid.Disk(hexgrid.Coord{}, 3)
	g, err := Build(cells, dist, WeightPaper)
	if err != nil {
		t.Fatal(err)
	}
	ci := g.index[hexgrid.Coord{}]
	d := g.ShortestFrom(ci)
	if d[ci] != 0 {
		t.Errorf("self distance %v", d[ci])
	}
	// Immediate neighbor: a. Diagonal: sqrt(3)a (single diagonal edge,
	// shorter than two immediate hops 2a).
	a := 0.5
	ni := g.index[hexgrid.Coord{Q: 1, R: 0}]
	if math.Abs(d[ni]-a) > 1e-9 {
		t.Errorf("immediate neighbor d_G = %v, want %v", d[ni], a)
	}
	di := g.index[hexgrid.Coord{Q: 1, R: 1}]
	if math.Abs(d[di]-math.Sqrt(3)*a) > 1e-9 {
		t.Errorf("diagonal neighbor d_G = %v, want %v", d[di], math.Sqrt(3)*a)
	}
	// Straight line of 3 immediate hops.
	fi := g.index[hexgrid.Coord{Q: 3, R: 0}]
	if math.Abs(d[fi]-3*a) > 1e-9 {
		t.Errorf("3-hop straight d_G = %v, want %v", d[fi], 3*a)
	}
}

func TestShortestPathsVsEuclidStretch(t *testing.T) {
	// d_Euclid <= d_G <= Stretch * d_Euclid for all pairs in a convex disk.
	dist, sys := testDist(t)
	cells := hexgrid.Disk(hexgrid.Coord{}, 4)
	g, err := Build(cells, dist, WeightPaper)
	if err != nil {
		t.Fatal(err)
	}
	all := g.AllShortest()
	for i := 0; i < len(g.coords); i++ {
		for j := 0; j < len(g.coords); j++ {
			if i == j {
				continue
			}
			eu := sys.CenterXY(0, g.coords[i]).Dist(sys.CenterXY(0, g.coords[j]))
			dg := all[i][j]
			if dg < eu-1e-9 {
				t.Fatalf("pair %d-%d: d_G %v < Euclid %v (impossible)", i, j, dg, eu)
			}
			if dg > Stretch*eu+1e-9 {
				t.Fatalf("pair %d-%d: d_G %v > Stretch*Euclid %v", i, j, dg, Stretch*eu)
			}
		}
	}
}

func TestExactModeGuarantee(t *testing.T) {
	// With WeightExact, d_G(scaled) <= d_Euclid for all pairs: the property
	// the paper's Lemma 4.1 needs.
	dist, sys := testDist(t)
	cells := hexgrid.Disk(hexgrid.Coord{}, 4)
	g, err := Build(cells, dist, WeightExact)
	if err != nil {
		t.Fatal(err)
	}
	all := g.AllShortest()
	for i := 0; i < len(g.coords); i++ {
		for j := i + 1; j < len(g.coords); j++ {
			eu := sys.CenterXY(0, g.coords[i]).Dist(sys.CenterXY(0, g.coords[j]))
			if all[i][j] > eu+1e-9 {
				t.Fatalf("pair %d-%d: scaled d_G %v > Euclid %v", i, j, all[i][j], eu)
			}
		}
	}
}

func TestShortestSymmetry(t *testing.T) {
	dist, _ := testDist(t)
	cells := hexgrid.Disk(hexgrid.Coord{}, 3)
	g, err := Build(cells, dist, WeightPaper)
	if err != nil {
		t.Fatal(err)
	}
	all := g.AllShortest()
	for i := range all {
		for j := range all {
			if math.Abs(all[i][j]-all[j][i]) > 1e-9 {
				t.Fatalf("asymmetric d_G at %d,%d", i, j)
			}
		}
	}
}

func TestDisconnectedGraph(t *testing.T) {
	dist, _ := testDist(t)
	cells := []hexgrid.Coord{{Q: 0, R: 0}, {Q: 10, R: 10}}
	g, err := Build(cells, dist, WeightPaper)
	if err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Error("far-apart cells must be disconnected")
	}
	d := g.ShortestFrom(0)
	if !math.IsInf(d[1], 1) {
		t.Errorf("unreachable distance = %v, want +Inf", d[1])
	}
}

// TestConstraintCount: the Geo-Ind rows of Fig. 10(b) on a real graph, one
// per ordered neighbor pair per obfuscated column with the approximation
// against one per ordered pair per column without.
func TestConstraintCount(t *testing.T) {
	dist, _ := testDist(t)
	g, err := Build(hexgrid.Disk(hexgrid.Coord{}, 3), dist, WeightPaper)
	if err != nil {
		t.Fatal(err)
	}
	k, degrees := len(g.coords), 0
	for _, a := range g.adj {
		degrees += len(a)
	}
	if degrees != 2*len(g.Edges()) {
		t.Fatalf("adjacency lists hold %d half-edges for %d edges", degrees, len(g.Edges()))
	}
	with, without := degrees*k, k*k*(k-1)
	// The approximation must be a large reduction.
	if 2*with >= without {
		t.Errorf("%d rows with the approximation against %d without", with, without)
	}
}

func TestIndexOfMiss(t *testing.T) {
	dist, _ := testDist(t)
	g, err := Build([]hexgrid.Coord{{Q: 0, R: 0}}, dist, WeightPaper)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.index[hexgrid.Coord{Q: 5, R: 5}]; ok {
		t.Error("foreign cell must not be found")
	}
	if len(g.Edges()) != 0 {
		t.Error("single cell has no edges")
	}
}
