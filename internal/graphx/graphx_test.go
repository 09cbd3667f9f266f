package graphx

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"corgi/internal/geo"
	"corgi/internal/hexgrid"
)

// Stretch is the worst-case ratio d_G / d_Euclid for the 12-neighbor hex
// lattice: cos(15°) + (2-sqrt(3))*sin(15°).
var Stretch = math.Cos(math.Pi/12) + (2-math.Sqrt(3))*math.Sin(math.Pi/12)

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

// indexOf is the position of c in cells, or -1.
func indexOf(cells []hexgrid.Coord, c hexgrid.Coord) int {
	for i, x := range cells {
		if x == c {
			return i
		}
	}
	return -1
}

func TestBuildValidation(t *testing.T) {
	dist, _ := testDist(t)
	if _, err := Build(nil, dist); err == nil {
		t.Error("empty cell set must fail")
	}
	cells := []hexgrid.Coord{{Q: 0, R: 0}, {Q: 0, R: 0}}
	if _, err := Build(cells, dist); err == nil {
		t.Error("duplicate cells must fail")
	}
}

func TestGraphStructureOnDisk(t *testing.T) {
	dist, _ := testDist(t)
	cells := hexgrid.Disk(hexgrid.Coord{}, 3) // 37 cells
	g, err := Build(cells, dist)
	if err != nil {
		t.Fatal(err)
	}
	if g.n != 37 {
		t.Errorf("%d nodes, want 37", g.n)
	}
	if !g.Connected() {
		t.Error("disk graph must be connected")
	}
	// The center cell has all 12 neighbors inside the disk.
	ci := indexOf(cells, hexgrid.Coord{})
	if deg := len(adjacency(g)[ci]); deg != 12 {
		t.Errorf("center degree = %d, want 12", deg)
	}
	// Immediate edges have weight ~a, diagonal ~sqrt(3)a.
	a := 0.5
	for _, e := range g.Edges() {
		want := a
		if hexgrid.GridDist(cells[e.From], cells[e.To]) == 2 {
			want = math.Sqrt(3) * a
		}
		if math.Abs(e.Dist-want) > 1e-9 {
			t.Errorf("edge %d-%d weight %v, want %v", e.From, e.To, e.Dist, want)
		}
		if e.From >= e.To {
			t.Errorf("edge %d-%d not normalized", e.From, e.To)
		}
	}
}

// TestBuildMatchesNaiveScan: on random irregular subsets of a radius-5
// disk, in random order and some of them disconnected, Build's edges are
// in order those of a linear scan over each cell's immediate then diagonal
// neighbors, and Connected agrees with a breadth-first search over them.
func TestBuildMatchesNaiveScan(t *testing.T) {
	dist, _ := testDist(t)
	disk := hexgrid.Disk(hexgrid.Coord{}, 5)
	rng := rand.New(rand.NewSource(1))
	connected, disconnected := 0, 0
	for trial := 0; trial < 200; trial++ {
		keep := 0.2 + 0.8*rng.Float64()
		var cells []hexgrid.Coord
		for _, i := range rng.Perm(len(disk)) {
			if rng.Float64() < keep {
				cells = append(cells, disk[i])
			}
		}
		if len(cells) == 0 {
			continue
		}
		g, err := Build(cells, dist)
		if err != nil {
			t.Fatal(err)
		}
		var want []Edge
		for i, c := range cells {
			n6, d6 := hexgrid.Neighbors(c), hexgrid.DiagonalNeighbors(c)
			for _, n := range append(n6[:], d6[:]...) {
				if j := indexOf(cells, n); j > i {
					want = append(want, Edge{From: i, To: j, Dist: dist(c, n)})
				}
			}
		}
		got := g.Edges()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d edges, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: edge %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
		// Breadth-first from node 0 over the scanned edges.
		seen := make([]bool, len(cells))
		seen[0] = true
		queue, reached := []int{0}, 1
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, e := range want {
				for _, u := range [][2]int{{e.From, e.To}, {e.To, e.From}} {
					if u[0] == v && !seen[u[1]] {
						seen[u[1]] = true
						reached++
						queue = append(queue, u[1])
					}
				}
			}
		}
		bfs := reached == len(cells)
		if g.Connected() != bfs {
			t.Fatalf("trial %d (%d cells): Connected() = %v, breadth-first search says %v", trial, len(cells), g.Connected(), bfs)
		}
		if bfs {
			connected++
		} else {
			disconnected++
		}
	}
	if connected == 0 || disconnected == 0 {
		t.Fatalf("%d connected and %d disconnected subsets: both kinds must occur", connected, disconnected)
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
	g, err := Build(cells, dist)
	if err != nil {
		t.Fatal(err)
	}
	ci := indexOf(cells, hexgrid.Coord{})
	d := shortestFrom(adjacency(g), ci)
	if d[ci] != 0 {
		t.Errorf("self distance %v", d[ci])
	}
	// Immediate neighbor: a. Diagonal: sqrt(3)a (single diagonal edge,
	// shorter than two immediate hops 2a).
	a := 0.5
	ni := indexOf(cells, hexgrid.Coord{Q: 1, R: 0})
	if math.Abs(d[ni]-a) > 1e-9 {
		t.Errorf("immediate neighbor d_G = %v, want %v", d[ni], a)
	}
	di := indexOf(cells, hexgrid.Coord{Q: 1, R: 1})
	if math.Abs(d[di]-math.Sqrt(3)*a) > 1e-9 {
		t.Errorf("diagonal neighbor d_G = %v, want %v", d[di], math.Sqrt(3)*a)
	}
	// Straight line of 3 immediate hops.
	fi := indexOf(cells, hexgrid.Coord{Q: 3, R: 0})
	if math.Abs(d[fi]-3*a) > 1e-9 {
		t.Errorf("3-hop straight d_G = %v, want %v", d[fi], 3*a)
	}
}

func TestShortestPathsVsEuclidStretch(t *testing.T) {
	// d_Euclid <= d_G <= Stretch * d_Euclid for all pairs in a convex disk.
	dist, sys := testDist(t)
	cells := hexgrid.Disk(hexgrid.Coord{}, 4)
	g, err := Build(cells, dist)
	if err != nil {
		t.Fatal(err)
	}
	all := allShortest(g)
	for i := range cells {
		for j := range cells {
			if i == j {
				continue
			}
			eu := sys.CenterXY(0, cells[i]).Dist(sys.CenterXY(0, cells[j]))
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

func TestShortestSymmetry(t *testing.T) {
	dist, _ := testDist(t)
	cells := hexgrid.Disk(hexgrid.Coord{}, 3)
	g, err := Build(cells, dist)
	if err != nil {
		t.Fatal(err)
	}
	all := allShortest(g)
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
	g, err := Build(cells, dist)
	if err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Error("far-apart cells must be disconnected")
	}
	d := shortestFrom(adjacency(g), 0)
	if !math.IsInf(d[1], 1) {
		t.Errorf("unreachable distance = %v, want +Inf", d[1])
	}
}

// TestConstraintCount: the Geo-Ind rows of Fig. 10(b) on a real graph, one
// per ordered neighbor pair per obfuscated column with the approximation
// against one per ordered pair per column without.
func TestConstraintCount(t *testing.T) {
	dist, _ := testDist(t)
	g, err := Build(hexgrid.Disk(hexgrid.Coord{}, 3), dist)
	if err != nil {
		t.Fatal(err)
	}
	k, degrees := g.n, 0
	for _, nb := range adjacency(g) {
		degrees += len(nb)
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

// TestIndexOfMiss: neighbors missing from the cell set give no edge, and a
// single cell is one connected component.
func TestIndexOfMiss(t *testing.T) {
	dist, _ := testDist(t)
	g, err := Build([]hexgrid.Coord{{Q: 0, R: 0}}, dist)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges()) != 0 {
		t.Error("single cell has no edges")
	}
	if !g.Connected() {
		t.Error("a single cell is connected")
	}
}

type halfEdge struct {
	to int
	w  float64
}

// adjacency lists each node's half-edges in Edges() order, for the
// shortest-path oracle below.
func adjacency(g *Graph) [][]halfEdge {
	adj := make([][]halfEdge, g.n)
	for _, e := range g.Edges() {
		adj[e.From] = append(adj[e.From], halfEdge{to: e.To, w: e.Dist})
		adj[e.To] = append(adj[e.To], halfEdge{to: e.From, w: e.Dist})
	}
	return adj
}

// shortestFrom returns d_G(src, ·) by Dijkstra, the exact graph distance
// the stretch tests compare the approximation against. Unreachable nodes
// get +Inf.
func shortestFrom(adj [][]halfEdge, src int) []float64 {
	dist := make([]float64, len(adj))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &distHeap{items: []distItem{{node: src, d: 0}}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.node] {
			continue
		}
		for _, he := range adj[it.node] {
			nd := it.d + he.w
			if nd < dist[he.to] {
				dist[he.to] = nd
				heap.Push(pq, distItem{node: he.to, d: nd})
			}
		}
	}
	return dist
}

// allShortest returns the full d_G matrix (n x n) via repeated Dijkstra.
func allShortest(g *Graph) [][]float64 {
	adj := adjacency(g)
	out := make([][]float64, g.n)
	for i := range out {
		out[i] = shortestFrom(adj, i)
	}
	return out
}

type distItem struct {
	node int
	d    float64
}

type distHeap struct{ items []distItem }

func (h *distHeap) Len() int           { return len(h.items) }
func (h *distHeap) Less(i, j int) bool { return h.items[i].d < h.items[j].d }
func (h *distHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *distHeap) Push(x interface{}) { h.items = append(h.items, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
