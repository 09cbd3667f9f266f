// Package graphx implements the paper's graph approximation (Sec. 4.2,
// Fig. 4): users' planar mobility over a finite hex-cell region is
// approximated by a weighted graph connecting each cell to its 6 immediate
// neighbors (center distance a) and its 6 diagonal neighbors (center
// distance sqrt(3)*a). Enforcing epsilon-Geo-Ind only on graph edges and
// relying on transitivity (Theorem 4.1) reduces the LP constraint count
// from O(K^3) to O(12*K^2)·(1/K)... i.e. O(K^2) rows.
//
// A note on Lemma 4.1: with edge weights equal to Euclidean center
// distances, the graph distance d_G is necessarily >= the Euclidean
// distance (triangle inequality), with a worst-case lattice stretch of
// Stretch ≈ 1.0353 at headings 15° off a lattice direction. Transitivity
// therefore yields the slightly weaker bound z_i/z_j <= exp(eps*d_G(i,j))
// for non-adjacent pairs. The paper treats d_G ≈ d; we expose both
// behaviours: WeightPaper keeps the paper's weights, WeightExact divides
// every edge weight by Stretch so that d_G/Stretch <= d holds for all pairs
// on the unbounded lattice, restoring the strict all-pairs guarantee at a
// small utility cost. The ext-approx-quality experiment quantifies the gap.
package graphx

import (
	"container/heap"
	"fmt"
	"math"

	"corgi/internal/hexgrid"
)

// Stretch is the worst-case ratio d_G / d_Euclid for the 12-neighbor hex
// lattice: cos(15°) + (2-sqrt(3))*sin(15°).
var Stretch = math.Cos(math.Pi/12) + (2-math.Sqrt(3))*math.Sin(math.Pi/12)

// WeightMode selects how edge weights map to Geo-Ind budgets.
type WeightMode int

// Weight modes.
const (
	// WeightPaper uses true center distances as edge weights (the paper's
	// construction).
	WeightPaper WeightMode = iota
	// WeightExact divides edge weights by Stretch, making the neighbor-pair
	// constraints a sufficient condition for all-pairs epsilon-Geo-Ind on
	// the lattice.
	WeightExact
)

// Edge is an undirected graph edge between node indices From < To with the
// (possibly mode-scaled) weight W in km and the true center distance Dist.
type Edge struct {
	From, To int
	W        float64
	Dist     float64
	Diagonal bool
}

// Graph is the 12-neighbor approximation graph over a finite cell set.
type Graph struct {
	coords []hexgrid.Coord
	index  map[hexgrid.Coord]int
	edges  []Edge
	adj    [][]halfEdge
}

type halfEdge struct {
	to int32
	w  float64
}

// Build constructs the graph over the given same-level cells. dist returns
// the center distance (km) between two cells. Duplicate cells are an error.
// Cells with no neighbors inside the set yield a disconnected graph, which
// Build permits; callers that require connectivity should check Connected.
func Build(cells []hexgrid.Coord, dist func(a, b hexgrid.Coord) float64, mode WeightMode) (*Graph, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("graphx: empty cell set")
	}
	g := &Graph{
		coords: append([]hexgrid.Coord(nil), cells...),
		index:  make(map[hexgrid.Coord]int, len(cells)),
		adj:    make([][]halfEdge, len(cells)),
	}
	for i, c := range g.coords {
		if _, dup := g.index[c]; dup {
			return nil, fmt.Errorf("graphx: duplicate cell %v", c)
		}
		g.index[c] = i
	}
	scale := 1.0
	if mode == WeightExact {
		scale = 1 / Stretch
	}
	add := func(i int, c, n hexgrid.Coord, diag bool) {
		j, ok := g.index[n]
		if !ok || j <= i { // each undirected edge once, from the lower index
			return
		}
		d := dist(c, n)
		e := Edge{From: i, To: j, W: d * scale, Dist: d, Diagonal: diag}
		g.edges = append(g.edges, e)
		g.adj[i] = append(g.adj[i], halfEdge{to: int32(j), w: e.W})
		g.adj[j] = append(g.adj[j], halfEdge{to: int32(i), w: e.W})
	}
	for i, c := range g.coords {
		for _, n := range hexgrid.Neighbors(c) {
			add(i, c, n, false)
		}
		for _, n := range hexgrid.DiagonalNeighbors(c) {
			add(i, c, n, true)
		}
	}
	return g, nil
}

// Edges returns the undirected edge list. The slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Connected reports whether every node is reachable from node 0.
func (g *Graph) Connected() bool {
	if len(g.coords) == 0 {
		return false
	}
	seen := make([]bool, len(g.coords))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, he := range g.adj[v] {
			if !seen[he.to] {
				seen[he.to] = true
				count++
				stack = append(stack, int(he.to))
			}
		}
	}
	return count == len(g.coords)
}

// ShortestFrom returns d_G(src, ·) by Dijkstra. Unreachable nodes get +Inf.
func (g *Graph) ShortestFrom(src int) []float64 {
	n := len(g.coords)
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &distHeap{items: []distItem{{node: int32(src), d: 0}}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.node] {
			continue
		}
		for _, he := range g.adj[it.node] {
			nd := it.d + he.w
			if nd < dist[he.to] {
				dist[he.to] = nd
				heap.Push(pq, distItem{node: he.to, d: nd})
			}
		}
	}
	return dist
}

// AllShortest returns the full d_G matrix (n x n) via repeated Dijkstra.
func (g *Graph) AllShortest() [][]float64 {
	out := make([][]float64, len(g.coords))
	for i := range out {
		out[i] = g.ShortestFrom(i)
	}
	return out
}

type distItem struct {
	node int32
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
