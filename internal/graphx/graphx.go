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

// Graph is the 12-neighbor approximation graph over a finite cell set. Its
// adjacency is compressed sparse rows: node i's half-edges are
// adj[off[i]:off[i+1]], in the order of the edges they come from.
type Graph struct {
	coords []hexgrid.Coord
	index  map[hexgrid.Coord]int
	edges  []Edge
	off    []int32
	adj    []halfEdge
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
		// Every node has at most 12 neighbors: at most 6 edges per node.
		edges: make([]Edge, 0, 6*len(cells)),
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
		g.edges = append(g.edges, Edge{From: i, To: j, W: d * scale, Dist: d, Diagonal: diag})
	}
	for i, c := range g.coords {
		for _, n := range hexgrid.Neighbors(c) {
			add(i, c, n, false)
		}
		for _, n := range hexgrid.DiagonalNeighbors(c) {
			add(i, c, n, true)
		}
	}
	g.buildAdjacency()
	return g, nil
}

// buildAdjacency fills off and adj from the edge list, both half-edges of
// each edge placed in one pass over the list, so that every node's run
// keeps edge order. While it counts and places, off[i+2] and then off[i+1]
// is node i's cursor; when it is done, off[i] is where node i starts.
func (g *Graph) buildAdjacency() {
	n := len(g.coords)
	off := make([]int32, n+2)
	for _, e := range g.edges {
		off[e.From+2]++
		off[e.To+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	adj := make([]halfEdge, 2*len(g.edges))
	for _, e := range g.edges {
		adj[off[e.From+1]] = halfEdge{to: int32(e.To), w: e.W}
		off[e.From+1]++
		adj[off[e.To+1]] = halfEdge{to: int32(e.From), w: e.W}
		off[e.To+1]++
	}
	g.off, g.adj = off[:n+1], adj
}

// Edges returns the undirected edge list. The slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Connected reports whether every node is reachable from node 0.
func (g *Graph) Connected() bool {
	if len(g.coords) == 0 {
		return false
	}
	seen := make([]bool, len(g.coords))
	stack := make([]int32, 1, len(g.coords))
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, he := range g.adj[g.off[v]:g.off[v+1]] {
			if !seen[he.to] {
				seen[he.to] = true
				count++
				stack = append(stack, he.to)
			}
		}
	}
	return count == len(g.coords)
}
