// Package graphx implements the paper's graph approximation (Sec. 4.2,
// Fig. 4): users' planar mobility over a finite hex-cell region is
// approximated by a graph connecting each cell to its 6 immediate
// neighbors (center distance a) and its 6 diagonal neighbors (center
// distance sqrt(3)*a), each edge weighted by its center distance.
// Enforcing epsilon-Geo-Ind only on the graph's edges and relying on
// transitivity (Theorem 4.1) cuts the LP's Geo-Ind rows per obfuscated
// column from K(K-1), one per ordered pair, to at most 12K, two per edge.
//
// A note on Lemma 4.1: the graph distance d_G is necessarily >= the
// Euclidean distance (triangle inequality), with a worst-case lattice
// stretch of cos(15°) + (2-sqrt(3))*sin(15°) ≈ 1.0353 at headings 15° off
// a lattice direction. Transitivity therefore yields the slightly weaker
// bound z_i/z_j <= exp(eps*d_G(i,j)) for non-adjacent pairs, where the
// paper treats d_G ≈ d. The ext-approx-quality experiment audits
// approximation-generated matrices against every pair.
package graphx

import (
	"fmt"

	"corgi/internal/hexgrid"
)

// Edge is an undirected graph edge between node indices From < To, with
// Dist the center distance in km.
type Edge struct {
	From, To int
	Dist     float64
}

// Graph is the 12-neighbor approximation graph over a finite cell set:
// nodes are the cells' indices, and the edges are listed by their lower
// node, in each cell's hexgrid.Neighbors then hexgrid.DiagonalNeighbors
// order.
type Graph struct {
	n     int
	edges []Edge
}

// Build constructs the graph over the given same-level cells. dist returns
// the center distance (km) between two cells. Duplicate cells are an error.
// Cells with no neighbors inside the set yield a disconnected graph, which
// Build permits; callers that require connectivity should check Connected.
func Build(cells []hexgrid.Coord, dist func(a, b hexgrid.Coord) float64) (*Graph, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("graphx: empty cell set")
	}
	index := make(map[hexgrid.Coord]int, len(cells))
	for i, c := range cells {
		if _, dup := index[c]; dup {
			return nil, fmt.Errorf("graphx: duplicate cell %v", c)
		}
		index[c] = i
	}
	// Every node has at most 12 neighbors: at most 6 edges per node.
	g := &Graph{n: len(cells), edges: make([]Edge, 0, 6*len(cells))}
	add := func(i int, c, n hexgrid.Coord) {
		j, ok := index[n]
		if !ok || j <= i { // each undirected edge once, from the lower index
			return
		}
		g.edges = append(g.edges, Edge{From: i, To: j, Dist: dist(c, n)})
	}
	for i, c := range cells {
		for _, n := range hexgrid.Neighbors(c) {
			add(i, c, n)
		}
		for _, n := range hexgrid.DiagonalNeighbors(c) {
			add(i, c, n)
		}
	}
	return g, nil
}

// Edges returns the undirected edge list. The slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Connected reports whether the edges join every node into one component,
// by union-find with path halving.
func (g *Graph) Connected() bool {
	parent := make([]int32, g.n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	components := g.n
	for _, e := range g.edges {
		if a, b := find(int32(e.From)), find(int32(e.To)); a != b {
			parent[a] = b
			components--
		}
	}
	return components == 1
}
