// Package hexgrid implements a hexagonal hierarchical spatial index — a
// from-scratch, stdlib-only substitute for Uber's H3 used by the paper
// (Sec. 3.1). It provides what CORGI consumes from H3:
//
//   - contiguous, equal-size hexagonal cells at each resolution level,
//   - constant center-point distance between ring neighbors (the paper's
//     motivation for hexagons over square grids),
//   - an aperture-7 hierarchy: every cell has exactly 7 children and every
//     cell has exactly one parent, so a region decomposes into a balanced
//     7-ary location tree (343 = 7^3 leaves for a height-3 tree, matching
//     the paper's experimental setup),
//   - the 6 immediate neighbors (center distance a) and the 6 diagonal
//     neighbors (center distance sqrt(3)*a) required by the graph
//     approximation of Sec. 4.2 (Fig. 4).
//
// Cells are addressed by axial coordinates Coord{Q,R} on the lattice of
// their level. The parent lattice is the index-7 sublattice generated by
// (2,1) and (-1,3); the parent basis is rotated by atan2(sqrt(3), 5) ≈
// 19.1066° and scaled by sqrt(7) relative to the child basis, exactly as in
// classic aperture-7 systems. A cell's 7 children are the child cell at the
// same center (digit 0) plus its 6 immediate neighbors (digits 1..6); this
// assignment tiles the child lattice perfectly (each child has a unique
// parent), which gives the disjoint-partition property Definition 3.1
// requires. As with real H3, children are not strictly geometrically
// contained in the parent hexagon; CORGI only uses center distances and
// neighbor topology, both of which are exact here.
package hexgrid

import (
	"fmt"
	"math"

	"corgi/internal/geo"
)

// Coord is an axial hex-lattice coordinate at some resolution level.
// The cube-coordinate identity is x=Q, z=R, y=-Q-R.
type Coord struct {
	Q int
	R int
}

// String implements fmt.Stringer.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.Q, c.R) }

// Add returns the component-wise sum.
func (c Coord) Add(o Coord) Coord { return Coord{c.Q + o.Q, c.R + o.R} }

// Sub returns the component-wise difference.
func (c Coord) Sub(o Coord) Coord { return Coord{c.Q - o.Q, c.R - o.R} }

// neighborOffsets are the 6 immediate ring neighbors, in CCW order starting
// from +Q. Center distance = 1 lattice spacing.
var neighborOffsets = [6]Coord{
	{1, 0}, {0, 1}, {-1, 1}, {-1, 0}, {0, -1}, {1, -1},
}

// diagonalOffsets are the 6 "diagonal" neighbors of Fig. 4 — the cells that
// share exactly one vertex with c. Center distance = sqrt(3) spacings.
var diagonalOffsets = [6]Coord{
	{1, 1}, {-1, 2}, {-2, 1}, {-1, -1}, {1, -2}, {2, -1},
}

// Neighbors returns the 6 immediate neighbors of c (distance a).
func Neighbors(c Coord) [6]Coord {
	var out [6]Coord
	for i, o := range neighborOffsets {
		out[i] = c.Add(o)
	}
	return out
}

// DiagonalNeighbors returns the 6 diagonal neighbors of c (distance sqrt(3)a).
func DiagonalNeighbors(c Coord) [6]Coord {
	var out [6]Coord
	for i, o := range diagonalOffsets {
		out[i] = c.Add(o)
	}
	return out
}

// GridDist returns the hex grid distance (number of immediate-neighbor hops)
// between a and b.
func GridDist(a, b Coord) int {
	d := a.Sub(b)
	return (abs(d.Q) + abs(d.R) + abs(d.Q+d.R)) / 2
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Parent returns the coordinate (in the parent lattice basis) of the cell
// one level up that owns c under the aperture-7 hierarchy.
func Parent(c Coord) Coord {
	// Inverse of (q,r) = (2m-n, m+3n); residuals stay within rounding range.
	return Coord{
		Q: roundDiv7(3*c.Q + c.R),
		R: roundDiv7(-c.Q + 2*c.R),
	}
}

// roundDiv7 returns the nearest integer to x/7. Callers guarantee the
// remainder magnitude is at most 3, so ties cannot occur.
func roundDiv7(x int) int {
	if x >= 0 {
		return (x + 3) / 7
	}
	return -((-x + 3) / 7)
}

// childBase returns the child-lattice coordinate of p's center child.
func childBase(p Coord) Coord {
	return Coord{Q: 2*p.Q - p.R, R: p.Q + 3*p.R}
}

// Children returns the 7 children of p, center child first (digit order).
func Children(p Coord) [7]Coord {
	base := childBase(p)
	var out [7]Coord
	out[0] = base
	for i, o := range neighborOffsets {
		out[i+1] = base.Add(o)
	}
	return out
}

// Ring returns the cells at exactly grid distance k from c, in CCW order.
// Ring(c, 0) is [c].
func Ring(c Coord, k int) []Coord {
	if k < 0 {
		return nil
	}
	if k == 0 {
		return []Coord{c}
	}
	out := make([]Coord, 0, 6*k)
	// Start k steps in direction 4 (=(0,-1) scaled) and walk the hexagon.
	cur := c.Add(Coord{0, -k})
	for side := 0; side < 6; side++ {
		dir := neighborOffsets[side]
		for step := 0; step < k; step++ {
			out = append(out, cur)
			cur = cur.Add(dir)
		}
	}
	return out
}

// Disk returns all cells within grid distance k of c (the "filled hexagon"
// of 1+3k(k+1) cells), center first, then rings of increasing radius.
func Disk(c Coord, k int) []Coord {
	out := make([]Coord, 0, 1+3*k*(k+1))
	for r := 0; r <= k; r++ {
		out = append(out, Ring(c, r)...)
	}
	return out
}

// rotPerLevel is the aperture-7 inter-level rotation atan2(sqrt(3), 5).
var rotPerLevel = math.Atan2(math.Sqrt(3), 5)

// sqrt7 is the inter-level spacing factor.
var sqrt7 = math.Sqrt(7)

// basisLevels is how many levels, from 0, a System keeps a precomputed
// basis for. Location trees are a few levels tall, so every level they
// locate or center on is covered; a level above falls back to computing
// its basis per call.
const basisLevels = 8

// System anchors hex lattices of every level onto the Earth via a local
// equirectangular projection. Level 0 is the finest (leaf) resolution;
// level h has spacing leafSpacing * 7^(h/2) and basis rotated by h*19.1066°.
type System struct {
	proj        *geo.Projection
	leafSpacing float64 // km between adjacent level-0 cell centers
	// bases[h] is basisAt(h), computed once in NewSystem: a region's
	// bootstrap locates every check-in, and the basis costs a Pow and
	// four trigonometric calls.
	bases [basisLevels][2]geo.XY
}

// NewSystem creates a hex system centered at origin whose level-0 cells
// have the given center-to-center spacing in km. Spacing must be positive.
func NewSystem(origin geo.LatLng, leafSpacingKm float64) (*System, error) {
	if !(leafSpacingKm > 0) || math.IsInf(leafSpacingKm, 0) {
		return nil, fmt.Errorf("hexgrid: leaf spacing must be positive and finite, got %v", leafSpacingKm)
	}
	if !origin.Valid() {
		return nil, fmt.Errorf("hexgrid: invalid origin %v", origin)
	}
	s := &System{proj: geo.NewProjection(origin), leafSpacing: leafSpacingKm}
	for h := range s.bases {
		s.bases[h][0], s.bases[h][1] = s.basisAt(h)
	}
	return s, nil
}

// Origin returns the anchor point of the system.
func (s *System) Origin() geo.LatLng { return s.proj.Origin() }

// Spacing returns the center-to-center distance (km) between immediate
// neighbors at the given level.
func (s *System) Spacing(level int) float64 {
	return s.leafSpacing * math.Pow(sqrt7, float64(level))
}

// basis returns the lattice basis vectors at a level.
func (s *System) basis(level int) (a1, a2 geo.XY) {
	if level >= 0 && level < basisLevels {
		return s.bases[level][0], s.bases[level][1]
	}
	return s.basisAt(level)
}

// basisAt computes the lattice basis vectors at a level.
func (s *System) basisAt(level int) (a1, a2 geo.XY) {
	sp := s.Spacing(level)
	theta := rotPerLevel * float64(level)
	a1 = geo.XY{X: sp * math.Cos(theta), Y: sp * math.Sin(theta)}
	a2 = geo.XY{X: sp * math.Cos(theta+math.Pi/3), Y: sp * math.Sin(theta+math.Pi/3)}
	return a1, a2
}

// CenterXY returns the projected planar center (km) of cell c at level.
func (s *System) CenterXY(level int, c Coord) geo.XY {
	a1, a2 := s.basis(level)
	return a1.Scale(float64(c.Q)).Add(a2.Scale(float64(c.R)))
}

// Center returns the geographic center of cell c at level.
func (s *System) Center(level int, c Coord) geo.LatLng {
	return s.proj.Inverse(s.CenterXY(level, c))
}

// CenterDistance returns the haversine distance (km) between the centers of
// two cells at the same level. This is the d_{i,j} of the paper.
func (s *System) CenterDistance(level int, a, b Coord) float64 {
	return geo.Haversine(s.Center(level, a), s.Center(level, b))
}

// LocateXY returns the cell at the given level containing the projected
// point p (nearest center; exact for points inside the hexagon).
func (s *System) LocateXY(level int, p geo.XY) Coord {
	a1, a2 := s.basis(level)
	// Solve p = q*a1 + r*a2 for fractional (q, r).
	det := a1.X*a2.Y - a1.Y*a2.X
	fq := (p.X*a2.Y - p.Y*a2.X) / det
	fr := (p.Y*a1.X - p.X*a1.Y) / det
	return roundHex(fq, fr)
}

// Locate returns the cell at the given level containing the geographic
// point p.
func (s *System) Locate(level int, p geo.LatLng) Coord {
	return s.LocateXY(level, s.proj.Forward(p))
}

// roundHex rounds fractional axial coordinates to the nearest cell using
// cube-coordinate rounding.
func roundHex(fq, fr float64) Coord {
	fs := -fq - fr
	q, r, sc := math.Round(fq), math.Round(fr), math.Round(fs)
	dq, dr, ds := math.Abs(q-fq), math.Abs(r-fr), math.Abs(sc-fs)
	switch {
	case dq > dr && dq > ds:
		q = -r - sc
	case dr > ds:
		r = -q - sc
	}
	return Coord{Q: int(q), R: int(r)}
}
