package hexgrid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"corgi/internal/geo"
)

func testSystem(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(geo.SanFrancisco.Center(), 0.5)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(geo.LatLng{Lat: 37, Lng: -122}, 0); err == nil {
		t.Error("zero spacing should fail")
	}
	if _, err := NewSystem(geo.LatLng{Lat: 37, Lng: -122}, -1); err == nil {
		t.Error("negative spacing should fail")
	}
	if _, err := NewSystem(geo.LatLng{Lat: 91, Lng: 0}, 1); err == nil {
		t.Error("invalid origin should fail")
	}
	if _, err := NewSystem(geo.LatLng{Lat: 37, Lng: -122}, math.Inf(1)); err == nil {
		t.Error("infinite spacing should fail")
	}
}

func TestNeighborsDistance(t *testing.T) {
	s := testSystem(t)
	c := Coord{3, -2}
	a := s.Spacing(0)
	for _, n := range Neighbors(c) {
		d := s.CenterXY(0, c).Dist(s.CenterXY(0, n))
		if math.Abs(d-a) > 1e-9 {
			t.Errorf("immediate neighbor %v at distance %v, want %v", n, d, a)
		}
	}
	for _, n := range DiagonalNeighbors(c) {
		d := s.CenterXY(0, c).Dist(s.CenterXY(0, n))
		if math.Abs(d-math.Sqrt(3)*a) > 1e-9 {
			t.Errorf("diagonal neighbor %v at distance %v, want %v", n, d, math.Sqrt(3)*a)
		}
	}
}

// TestNeighbors12Unique: the graph approximation's 12-cell neighborhood,
// 6 immediate then 6 diagonal neighbors, holds 12 distinct cells.
func TestNeighbors12Unique(t *testing.T) {
	c := Coord{0, 0}
	seen := map[Coord]bool{c: true}
	near, diag := Neighbors(c), DiagonalNeighbors(c)
	for _, n := range append(near[:], diag[:]...) {
		if seen[n] {
			t.Errorf("duplicate neighbor %v", n)
		}
		seen[n] = true
	}
	if len(seen) != 13 {
		t.Errorf("got %d distinct cells, want 13", len(seen))
	}
}

func TestGridDist(t *testing.T) {
	tests := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{0, 0}, 0},
		{Coord{0, 0}, Coord{1, 0}, 1},
		{Coord{0, 0}, Coord{1, 1}, 2},
		{Coord{0, 0}, Coord{2, -1}, 2},
		{Coord{0, 0}, Coord{-3, 1}, 3},
		{Coord{2, 3}, Coord{2, 3}, 0},
		{Coord{-1, -1}, Coord{1, 1}, 4},
	}
	for _, tc := range tests {
		if got := GridDist(tc.a, tc.b); got != tc.want {
			t.Errorf("GridDist(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestGridDistMetricProperties(t *testing.T) {
	cfg := &quick.Config{Values: nil}
	f := func(aq, ar, bq, br, cq, cr int8) bool {
		a, b, c := Coord{int(aq), int(ar)}, Coord{int(bq), int(br)}, Coord{int(cq), int(cr)}
		if GridDist(a, b) != GridDist(b, a) {
			return false
		}
		if GridDist(a, a) != 0 {
			return false
		}
		return GridDist(a, c) <= GridDist(a, b)+GridDist(b, c)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestParentChildrenRoundTrip(t *testing.T) {
	f := func(q, r int16) bool {
		p := Coord{int(q), int(r)}
		kids := Children(p)
		for digit, ch := range kids {
			if Parent(ch) != p {
				return false
			}
			if digit > 0 && ch != kids[0].Add(neighborOffsets[digit-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEveryCellHasUniqueParentSlot(t *testing.T) {
	// The 7-child assignment must tile the child lattice: each child cell is
	// produced by exactly one parent.
	f := func(q, r int16) bool {
		c := Coord{int(q), int(r)}
		p := Parent(c)
		found := 0
		for _, ch := range Children(p) {
			if ch == c {
				found++
			}
		}
		return found == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChildrenDisjointAcrossParents(t *testing.T) {
	seen := map[Coord]Coord{}
	for _, p := range Disk(Coord{0, 0}, 4) {
		for _, ch := range Children(p) {
			if prev, ok := seen[ch]; ok {
				t.Fatalf("child %v claimed by parents %v and %v", ch, prev, p)
			}
			seen[ch] = p
		}
	}
}

func TestParentCenterIsCenterChildCenter(t *testing.T) {
	s := testSystem(t)
	for _, p := range Disk(Coord{0, 0}, 3) {
		for level := 1; level <= 3; level++ {
			pc := s.CenterXY(level, p)
			cc := s.CenterXY(level-1, Children(p)[0])
			if pc.Dist(cc) > 1e-9*s.Spacing(level) {
				t.Fatalf("level %d cell %v center %v != its center child %v", level, p, pc, cc)
			}
		}
	}
}

func TestChildrenNearParentCenter(t *testing.T) {
	// Children must be the 7 child-lattice cells nearest the parent center.
	s := testSystem(t)
	p := Coord{2, -1}
	pc := s.CenterXY(1, p)
	maxChildDist := 0.0
	for _, ch := range Children(p) {
		if d := s.CenterXY(0, ch).Dist(pc); d > maxChildDist {
			maxChildDist = d
		}
	}
	// Any non-child cell must be farther than every child.
	for _, other := range Disk(Children(p)[0], 3) {
		if Parent(other) == p {
			continue
		}
		if d := s.CenterXY(0, other).Dist(pc); d < maxChildDist-1e-9 {
			t.Errorf("non-child %v (d=%v) closer to parent center than child (max %v)", other, d, maxChildDist)
		}
	}
}

func TestSpacingScalesBySqrt7(t *testing.T) {
	s := testSystem(t)
	for level := 0; level < 4; level++ {
		ratio := s.Spacing(level+1) / s.Spacing(level)
		if math.Abs(ratio-math.Sqrt(7)) > 1e-12 {
			t.Errorf("spacing ratio at level %d = %v, want sqrt(7)", level, ratio)
		}
	}
	if math.Abs(s.Spacing(0)-0.5) > 1e-12 {
		t.Errorf("leaf spacing = %v, want 0.5", s.Spacing(0))
	}
}

func TestCellArea(t *testing.T) {
	s := testSystem(t)
	// Area of a parent must equal 7x the child area (aperture 7); a hexagon's
	// area goes as its spacing squared.
	r := math.Pow(s.Spacing(1)/s.Spacing(0), 2)
	if math.Abs(r-7) > 1e-9 {
		t.Errorf("area ratio = %v, want 7", r)
	}
}

func TestRing(t *testing.T) {
	if got := Ring(Coord{5, 5}, 0); len(got) != 1 || got[0] != (Coord{5, 5}) {
		t.Errorf("Ring k=0 = %v", got)
	}
	if got := Ring(Coord{0, 0}, -1); got != nil {
		t.Errorf("Ring k<0 = %v, want nil", got)
	}
	for k := 1; k <= 5; k++ {
		ring := Ring(Coord{1, -2}, k)
		if len(ring) != 6*k {
			t.Errorf("Ring k=%d has %d cells, want %d", k, len(ring), 6*k)
		}
		seen := map[Coord]bool{}
		for _, c := range ring {
			if GridDist(c, Coord{1, -2}) != k {
				t.Errorf("Ring k=%d: cell %v at distance %d", k, c, GridDist(c, Coord{1, -2}))
			}
			if seen[c] {
				t.Errorf("Ring k=%d: duplicate %v", k, c)
			}
			seen[c] = true
		}
	}
}

func TestDisk(t *testing.T) {
	for k := 0; k <= 5; k++ {
		disk := Disk(Coord{-3, 2}, k)
		want := 1 + 3*k*(k+1)
		if len(disk) != want {
			t.Errorf("Disk k=%d has %d cells, want %d", k, len(disk), want)
		}
		seen := map[Coord]bool{}
		for _, c := range disk {
			if GridDist(c, Coord{-3, 2}) > k {
				t.Errorf("Disk k=%d contains far cell %v", k, c)
			}
			seen[c] = true
		}
		if len(seen) != want {
			t.Errorf("Disk k=%d has duplicates", k)
		}
	}
}

func TestLocateRoundTrip(t *testing.T) {
	s := testSystem(t)
	rng := rand.New(rand.NewSource(7))
	for level := 0; level <= 3; level++ {
		for i := 0; i < 200; i++ {
			c := Coord{rng.Intn(41) - 20, rng.Intn(41) - 20}
			if got := s.Locate(level, s.Center(level, c)); got != c {
				t.Fatalf("level %d: Locate(Center(%v)) = %v", level, c, got)
			}
			// Perturb the point within 40% of the inradius: must stay in cell.
			inradius := s.Spacing(level) / 2
			p := s.CenterXY(level, c)
			p.X += (rng.Float64()*2 - 1) * 0.4 * inradius
			p.Y += (rng.Float64()*2 - 1) * 0.4 * inradius
			if got := s.LocateXY(level, p); got != c {
				t.Fatalf("level %d: perturbed point left cell: %v vs %v", level, got, c)
			}
		}
	}
}

func TestCenterDistanceMatchesProjected(t *testing.T) {
	s := testSystem(t)
	a, b := Coord{0, 0}, Coord{8, -3}
	hav := s.CenterDistance(0, a, b)
	eu := s.CenterXY(0, a).Dist(s.CenterXY(0, b))
	if math.Abs(hav-eu)/eu > 0.01 {
		t.Errorf("haversine %v vs projected %v differ by more than 1%%", hav, eu)
	}
}

// vertices returns the 6 corners of leaf cell c, CCW: corner i is the point
// c shares with its neighbors i and i+1, the centroid of the three centers.
func vertices(s *System, c Coord) [6]geo.XY {
	var out [6]geo.XY
	ns := Neighbors(c)
	o := s.CenterXY(0, c)
	for i := range ns {
		a, b := s.CenterXY(0, ns[i]), s.CenterXY(0, ns[(i+1)%6])
		out[i] = geo.XY{X: (o.X + a.X + b.X) / 3, Y: (o.Y + a.Y + b.Y) / 3}
	}
	return out
}

func TestBoundaryVerticesEquidistant(t *testing.T) {
	s := testSystem(t)
	c := Coord{2, 1}
	center := s.CenterXY(0, c)
	want := s.Spacing(0) / math.Sqrt(3)
	for i, v := range vertices(s, c) {
		if d := center.Dist(v); math.Abs(d-want)/want > 1e-9 {
			t.Errorf("vertex %d at %v km, want %v", i, d, want)
		}
		// Just inside the corner is still c.
		in := geo.XY{X: center.X + 0.99*(v.X-center.X), Y: center.Y + 0.99*(v.Y-center.Y)}
		if got := s.LocateXY(0, in); got != c {
			t.Errorf("inside vertex %d locates to %v, want %v", i, got, c)
		}
	}
}

func TestBoundarySharedVertexWithNeighbor(t *testing.T) {
	// Adjacent cells share two vertices.
	s := testSystem(t)
	c := Coord{0, 0}
	bc := vertices(s, c)
	bn := vertices(s, Neighbors(c)[0])
	shared := 0
	for _, v1 := range bc {
		for _, v2 := range bn {
			if v1.Dist(v2) < 1e-9 {
				shared++
			}
		}
	}
	if shared != 2 {
		t.Errorf("adjacent cells share %d vertices, want 2", shared)
	}
}

func TestChildDigitCoverage(t *testing.T) {
	// All 7 digits occur among a parent's children, in order: the center
	// child, then its immediate neighbors in neighborOffsets order.
	kids := Children(Coord{-4, 9})
	seen := map[Coord]bool{}
	for digit, ch := range kids {
		seen[ch] = true
		if digit > 0 && ch.Sub(kids[0]) != neighborOffsets[digit-1] {
			t.Errorf("child %d is %v, %v from the center child", digit, ch, ch.Sub(kids[0]))
		}
	}
	if len(seen) != 7 {
		t.Errorf("%d distinct children, want 7", len(seen))
	}
}

func TestRoundDiv7(t *testing.T) {
	tests := []struct{ x, want int }{
		{0, 0}, {3, 0}, {4, 1}, {7, 1}, {10, 1}, {11, 2},
		{-3, 0}, {-4, -1}, {-7, -1}, {-10, -1}, {-11, -2},
	}
	for _, tc := range tests {
		if got := roundDiv7(tc.x); got != tc.want {
			t.Errorf("roundDiv7(%d) = %d, want %d", tc.x, got, tc.want)
		}
	}
}
