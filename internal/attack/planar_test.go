package attack

import (
	"math"
	"testing"

	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/mechanism"
	"corgi/internal/obf"
)

// planarFallback builds the degraded-serving fallback matrix the way
// core.PlanarEntry does, through mechanism.PlanarLaplace over k cells.
// Returns the matrix and the pairwise distance function.
func planarFallback(t *testing.T, k int, eps float64) (*obf.Matrix, func(i, j int) float64) {
	t.Helper()
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var cells []hexgrid.Coord
	for r := 0; ; r++ {
		cells = hexgrid.Disk(hexgrid.Coord{}, r)
		if len(cells) >= k {
			break
		}
	}
	cells = cells[:k]
	m, err := mechanism.PlanarLaplace(mechanism.BuildConfig{Sys: sys, Cells: cells, Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	dist := func(i, j int) float64 { return geo.Haversine(sys.Center(0, cells[i]), sys.Center(0, cells[j])) }
	return m, dist
}

// TestPlanarFallbackPosteriorRatioBound pins the privacy claim degraded
// serving rests on: the discretized planar-Laplace fallback keeps the
// Bayesian adversary's posterior-to-prior odds shift within exp(eps*d) for
// EVERY pair of cells — not just graph-approximation neighbors — because
// the halved exponent in each row's weights absorbs both the numerator and
// the normalizer via the triangle inequality.
func TestPlanarFallbackPosteriorRatioBound(t *testing.T) {
	const eps = 15.0
	m, dist := planarFallback(t, 19, eps)
	n := m.Dim()

	adv, err := New(uniformPrior(n), m)
	if err != nil {
		t.Fatal(err)
	}
	// Audit at every distance scale present, not one maxDist: for each
	// pair, the realized odds shift z_il/z_jl must respect that pair's own
	// exp(eps*d_ij). The per-pair check is strictly stronger than a single
	// global-bound call.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			limit := math.Exp(eps * dist(i, j))
			for l := 0; l < n; l++ {
				r := m.At(i, l) / m.At(j, l)
				if r > limit*(1+1e-9) {
					t.Fatalf("pair (%d,%d) obs %d: ratio %v exceeds exp(eps*d)=%v", i, j, l, r, limit)
				}
			}
		}
	}
	// And the aggregate adversary-side view agrees.
	maxDist := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d := dist(i, j); d > maxDist {
				maxDist = d
			}
		}
	}
	if bound := adv.PosteriorRatioBound(dist, maxDist); bound > math.Exp(eps*maxDist)*(1+1e-9) {
		t.Fatalf("global posterior ratio bound %v exceeds exp(eps*maxDist)", bound)
	}
}

// TestPlanarFallbackPrunableForEveryDelta pins the property that makes the
// fallback safe to serve for ANY requested prune budget: pruning an
// arbitrary cell subset and renormalizing (the session's row-wise
// customization, Sec. 4.3) preserves the exp(eps*d) bound, because every
// surviving pair's rows lose mass over the same kept-column set and each
// row's removed mass is bounded by the same triangle-inequality factor.
// Robust LP matrices guarantee this only for |S| <= delta; the fallback
// guarantees it unconditionally.
func TestPlanarFallbackPrunableForEveryDelta(t *testing.T) {
	const eps = 15.0
	m, dist := planarFallback(t, 19, eps)
	n := m.Dim()

	// An aggressive prune far beyond any reserved budget: drop 8 of 19.
	drop := []int{0, 2, 5, 7, 9, 11, 14, 17}
	pruned, keep, err := m.Prune(drop)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Dim() != n-len(drop) {
		t.Fatalf("pruned dim %d, want %d", pruned.Dim(), n-len(drop))
	}
	pd := func(i, j int) float64 { return dist(keep[i], keep[j]) }
	for i := 0; i < pruned.Dim(); i++ {
		for j := 0; j < pruned.Dim(); j++ {
			if i == j {
				continue
			}
			limit := math.Exp(eps * pd(i, j))
			for l := 0; l < pruned.Dim(); l++ {
				if r := pruned.At(i, l) / pruned.At(j, l); r > limit*(1+1e-9) {
					t.Fatalf("pruned pair (%d,%d) obs %d: ratio %v exceeds exp(eps*d)=%v", i, j, l, r, limit)
				}
			}
		}
	}
}
