// Package planar implements the planar Laplace mechanism of Andrés et al.
// (the paper's reference [2], deployed in Location Guard) as an additional
// baseline: continuous noise z with density proportional to exp(-eps*|z|),
// drawn via the radial inverse CDF using the Lambert W_{-1} function, then
// optionally discretized onto a finite cell set. CORGI's evaluation
// compares LP-optimal mechanisms against planar Laplace in the ext-planar
// experiment.
package planar

import (
	"fmt"
	"math"
	"math/rand"

	"corgi/internal/geo"
)

// LambertWm1 evaluates the secondary real branch W_{-1}(x) for
// x in [-1/e, 0): the solution w <= -1 of w*e^w = x. Halley iteration from
// a branch-appropriate initial guess; accurate to ~1e-12.
func LambertWm1(x float64) (float64, error) {
	if x < -1/math.E || x >= 0 {
		return 0, fmt.Errorf("planar: W_{-1} domain is [-1/e, 0), got %v", x)
	}
	if x == -1/math.E {
		return -1, nil
	}
	// Initial guess: for x near 0-, W_{-1}(x) ~ ln(-x) - ln(-ln(-x));
	// near -1/e use the series in sqrt(2(1+e*x)).
	var w float64
	if x < -0.25 {
		p := -math.Sqrt(2 * (1 + math.E*x))
		w = -1 + p - p*p/3 + 11.0/72.0*p*p*p
	} else {
		l1 := math.Log(-x)
		l2 := math.Log(-l1)
		w = l1 - l2 + l2/l1
	}
	for i := 0; i < 60; i++ {
		ew := math.Exp(w)
		f := w*ew - x
		if math.Abs(f) < 1e-300 {
			break
		}
		d := ew*(w+1) - f*(w+2)/(2*(w+1))
		step := f / d
		w -= step
		if math.Abs(step) < 1e-14*(1+math.Abs(w)) {
			break
		}
	}
	return w, nil
}

// Mechanism is a continuous planar Laplace sampler with budget Epsilon
// (km^-1): P(z) ∝ exp(-Epsilon * |z|) over the plane.
type Mechanism struct {
	Epsilon float64
}

// New validates the budget and returns a mechanism.
func New(epsilon float64) (*Mechanism, error) {
	if epsilon <= 0 || math.IsInf(epsilon, 0) || math.IsNaN(epsilon) {
		return nil, fmt.Errorf("planar: epsilon must be positive and finite, got %v", epsilon)
	}
	return &Mechanism{Epsilon: epsilon}, nil
}

// SampleOffset draws a noise vector in km: angle uniform, radius from the
// Gamma(2, 1/eps) radial law via r = -(W_{-1}((p-1)/e) + 1)/eps.
func (m *Mechanism) SampleOffset(rng *rand.Rand) geo.XY {
	theta := rng.Float64() * 2 * math.Pi
	p := rng.Float64()
	// Guard the open endpoints.
	for p == 0 {
		p = rng.Float64()
	}
	w, err := LambertWm1((p - 1) / math.E)
	if err != nil {
		// (p-1)/e in [-1/e, 0) for p in (0,1); cannot happen.
		panic(err)
	}
	r := -(w + 1) / m.Epsilon
	return geo.XY{X: r * math.Cos(theta), Y: r * math.Sin(theta)}
}

// Discretize snaps a perturbed location for real cell index i onto the
// nearest center among cells (the "remap to the obfuscation range" step
// needed to compare against CORGI's finite matrices). Returns the reported
// cell index.
func (m *Mechanism) Discretize(centers []geo.XY, i int, rng *rand.Rand) (int, error) {
	if i < 0 || i >= len(centers) {
		return 0, fmt.Errorf("planar: cell %d out of range [0,%d)", i, len(centers))
	}
	pt := centers[i].Add(m.SampleOffset(rng))
	best, bestD := -1, math.Inf(1)
	for j, c := range centers {
		if d := pt.Dist(c); d < bestD {
			best, bestD = j, d
		}
	}
	return best, nil
}

// DiscretizedRows builds an analytic row-stochastic obfuscation matrix over
// n cells with entries w_i(j) ∝ exp(-(eps/2)·d(i,j)), where dist returns the
// symmetric distance (km) between cell centers. Unlike EmpiricalMatrix it is
// deterministic and costs O(n²) exponentials — milliseconds even for the
// largest subtrees — which makes it usable as a serving fallback, not just
// an evaluation baseline.
//
// The halved exponent is what makes the normalized rows eps-geo-ind: for any
// cells i, j and output l, the triangle inequality bounds the unnormalized
// ratio exp(-(eps/2)(d_il - d_jl)) <= exp((eps/2)·d_ij), and the normalizers
// satisfy the same bound in the other direction, so
// w_i(l)/w_j(l) <= exp(eps·d_ij). Utility is strictly worse than the
// LP-optimal matrix (the fallback spreads mass at the full bound everywhere
// instead of only where constraints bind), which is the price of building it
// without a solve.
func DiscretizedRows(n int, dist func(i, j int) float64, eps float64) ([][]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("planar: need at least 1 cell, got %d", n)
	}
	if eps <= 0 || math.IsInf(eps, 0) || math.IsNaN(eps) {
		return nil, fmt.Errorf("planar: epsilon must be positive and finite, got %v", eps)
	}
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		var sum float64
		for j := 0; j < n; j++ {
			d := dist(i, j)
			if d < 0 || math.IsInf(d, 0) || math.IsNaN(d) {
				return nil, fmt.Errorf("planar: dist(%d,%d) = %v is not a finite non-negative distance", i, j, d)
			}
			w := math.Exp(-(eps / 2) * d)
			row[j] = w
			sum += w
		}
		for j := range row {
			row[j] /= sum
		}
		out[i] = row
	}
	return out, nil
}

// EmpiricalMatrix estimates the discretized mechanism's obfuscation matrix
// by Monte Carlo: samples draws per row. The result is row-stochastic by
// construction and lets CORGI's audit machinery apply to planar Laplace.
func (m *Mechanism) EmpiricalMatrix(centers []geo.XY, samples int, rng *rand.Rand) ([][]float64, error) {
	if samples < 1 {
		return nil, fmt.Errorf("planar: need at least 1 sample, got %d", samples)
	}
	n := len(centers)
	if n == 0 {
		return nil, fmt.Errorf("planar: empty cell set")
	}
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		for s := 0; s < samples; s++ {
			j, err := m.Discretize(centers, i, rng)
			if err != nil {
				return nil, err
			}
			row[j]++
		}
		for j := range row {
			row[j] /= float64(samples)
		}
		out[i] = row
	}
	return out, nil
}
