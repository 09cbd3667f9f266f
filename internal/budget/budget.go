// Package budget computes the reserved privacy budget of Sec. 4.4: the
// extra epsilon each pair of locations must set aside so that pruning up to
// delta locations (matrix pruning, Sec. 4.3) cannot break epsilon-Geo-Ind
// (Definition 4.2, "delta-prunable").
//
// Exact implements Definition 4.3 / Equ. (12) by exhaustive subset
// enumeration (exponential in delta; test- and ablation-only). Approx
// implements the approximation of Equ. (14) (O(K log K) as the paper sorts it,
// one O(K delta) pass here). The paper prints
// Equ. (14) with row j inside the max, while the derivation in Proposition
// 4.5 bounds via row i; both variants are provided (VariantProof is the
// default used by the solver, VariantPrinted feeds the ext-rpbvariant
// ablation).
package budget

import (
	"fmt"
	"math"
)

// Variant selects which row's top-delta mass enters Equ. (14).
type Variant int

// Variants of the approximate reserved budget.
const (
	// VariantProof uses row i (the form derived in Proposition 4.5).
	VariantProof Variant = iota
	// VariantPrinted uses row j (the form printed as Equ. (14)).
	VariantPrinted
)

// TopDeltaSum returns max_{|S| <= delta} sum_{l in S} row[l]: the sum of
// the delta largest entries (negative entries are never chosen). It runs in
// O(K * delta) and, up to delta = 8, allocates nothing.
func TopDeltaSum(row []float64, delta int) float64 {
	return topDeltaSumExcluding(row, delta, -1, -1)
}

// clampMass keeps 1-T strictly positive for the logarithm.
func clampMass(t float64) float64 {
	const maxMass = 1 - 1e-12
	if t > maxMass {
		return maxMass
	}
	if t < 0 {
		return 0
	}
	return t
}

// Approx computes the approximate reserved budget eps'_{i,j} of Equ. (14):
//
//	eps' = (1/d) * ln( (1 - T/exp(eps*d)) / (1 - T) )
//
// where T is the top-delta mass of row i (VariantProof) or row j
// (VariantPrinted). d must be positive. The result is always >= 0.
func Approx(zi, zj []float64, d, eps float64, delta int, v Variant) (float64, error) {
	if d <= 0 {
		return 0, fmt.Errorf("budget: distance must be positive, got %v", d)
	}
	if eps <= 0 {
		return 0, fmt.Errorf("budget: epsilon must be positive, got %v", eps)
	}
	if delta < 0 {
		return 0, fmt.Errorf("budget: delta must be >= 0, got %d", delta)
	}
	row := zi
	if v == VariantPrinted {
		row = zj
	}
	t := clampMass(TopDeltaSum(row, delta))
	if t == 0 {
		return 0, nil
	}
	num := 1 - t/math.Exp(eps*d)
	den := 1 - t
	ep := math.Log(num/den) / d
	if ep < 0 {
		ep = 0 // numerical dust; the true value is >= 0
	}
	return ep, nil
}

// Exact computes the exact reserved budget eps_{i,j} of Equ. (12):
//
//	eps = (1/d) * ln( max_{|S| <= delta} (1 - sum_S z_j) / (1 - sum_S z_i) )
//
// by exhaustive enumeration of subsets (choose(K, delta) work — keep delta
// small). The empty set is always a candidate, so the result is >= 0.
func Exact(zi, zj []float64, d float64, delta int) (float64, error) {
	if d <= 0 {
		return 0, fmt.Errorf("budget: distance must be positive, got %v", d)
	}
	if len(zi) != len(zj) {
		return 0, fmt.Errorf("budget: row lengths differ: %d vs %d", len(zi), len(zj))
	}
	if delta < 0 {
		return 0, fmt.Errorf("budget: delta must be >= 0, got %d", delta)
	}
	best := 1.0 // S = empty set
	var rec func(start int, size int, sumI, sumJ float64)
	rec = func(start, size int, sumI, sumJ float64) {
		den := clampOne(1 - sumI)
		ratio := (1 - sumJ) / den
		if ratio > best {
			best = ratio
		}
		if size == delta {
			return
		}
		for l := start; l < len(zi); l++ {
			rec(l+1, size+1, sumI+zi[l], sumJ+zj[l])
		}
	}
	rec(0, 0, 0, 0)
	if best < 1 {
		best = 1
	}
	return math.Log(best) / d, nil
}

func clampOne(v float64) float64 {
	const floor = 1e-12
	if v < floor {
		return floor
	}
	return v
}

// TightenedMultiplier returns exp((eps - epsReserved) * d): the Geo-Ind
// multiplier for the robust constraint of Equ. (13)/(15). It may be < 1
// when the reserved budget exceeds eps, which simply makes the constraint
// tighter than the vanilla one.
func TightenedMultiplier(eps, epsReserved, d float64) float64 {
	return math.Exp((eps - epsReserved) * d)
}

// ApproxPair computes the approximate reserved budget for the constraint
// pair (i, j), maximizing over prune sets S that keep the pair alive, i.e.
// i, j not in S. The paper's Equ. (12)/(14) write the max over all
// S ⊆ V_{i,0}, but Definition 4.2 only requires the pruned matrix to stay
// Geo-Ind for the *surviving* pairs: pruning i or j deletes the (i, j)
// constraint together with its row and column (Sec. 4.3). Because a row's
// dominant entry is typically its own diagonal z[i][i], including it in the
// top-delta mass wildly over-reserves — enough to make Equ. (16) infeasible
// in strong-budget regimes — so the solver uses this corrected form (the
// literal form remains available as Approx for the ablation).
func ApproxPair(zi, zj []float64, i, j int, d, eps float64, delta int, v Variant) (float64, error) {
	if d <= 0 {
		return 0, fmt.Errorf("budget: distance must be positive, got %v", d)
	}
	if eps <= 0 {
		return 0, fmt.Errorf("budget: epsilon must be positive, got %v", eps)
	}
	if delta < 0 {
		return 0, fmt.Errorf("budget: delta must be >= 0, got %d", delta)
	}
	row := zi
	if v == VariantPrinted {
		row = zj
	}
	t := clampMass(topDeltaSumExcluding(row, delta, i, j))
	if t == 0 {
		return 0, nil
	}
	num := 1 - t/math.Exp(eps*d)
	den := 1 - t
	ep := math.Log(num/den) / d
	if ep < 0 {
		ep = 0
	}
	return ep, nil
}

// topDeltaSumExcluding is TopDeltaSum over the row with indices i and j
// masked out (an index outside the row masks nothing). One pass keeps the
// delta largest positive entries in descending order; they are then added
// largest first, which is the order (and so the rounding) of summing the tail
// of a sorted copy. When delta covers the whole row the positive entries are
// added in row order, as they always were.
func topDeltaSumExcluding(row []float64, delta, i, j int) float64 {
	n := len(row)
	if i >= 0 && i < len(row) {
		n--
	}
	if j >= 0 && j < len(row) && j != i {
		n--
	}
	if delta <= 0 || n == 0 {
		return 0
	}
	sum := 0.0
	if delta >= n {
		for k, v := range row {
			if k != i && k != j && v > 0 {
				sum += v
			}
		}
		return sum
	}
	var buf [8]float64
	top := buf[:0]
	if delta > len(buf) {
		top = make([]float64, 0, delta)
	}
	for k, v := range row {
		if k == i || k == j || !(v > 0) {
			continue
		}
		if len(top) < delta {
			top = append(top, v)
		} else if v > top[delta-1] {
			top[delta-1] = v
		} else {
			continue
		}
		for at := len(top) - 1; at > 0 && top[at] > top[at-1]; at-- {
			top[at], top[at-1] = top[at-1], top[at]
		}
	}
	for _, v := range top {
		sum += v
	}
	return sum
}

// ExactPair is Exact restricted to prune sets avoiding i and j, matching
// ApproxPair's semantics.
func ExactPair(zi, zj []float64, i, j int, d float64, delta int) (float64, error) {
	if d <= 0 {
		return 0, fmt.Errorf("budget: distance must be positive, got %v", d)
	}
	if len(zi) != len(zj) {
		return 0, fmt.Errorf("budget: row lengths differ: %d vs %d", len(zi), len(zj))
	}
	if delta < 0 {
		return 0, fmt.Errorf("budget: delta must be >= 0, got %d", delta)
	}
	best := 1.0
	var rec func(start, size int, sumI, sumJ float64)
	rec = func(start, size int, sumI, sumJ float64) {
		den := clampOne(1 - sumI)
		if ratio := (1 - sumJ) / den; ratio > best {
			best = ratio
		}
		if size == delta {
			return
		}
		for l := start; l < len(zi); l++ {
			if l == i || l == j {
				continue
			}
			rec(l+1, size+1, sumI+zi[l], sumJ+zj[l])
		}
	}
	rec(0, 0, 0, 0)
	if best < 1 {
		best = 1
	}
	return math.Log(best) / d, nil
}
