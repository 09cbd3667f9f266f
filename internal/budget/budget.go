// Package budget computes the reserved privacy budget of Sec. 4.4: the
// extra epsilon each pair of locations must set aside so that pruning up to
// delta locations (matrix pruning, Sec. 4.3) cannot break epsilon-Geo-Ind
// (Definition 4.2, "delta-prunable").
//
// ExactPair implements Definition 4.3 / Equ. (12) by exhaustive subset
// enumeration (exponential in delta; the ext-budget study and tests
// only). ApproxPair implements the approximation of Equ. (14) (O(K log K)
// as the paper sorts it, one O(K delta) pass here). Both maximise over the
// prune sets that keep the pair (i, j) alive; indices outside the row
// (-1, -1) mask nothing and give the literal equations, a maximum over
// every prune set. The paper prints Equ. (14) with row j inside the max,
// while the derivation in Proposition 4.5 bounds via row i; both variants
// are provided (VariantProof is the default used by the solver,
// VariantPrinted feeds the ext-rpbvariant ablation).
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
// in strong-budget regimes — so the solver uses this corrected form.
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

// topDeltaSumExcluding returns max_{|S| <= delta} sum_{l in S} row[l] over
// the row with indices i and j masked out (an index outside the row masks
// nothing): the sum of the delta largest entries, negative entries never
// chosen. It runs in O(K * delta) and, up to delta = 8, allocates nothing.
// One pass keeps the delta largest positive entries in descending order;
// they are then added largest first, which is the order (and so the
// rounding) of summing the tail of a sorted copy. When delta covers the
// whole row the positive entries are added in row order.
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

// ExactPair computes the exact reserved budget of Equ. (12) for the
// constraint pair (i, j):
//
//	eps = (1/d) * ln( max_{|S| <= delta} (1 - sum_S z_j) / (1 - sum_S z_i) )
//
// over the prune sets S that avoid i and j, matching ApproxPair's
// semantics, by exhaustive enumeration (choose(K, delta) work: keep delta
// small). The empty set is always a candidate, so the result is >= 0.
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
