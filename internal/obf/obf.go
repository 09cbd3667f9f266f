// Package obf implements the obfuscation-matrix algebra of the paper: the
// row-stochastic matrix representation (Sec. 2.1), epsilon-Geo-Ind
// constraint checking (Equ. 4), user-side matrix pruning (Sec. 4.3), and
// matrix precision reduction (Sec. 4.5, Algorithm 2). It is deliberately
// independent of how matrices are generated; internal/core builds
// matrices, this package transforms and audits them.
//
// Sampling lives elsewhere: internal/mechanism resolves a (source, policy)
// pair to customized rows, and internal/sample draws from them in O(1) via
// alias tables. The matrices here are safe to read concurrently.
package obf

import (
	"fmt"
	"math"
)

// Matrix is a square row-stochastic obfuscation matrix Z: entry (i, j) is
// the probability of reporting location j when the true location is i.
type Matrix struct {
	n int
	z []float64 // row-major
}

// NewMatrix returns an n x n zero matrix.
func NewMatrix(n int) *Matrix {
	if n < 1 {
		panic("obf: matrix dimension must be positive")
	}
	return &Matrix{n: n, z: make([]float64, n*n)}
}

// FromRows builds a matrix from row slices, which must form a square.
func FromRows(rows [][]float64) (*Matrix, error) {
	n := len(rows)
	if n == 0 {
		return nil, fmt.Errorf("obf: no rows")
	}
	m := NewMatrix(n)
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("obf: row %d has %d entries, want %d", i, len(r), n)
		}
		copy(m.z[i*n:(i+1)*n], r)
	}
	return m, nil
}

// Dim returns the matrix dimension.
func (m *Matrix) Dim() int { return m.n }

// At returns entry (i, j).
func (m *Matrix) At(i, j int) float64 { return m.z[i*m.n+j] }

// Set writes entry (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.z[i*m.n+j] = v }

// Row returns row i as a live slice (mutations write through).
func (m *Matrix) Row(i int) []float64 { return m.z[i*m.n : (i+1)*m.n] }

// CheckStochastic verifies the probability unit measure (Equ. 1): every
// entry >= -tol and every row sums to 1 within n*tol.
func (m *Matrix) CheckStochastic(tol float64) error {
	for i := 0; i < m.n; i++ {
		sum := 0.0
		for j := 0; j < m.n; j++ {
			v := m.At(i, j)
			if v < -tol {
				return fmt.Errorf("obf: negative entry z[%d][%d] = %v", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > float64(m.n)*tol {
			return fmt.Errorf("obf: row %d sums to %v", i, sum)
		}
	}
	return nil
}

// NormalizeRows rescales each row to sum exactly 1, clamping tiny negative
// entries (|v| <= tol) to zero first. It returns an error if a row has no
// positive mass.
func (m *Matrix) NormalizeRows(tol float64) error {
	for i := 0; i < m.n; i++ {
		row := m.Row(i)
		sum := 0.0
		for j, v := range row {
			if v < 0 {
				if v < -tol {
					return fmt.Errorf("obf: row %d entry %d is %v (beyond tolerance)", i, j, v)
				}
				row[j] = 0
				v = 0
			}
			sum += v
		}
		if sum <= 0 {
			return fmt.Errorf("obf: row %d has no probability mass", i)
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
	return nil
}

// Pair is an ordered location pair with its distance, identifying one
// family of Geo-Ind constraints: z[I][k] <= exp(eps*Dist)*z[J][k] for all k.
type Pair struct {
	I, J int
	Dist float64
}

// ViolationReport summarises a Geo-Ind audit.
type ViolationReport struct {
	Violated  int     // constraints breached beyond tol
	Total     int     // constraints checked (len(pairs) * n)
	MaxExcess float64 // worst absolute breach z_ik - e^{eps d} z_jk
}

// Percent returns the violation percentage (0 when nothing was checked).
func (r ViolationReport) Percent() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Violated) / float64(r.Total)
}

// CheckGeoInd audits z[i][k] - exp(eps*d_ij)*z[j][k] <= tol over the given
// ordered pairs and all columns k. This is the paper's violation metric
// (Sec. 6.2.4): the same pair set used to generate a matrix is used to
// audit it after customization.
func (m *Matrix) CheckGeoInd(pairs []Pair, eps, tol float64) ViolationReport {
	rep := ViolationReport{Total: len(pairs) * m.n}
	for _, p := range pairs {
		bound := math.Exp(eps * p.Dist)
		ri, rj := m.Row(p.I), m.Row(p.J)
		for k := 0; k < m.n; k++ {
			excess := ri[k] - bound*rj[k]
			if excess > tol {
				rep.Violated++
				if excess > rep.MaxExcess {
					rep.MaxExcess = excess
				}
			}
		}
	}
	return rep
}

// Prune implements the paper's matrix pruning (Sec. 4.3): remove the rows
// and columns in S, then rescale each remaining row i by
// 1/(1 - sum_{l in S} z[i][l]) so the unit measure holds again. It returns
// the pruned matrix and keep, the original indices of the surviving rows in
// order. Rows that would lose at least 1-minMass of their probability mass
// make the rescaling unstable; Prune rejects them (minMass = 1e-9).
func (m *Matrix) Prune(s []int) (*Matrix, []int, error) {
	const minMass = 1e-9
	drop := make([]bool, m.n)
	for _, idx := range s {
		if idx < 0 || idx >= m.n {
			return nil, nil, fmt.Errorf("obf: prune index %d out of range [0,%d)", idx, m.n)
		}
		if drop[idx] {
			return nil, nil, fmt.Errorf("obf: duplicate prune index %d", idx)
		}
		drop[idx] = true
	}
	keep := make([]int, 0, m.n-len(s))
	for i := 0; i < m.n; i++ {
		if !drop[i] {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		return nil, nil, fmt.Errorf("obf: pruning all %d locations", m.n)
	}
	out := NewMatrix(len(keep))
	for ni, oi := range keep {
		row := m.Row(oi)
		removed := 0.0
		for l, isDropped := range drop {
			if isDropped {
				removed += row[l]
			}
		}
		mass := 1 - removed
		if mass < minMass {
			return nil, nil, fmt.Errorf("obf: row %d retains %.3g probability mass after pruning", oi, mass)
		}
		inv := 1 / mass
		for nj, oj := range keep {
			out.Set(ni, nj, row[oj]*inv)
		}
	}
	return out, keep, nil
}

// CheckGeoIndPruned is the paper's violation metric after customization
// (Fig. 12): it prunes s from the matrix (Prune) and audits the result
// (CheckGeoInd) over the pairs whose endpoints both survive, renumbered to
// the pruned matrix. Prune's errors pass through.
func (m *Matrix) CheckGeoIndPruned(s []int, pairs []Pair, eps, tol float64) (ViolationReport, error) {
	pm, keep, err := m.Prune(s)
	if err != nil {
		return ViolationReport{}, err
	}
	newIdx := make(map[int]int, len(keep))
	for ni, oi := range keep {
		newIdx[oi] = ni
	}
	var surviving []Pair
	for _, p := range pairs {
		ni, iok := newIdx[p.I]
		nj, jok := newIdx[p.J]
		if iok && jok {
			surviving = append(surviving, Pair{I: ni, J: nj, Dist: p.Dist})
		}
	}
	return pm.CheckGeoInd(surviving, eps, tol), nil
}

// PrecisionReduce implements Algorithm 2 / Equ. (17): given the leaf-level
// matrix Z0, the partition of leaf indices into coarse nodes (groups), and
// the leaf priors, it returns the coarse-level matrix
//
//	Zl[i][j] = sum_{u in groups[i]} p_u * sum_{v in groups[j]} Z0[u][v] / p_i
//
// where p_i = sum_{u in groups[i]} p_u. Proposition 4.6: the result remains
// row-stochastic and preserves epsilon-Geo-Ind.
func PrecisionReduce(m *Matrix, groups [][]int, leafPriors []float64) (*Matrix, error) {
	if len(leafPriors) != m.n {
		return nil, fmt.Errorf("obf: %d priors for a %d-dim matrix", len(leafPriors), m.n)
	}
	seen := make([]bool, m.n)
	for gi, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("obf: group %d is empty", gi)
		}
		for _, u := range g {
			if u < 0 || u >= m.n {
				return nil, fmt.Errorf("obf: group %d contains out-of-range leaf %d", gi, u)
			}
			if seen[u] {
				return nil, fmt.Errorf("obf: leaf %d appears in two groups", u)
			}
			seen[u] = true
		}
	}
	for u, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("obf: leaf %d not covered by any group", u)
		}
	}
	ng := len(groups)
	out := NewMatrix(ng)
	for i, gi := range groups {
		pi := 0.0
		for _, u := range gi {
			if leafPriors[u] < 0 {
				return nil, fmt.Errorf("obf: negative prior at leaf %d", u)
			}
			pi += leafPriors[u]
		}
		if pi <= 0 {
			return nil, fmt.Errorf("obf: group %d has zero prior mass", i)
		}
		for j, gj := range groups {
			num := 0.0
			for _, u := range gi {
				rowSum := 0.0
				row := m.Row(u)
				for _, v := range gj {
					rowSum += row[v]
				}
				num += leafPriors[u] * rowSum
			}
			out.Set(i, j, num/pi)
		}
	}
	return out, nil
}
