package lp

import (
	"fmt"
	"math"
)

// The map-based reinversion the solver shipped with until PR 14, kept
// verbatim (minus its receiver) as the differential oracle for the array
// factorisation in factor.go: TestFactorMatchesMapOracle requires the new
// code to pick the same pivots and emit the same eta values in the same
// order. Singleton slack scalings appear here as one-entry etas; the solver
// now stores them in sparseState.diag.

type oracleEta struct {
	r     int32
	idx   []int32
	vals  []float64
	pivot float64
}

// oracleReinvert is the old sparseState.reinvert over an explicit standard
// form and basis. It returns the eta file and the row-aligned basis.
func oracleReinvert(sf *standardForm, basis []int) ([]oracleEta, []int, error) {
	var etas []oracleEta
	m, n := sf.m, sf.n
	newBasis := make([]int, m)
	for i := range newBasis {
		newBasis[i] = -1
	}
	rowCoeff := map[int32]float64{} // singleton rows pivoted with coeff != 1
	var bump []int

	for _, j := range basis {
		switch {
		case j >= n: // artificial e_i: pivot at its own row, no eta
			i := j - n
			if newBasis[i] != -1 {
				return nil, nil, fmt.Errorf("lp: row %d pivoted twice during reinversion", i)
			}
			newBasis[i] = j
		default:
			rows, vals := sf.col(j)
			if len(rows) == 1 && newBasis[rows[0]] == -1 {
				r := rows[0]
				newBasis[r] = j
				if vals[0] != 1 {
					etas = append(etas, oracleEta{r: r, idx: []int32{r}, vals: []float64{vals[0]}, pivot: vals[0]})
					rowCoeff[r] = vals[0]
				}
			} else {
				bump = append(bump, j)
			}
		}
	}
	if len(bump) > 0 {
		var err error
		if etas, err = oracleFactorBump(sf, etas, bump, newBasis, rowCoeff); err != nil {
			return nil, nil, err
		}
	}
	for i, j := range newBasis {
		if j == -1 {
			return nil, nil, fmt.Errorf("lp: reinversion left row %d unpivoted", i)
		}
	}
	return etas, newBasis, nil
}

// bumpEntry is a (row, value) pair used during bump factorization.
type bumpEntry struct {
	r int32
	v float64
}

// oracleFactorBump is the old factorBump: right-looking sparse Gaussian
// elimination over maps of maps.
func oracleFactorBump(sf *standardForm, etas []oracleEta, bump []int, newBasis []int, rowCoeff map[int32]float64) ([]oracleEta, error) {
	nb := len(bump)
	cols := make([]map[int32]float64, nb)
	rowCols := make(map[int32]map[int]bool) // active row -> bump columns touching it
	activeCount := make([]int, nb)
	pivoted := make([]bool, nb)
	isActive := func(r int32) bool { return newBasis[r] == -1 }

	for ci, j := range bump {
		rows, vals := sf.col(j)
		mc := make(map[int32]float64, len(rows)*2)
		for k, r := range rows {
			v := vals[k]
			if c, ok := rowCoeff[r]; ok {
				v /= c // reflect the singleton eta scaling of row r
			}
			mc[r] = v
			if isActive(r) {
				set := rowCols[r]
				if set == nil {
					set = map[int]bool{}
					rowCols[r] = set
				}
				set[ci] = true
				activeCount[ci]++
			}
		}
		cols[ci] = mc
	}

	cand := make([]bumpEntry, 0, 64)
	for done := 0; done < nb; done++ {
		// Column choice: fewest active nonzeros (ties: lower index).
		ci := -1
		for k := 0; k < nb; k++ {
			if pivoted[k] {
				continue
			}
			if ci < 0 || activeCount[k] < activeCount[ci] {
				ci = k
			}
		}
		// Row choice within the column: threshold partial pivoting.
		cand = cand[:0]
		colMax := 0.0
		for r, v := range cols[ci] {
			if !isActive(r) {
				continue
			}
			cand = append(cand, bumpEntry{r: r, v: v})
			if av := math.Abs(v); av > colMax {
				colMax = av
			}
		}
		if colMax < 1e-11 {
			return nil, fmt.Errorf("lp: numerically singular basis (bump column %d, max entry %g)", bump[ci], colMax)
		}
		sortBumpEntries(cand)
		rPiv, wPiv := int32(-1), 0.0
		bestDeg := -1
		for _, e := range cand {
			if math.Abs(e.v) < 0.99*colMax {
				continue
			}
			deg := len(rowCols[e.r])
			if rPiv < 0 || deg < bestDeg || (deg == bestDeg && math.Abs(e.v) > math.Abs(wPiv)) {
				rPiv, wPiv, bestDeg = e.r, e.v, deg
			}
		}
		// Emit the eta: the column's full current state (sorted for
		// reproducibility), pivot at rPiv.
		et := oracleEta{r: rPiv, pivot: wPiv}
		full := make([]bumpEntry, 0, len(cols[ci]))
		for r, v := range cols[ci] {
			if r != rPiv && math.Abs(v) < dropTol {
				continue
			}
			full = append(full, bumpEntry{r: r, v: v})
		}
		sortBumpEntries(full)
		for _, e := range full {
			et.idx = append(et.idx, e.r)
			et.vals = append(et.vals, e.v)
		}
		etas = append(etas, et)
		newBasis[rPiv] = bump[ci]
		pivoted[ci] = true

		// Deactivate the pivot row.
		affected := rowCols[rPiv]
		delete(rowCols, rPiv)
		for ck := range affected {
			if !pivoted[ck] {
				activeCount[ck]--
			}
		}
		// Right-looking update of the remaining columns with an entry in
		// the pivot row: x_rPiv' = x_rPiv / wPiv; x_i -= w_i * x_rPiv'.
		for ck := range affected {
			if pivoted[ck] {
				continue
			}
			colK := cols[ck]
			xr, ok := colK[rPiv]
			if !ok || xr == 0 {
				continue
			}
			t := xr / wPiv
			colK[rPiv] = t
			for r, wv := range cols[ci] {
				if r == rPiv {
					continue
				}
				old, had := colK[r]
				nv := old - wv*t
				switch {
				case !had:
					if math.Abs(nv) < dropTol {
						continue
					}
					colK[r] = nv
					if isActive(r) {
						set := rowCols[r]
						if set == nil {
							set = map[int]bool{}
							rowCols[r] = set
						}
						set[ck] = true
						activeCount[ck]++
					}
				case math.Abs(nv) < dropTol:
					delete(colK, r)
					if isActive(r) {
						delete(rowCols[r], ck)
						activeCount[ck]--
					}
				default:
					colK[r] = nv
				}
			}
		}
	}
	return etas, nil
}

func sortBumpEntries(es []bumpEntry) {
	for i := 1; i < len(es); i++ {
		v := es[i]
		j := i - 1
		for j >= 0 && es[j].r > v.r {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = v
	}
}
