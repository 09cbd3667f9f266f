package lp

import (
	"fmt"
	"math"
	"math/bits"
)

// eta is one elementary transformation of the product-form inverse: the
// basis changed by pivoting the (already FTRAN-transformed) column w at
// position r. The column's nonzeros live in the state's eta arenas at
// [lo, hi).
type eta struct {
	r      int32
	lo, hi int32
	pivot  float64
}

// factor is the basis factorisation and the scratch that rebuilds it. All of
// it is flat arrays owned by the sparseState (and through it by a Solver),
// truncated or overwritten at each reinversion and grown only when a larger
// problem arrives.
type factor struct {
	// The eta file: one record per pivot, nonzeros in two arenas.
	etas   []eta
	etaIdx []int32
	etaVal []float64
	// diag[r] != 1 is the coefficient of a singleton (slack) column pivoted
	// at row r during reinversion: B^{-1} starts with a division of row r by
	// it. These scalings come before every eta and touch one row each, so
	// they commute and need no record of their own.
	diag []float64

	// Reinversion scratch.
	newBasis []int
	bump     []int // basis columns left after the singleton pass
	// Bump columns as spans of the bump arenas: column ci occupies
	// [colLo[ci], colLo[ci]+colLen[ci]) with room up to colCap[ci]. A column
	// that outgrows its room moves to the arena's end.
	bumpIdx  []int32
	bumpVal  []float64
	colLo    []int32
	colLen   []int32
	colCap   []int32
	colAct   []int32 // entries in rows not yet pivoted
	pivoted  []bool
	rowCount []int32  // bump columns with an entry in the row (active rows)
	pos      []int32  // row -> offset in the column being updated, valid where stamp == epoch
	rowBits  []uint64 // one bit per row, all zero between uses
}

// clearFactor resets the factorisation to the identity.
func (s *sparseState) clearFactor() {
	s.etas = s.etas[:0]
	s.etaIdx = s.etaIdx[:0]
	s.etaVal = s.etaVal[:0]
	s.diag = resize(s.diag, s.m)
	for i := range s.diag {
		s.diag[i] = 1
	}
}

// etaCol returns the nonzeros of eta e.
func (s *sparseState) etaCol(e *eta) ([]int32, []float64) {
	return s.etaIdx[e.lo:e.hi], s.etaVal[e.lo:e.hi]
}

// reinvert rebuilds the eta file from the current set of basic columns and
// re-associates each basic column with its pivot row (basis[r] = column
// pivoted at row r). Identity-like columns (artificials, slacks) pivot
// structurally, a non-unit slack coefficient going to diag; the residual
// "bump" is factored by threshold-Markowitz Gaussian elimination
// (factorBump), which both orders pivots for sparsity and bounds element
// growth. xB must be refreshed by the caller.
func (s *sparseState) reinvert() error {
	s.clearFactor()
	s.reinversions++
	m := s.m
	s.newBasis = resize(s.newBasis, m)
	newBasis := s.newBasis
	for i := range newBasis {
		newBasis[i] = -1
	}
	bump := s.bump[:0]

	for _, j := range s.basis {
		switch {
		case j >= s.n: // artificial e_i: pivot at its own row, no eta
			i := j - s.n
			if newBasis[i] != -1 {
				return fmt.Errorf("lp: row %d pivoted twice during reinversion", i)
			}
			newBasis[i] = j
		default:
			rows, vals := s.sf.col(j)
			if len(rows) == 1 && newBasis[rows[0]] == -1 {
				// Slack (or any singleton) column: pivot at its row; only a
				// non-unit coefficient needs recording.
				r := rows[0]
				newBasis[r] = j
				if vals[0] != 1 {
					s.diag[r] = vals[0]
				}
			} else {
				bump = append(bump, j)
			}
		}
	}
	s.bump = bump
	if len(bump) > 0 {
		if err := s.factorBump(); err != nil {
			return err
		}
	}
	for i, j := range newBasis {
		if j == -1 {
			return fmt.Errorf("lp: reinversion left row %d unpivoted", i)
		}
	}
	copy(s.basis, newBasis)
	return nil
}

// loadBump copies the bump columns into the arenas (dividing by the diagonal
// scaling of their rows) and counts, per column and per row, the entries in
// rows no singleton has pivoted yet.
func (s *sparseState) loadBump() {
	nb := len(s.bump)
	s.colLo = resize(s.colLo, nb)
	s.colLen = resize(s.colLen, nb)
	s.colCap = resize(s.colCap, nb)
	s.colAct = resize(s.colAct, nb)
	s.pivoted = resize(s.pivoted, nb)
	s.rowCount = resize(s.rowCount, s.m)
	s.pos = resize(s.pos, s.m)
	s.rowBits = resize(s.rowBits, (s.m+63)/64)
	clear(s.rowBits)
	clear(s.colAct)
	clear(s.pivoted)
	clear(s.rowCount)
	s.bumpIdx = s.bumpIdx[:0]
	s.bumpVal = s.bumpVal[:0]
	for ci, j := range s.bump {
		rows, vals := s.sf.col(j)
		s.colLo[ci] = int32(len(s.bumpIdx))
		s.colLen[ci] = int32(len(rows))
		s.colCap[ci] = int32(2*len(rows) + 4) // room for fill-in
		for k, r := range rows {
			v := vals[k]
			if d := s.diag[r]; d != 1 {
				v /= d // reflect the singleton scaling of row r
			}
			s.bumpIdx = append(s.bumpIdx, r)
			s.bumpVal = append(s.bumpVal, v)
			if s.newBasis[r] == -1 {
				s.rowCount[r]++
				s.colAct[ci]++
			}
		}
		s.growBump(int(s.colCap[ci]) - len(rows))
	}
}

// growBump extends both bump arenas by n unused slots.
func (s *sparseState) growBump(n int) {
	s.bumpIdx = append(s.bumpIdx, make([]int32, n)...)
	s.bumpVal = append(s.bumpVal, make([]float64, n)...)
}

// reserveBump makes room for extra more entries in bump column ci, moving
// the column to the end of the arenas (with doubled room, up to the m rows a
// column can have) if it has none.
func (s *sparseState) reserveBump(ci int, extra int32) {
	need := min(s.colLen[ci]+extra, int32(s.m))
	if need <= s.colCap[ci] {
		return
	}
	lo, n := s.colLo[ci], s.colLen[ci]
	s.colLo[ci] = int32(len(s.bumpIdx))
	s.colCap[ci] = min(2*need, int32(s.m))
	s.bumpIdx = append(s.bumpIdx, s.bumpIdx[lo:lo+n]...)
	s.bumpVal = append(s.bumpVal, s.bumpVal[lo:lo+n]...)
	s.growBump(int(s.colCap[ci] - n))
}

// bumpCol returns the current nonzeros of bump column ci.
func (s *sparseState) bumpCol(ci int) ([]int32, []float64) {
	lo, hi := s.colLo[ci], s.colLo[ci]+s.colLen[ci]
	return s.bumpIdx[lo:hi], s.bumpVal[lo:hi]
}

// factorBump factors the non-triangular part of the basis with
// right-looking sparse Gaussian elimination: pivot columns are chosen by
// fewest active nonzeros (Markowitz-style), pivot rows by threshold partial
// pivoting (|a| >= 0.99 * column max, preferring low row degree). Each pivot
// emits a PFI eta identical to what sequential FTRAN-pivoting would have
// produced, so the FTRAN/BTRAN machinery applies unchanged.
//
// Columns are unordered (row, value) spans; only the eta a column leaves
// behind is in row order. Updating column k by pivot column c looks
// rows of k up through pos/stamp (the epoch trick of ftran), so each entry of
// c costs one array read whether it meets an entry of k, cancels one, or
// fills in. Every update is the single operation old - w*t on one entry, so
// neither the order of columns nor of entries within one affects a value.
func (s *sparseState) factorBump() error {
	s.loadBump()
	nb := len(s.bump)
	newBasis := s.newBasis
	for done := 0; done < nb; done++ {
		// Column choice: fewest active nonzeros (ties: lower index).
		ci := -1
		for k := 0; k < nb; k++ {
			if s.pivoted[k] {
				continue
			}
			if ci < 0 || s.colAct[k] < s.colAct[ci] {
				ci = k
			}
		}
		cIdx, cVal := s.bumpCol(ci)
		// Row choice within the column: threshold partial pivoting over the
		// rows still active, lowest row degree first, then largest entry,
		// then lowest row.
		colMax := 0.0
		for k, r := range cIdx {
			if newBasis[r] != -1 {
				continue
			}
			if av := math.Abs(cVal[k]); av > colMax {
				colMax = av
			}
		}
		if colMax < 1e-11 {
			fullMax := 0.0
			for _, v := range cVal {
				fullMax = math.Max(fullMax, math.Abs(v))
			}
			return fmt.Errorf("lp: numerically singular basis: bump column %d (pivot %d of %d) has max active entry %g over %d active of %d entries, column max %g",
				s.bump[ci], done+1, nb, colMax, s.colAct[ci], len(cIdx), fullMax)
		}
		rPiv, wPiv := int32(-1), 0.0
		bestDeg := int32(-1)
		for k, r := range cIdx {
			v := cVal[k]
			if newBasis[r] != -1 || math.Abs(v) < 0.99*colMax {
				continue
			}
			deg, av, best := s.rowCount[r], math.Abs(v), math.Abs(wPiv)
			if rPiv < 0 || deg < bestDeg || (deg == bestDeg && (av > best || (av == best && r < rPiv))) {
				rPiv, wPiv, bestDeg = r, v, deg
			}
		}
		// Emit the eta: the column's full current state in row order, pivot
		// at rPiv. The column itself stays unordered; a bit per kept row and
		// its offset in pos give the order without a sort.
		lo := int32(len(s.etaIdx))
		for k, r := range cIdx {
			if r == rPiv || math.Abs(cVal[k]) >= dropTol {
				s.rowBits[r>>6] |= 1 << (r & 63)
				s.pos[r] = int32(k)
			}
		}
		for w, word := range s.rowBits {
			for ; word != 0; word &= word - 1 {
				r := int32(w<<6 + bits.TrailingZeros64(word))
				s.etaIdx = append(s.etaIdx, r)
				s.etaVal = append(s.etaVal, cVal[s.pos[r]])
			}
			s.rowBits[w] = 0
		}
		s.etas = append(s.etas, eta{r: rPiv, lo: lo, hi: int32(len(s.etaIdx)), pivot: wPiv})
		newBasis[rPiv] = s.bump[ci]
		s.pivoted[ci] = true

		// Right-looking update of the remaining columns with an entry in
		// the pivot row: x_rPiv' = x_rPiv / wPiv; x_i -= w_i * x_rPiv'.
		for ck := 0; ck < nb; ck++ {
			if s.pivoted[ck] {
				continue
			}
			kIdx, _ := s.bumpCol(ck)
			at := -1
			for k, r := range kIdx {
				if r == rPiv {
					at = k
					break
				}
			}
			if at < 0 {
				continue
			}
			s.colAct[ck]-- // the pivot row is no longer active
			s.reserveBump(ck, int32(len(cIdx))-1)
			s.eliminate(ck, at, ci, rPiv, wPiv)
		}
	}
	return nil
}

// eliminate subtracts the multiple of pivot column ci that clears row rPiv
// from column ck, whose entry in that row sits at offset at. The caller has
// reserved room in ck for every entry of ci to fill in.
func (s *sparseState) eliminate(ck, at, ci int, rPiv int32, wPiv float64) {
	klo := s.colLo[ck]
	kIdx := s.bumpIdx[klo : klo+s.colCap[ck]]
	kVal := s.bumpVal[klo : klo+s.colCap[ck]]
	xr := kVal[at]
	if xr == 0 {
		return
	}
	t := xr / wPiv
	kVal[at] = t
	n := s.colLen[ck]
	s.epoch++
	for k, r := range kIdx[:n] {
		s.stamp[r] = s.epoch
		s.pos[r] = int32(k)
	}
	cIdx, cVal := s.bumpCol(ci) // after reserveBump: the arenas may have moved
	for k, r := range cIdx {
		if r == rPiv {
			continue
		}
		wv := cVal[k]
		active := s.newBasis[r] == -1
		if s.stamp[r] != s.epoch { // fill-in
			nv := 0 - wv*t
			if math.Abs(nv) < dropTol {
				continue
			}
			kIdx[n], kVal[n] = r, nv
			n++
			if active {
				s.rowCount[r]++
				s.colAct[ck]++
			}
			continue
		}
		p := s.pos[r]
		nv := kVal[p] - wv*t
		if math.Abs(nv) >= dropTol {
			kVal[p] = nv
			continue
		}
		// Cancellation: drop the entry, moving the last one into its slot.
		n--
		if last := kIdx[n]; last != r {
			kIdx[p], kVal[p] = last, kVal[n]
			s.pos[last] = p
		}
		if active {
			s.rowCount[r]--
			s.colAct[ck]--
		}
	}
	s.colLen[ck] = n
}
