package lp

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
)

// newSparseState is a solver state over sf at the identity factorisation.
func newSparseState(sf *standardForm, opt *Options) *sparseState {
	s := new(sparseState)
	s.reset(sf, opt)
	return s
}

// buildFactorProblem creates a standard form whose first m columns form a
// random nonsingular sparse matrix (guaranteed by a dominant permuted
// diagonal), so a basis of exactly those columns must reinvert cleanly.
func buildFactorProblem(t *testing.T, m int, extraNnz int, rng *rand.Rand) (*sparseState, []int) {
	t.Helper()
	p := NewProblem(m)
	perm := rng.Perm(m)
	rowsOf := make([][]int, m)
	valsOf := make([][]float64, m)
	for j := 0; j < m; j++ {
		seen := map[int]bool{perm[j]: true}
		rowsOf[j] = []int{perm[j]}
		valsOf[j] = []float64{2 + rng.Float64()*3}
		for e := 0; e < extraNnz; e++ {
			r := rng.Intn(m)
			if seen[r] {
				continue
			}
			seen[r] = true
			rowsOf[j] = append(rowsOf[j], r)
			valsOf[j] = append(valsOf[j], (rng.Float64()*2-1)*0.9)
		}
	}
	// Constraints: row i of the matrix as an EQ row (values arbitrary).
	rowIdx := make([][]int, m)
	rowVal := make([][]float64, m)
	for j := 0; j < m; j++ {
		for k, r := range rowsOf[j] {
			rowIdx[r] = append(rowIdx[r], j)
			rowVal[r] = append(rowVal[r], valsOf[j][k])
		}
	}
	for i := 0; i < m; i++ {
		if len(rowIdx[i]) == 0 {
			// Ensure no empty row: put a tiny entry on variable i.
			rowIdx[i] = []int{i}
			rowVal[i] = []float64{1e-3}
		}
		mustCon(t, p, EQ, 1, rowIdx[i], rowVal[i])
	}
	sf, _ := p.toStandard()
	s := newSparseState(sf, &Options{})
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		basis[i] = i
	}
	copy(s.basis, basis)
	for _, j := range basis {
		s.inBasis[j] = true
	}
	return s, basis
}

// TestFactorBumpRandom reinvertes random sparse nonsingular bases and checks
// B^{-1} B = I through the eta file.
func TestFactorBumpRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		m := 5 + rng.Intn(60)
		s, basis := buildFactorProblem(t, m, 1+rng.Intn(4), rng)
		if err := s.reinvert(); err != nil {
			t.Fatalf("trial %d (m=%d): reinvert: %v", trial, m, err)
		}
		// basis may be reordered; same set expected.
		seen := map[int]bool{}
		for _, j := range s.basis {
			seen[j] = true
		}
		for _, j := range basis {
			if !seen[j] {
				t.Fatalf("trial %d: basis lost column %d", trial, j)
			}
		}
		// FTRAN of basis column at row r must be e_r.
		for r, j := range s.basis {
			rows, vals := s.colOf(j)
			touched := s.ftran(rows, vals)
			for _, i := range touched {
				want := 0.0
				if int(i) == r {
					want = 1
				}
				if math.Abs(s.work[i]-want) > 1e-8 {
					t.Fatalf("trial %d: column %d row %d: got %g want %g", trial, j, i, s.work[i], want)
				}
			}
		}
	}
}

// TestFactorBumpDetectsSingular feeds a structurally singular basis
// (duplicate column) and expects an error, not silence.
func TestFactorBumpDetectsSingular(t *testing.T) {
	p := NewProblem(3)
	mustCon(t, p, EQ, 1, []int{0, 1, 2}, []float64{1, 1, 1})
	mustCon(t, p, EQ, 1, []int{0, 1, 2}, []float64{2, 2, 1})
	mustCon(t, p, EQ, 1, []int{0, 1}, []float64{3, 3})
	sf, _ := p.toStandard()
	s := newSparseState(sf, &Options{})
	// Columns 0 and 1 are identical (values 1,2,3): basis {0,1,2} singular.
	copy(s.basis, []int{0, 1, 2})
	s.inBasis[0], s.inBasis[1], s.inBasis[2] = true, true, true
	if err := s.reinvert(); err == nil {
		t.Fatal("singular basis must be detected")
	}
}

// checkAgainstOracle reinverts basis with the array factorisation and with
// the map-based oracle and requires the same outcome: both singular, or the
// same row-aligned basis and the same eta file element for element (the
// oracle's leading one-entry slack etas being the solver's diag vector).
func checkAgainstOracle(t *testing.T, name string, s *sparseState, basis []int) {
	t.Helper()
	copy(s.basis, basis)
	want, wantBasis, wantErr := oracleReinvert(s.sf, basis)
	err := s.reinvert()
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: reinvert error %v, oracle error %v", name, err, wantErr)
	}
	if err != nil {
		return
	}
	for i := range wantBasis {
		if s.basis[i] != wantBasis[i] {
			t.Fatalf("%s: row %d pivots column %d, oracle %d", name, i, s.basis[i], wantBasis[i])
		}
	}
	nDiag := 0
	for _, d := range s.diag {
		if d != 1 {
			nDiag++
		}
	}
	if len(want) != nDiag+len(s.etas) {
		t.Fatalf("%s: %d diagonal entries + %d etas, oracle has %d etas", name, nDiag, len(s.etas), len(want))
	}
	seen := map[int32]bool{}
	for _, e := range want[:nDiag] {
		if len(e.idx) != 1 || e.idx[0] != e.r || e.vals[0] != e.pivot || seen[e.r] {
			t.Fatalf("%s: oracle eta %+v is not a fresh slack scaling", name, e)
		}
		seen[e.r] = true
		if s.diag[e.r] != e.pivot {
			t.Fatalf("%s: diag[%d] = %v, oracle scales by %v", name, e.r, s.diag[e.r], e.pivot)
		}
	}
	for i, e := range want[nDiag:] {
		got := &s.etas[i]
		idx, vals := s.etaCol(got)
		if got.r != e.r || got.pivot != e.pivot || len(idx) != len(e.idx) {
			t.Fatalf("%s: eta %d is row %d pivot %v with %d entries, oracle row %d pivot %v with %d",
				name, i, got.r, got.pivot, len(idx), e.r, e.pivot, len(e.idx))
		}
		for k := range idx {
			if idx[k] != e.idx[k] || vals[k] != e.vals[k] {
				t.Fatalf("%s: eta %d entry %d is (%d, %v), oracle (%d, %v)", name, i, k, idx[k], vals[k], e.idx[k], e.vals[k])
			}
		}
	}
}

// capturedBasis is one reinversion input recorded from a real generation:
// the equilibrated standard-form columns of a basis, in basis order.
type capturedBasis struct {
	Name  string `json:"name"`
	M     int    `json:"m"`
	N     int    `json:"n"`
	Basis []int  `json:"basis"`
	Cols  []struct {
		J    int       `json:"j"`
		Rows []int32   `json:"rows"`
		Vals []float64 `json:"vals"`
	} `json:"cols"`
}

// state rebuilds a solver state whose standard form holds the captured
// columns (every other column is empty: reinversion reads basic columns
// only).
func (c *capturedBasis) state() *sparseState {
	sf := &standardForm{m: c.M, n: c.N, colPtr: make([]int32, c.N+1)}
	for _, col := range c.Cols {
		sf.colPtr[col.J+1] = int32(len(col.Rows))
	}
	for j := 0; j < c.N; j++ {
		sf.colPtr[j+1] += sf.colPtr[j]
	}
	sf.rowIdx = make([]int32, sf.colPtr[c.N])
	sf.vals = make([]float64, sf.colPtr[c.N])
	for _, col := range c.Cols {
		copy(sf.rowIdx[sf.colPtr[col.J]:], col.Rows)
		copy(sf.vals[sf.colPtr[col.J]:], col.Vals)
	}
	return newSparseState(sf, nil)
}

// randomMixedBasis builds an equilibrated standard form with slack rows of
// both signs and equality rows, and picks per row its slack, its artificial
// or structural column i: the mix of diagonal scalings, structural pivots
// and bump columns a simplex basis has. Some picks are singular.
func randomMixedBasis(t *testing.T, rng *rand.Rand) (*sparseState, []int) {
	t.Helper()
	m := 4 + rng.Intn(40)
	nv := m + rng.Intn(m)
	p := NewProblem(nv)
	for i := 0; i < m; i++ {
		// Variable i always occurs in row i, so the structural pick below has
		// a nonzero diagonal and most bases factor.
		idx := []int{i}
		for _, j := range rng.Perm(nv)[:rng.Intn(4)] {
			if j != i {
				idx = append(idx, j)
			}
		}
		val := make([]float64, len(idx))
		for j := range val {
			val[j] = math.Exp(6*rng.Float64()-3) * float64(1-2*rng.Intn(2))
		}
		mustCon(t, p, Sense(rng.Intn(3)), float64(rng.Intn(3)-1), idx, val)
	}
	sf, _ := p.toStandard()
	sf.equilibrate(3)
	s := newSparseState(sf, nil)
	basis := make([]int, m)
	for i := range basis {
		switch pick := rng.Intn(4); {
		case pick == 0 && sf.slackOf[i] >= 0:
			basis[i] = int(sf.slackOf[i])
		case pick == 1:
			basis[i] = sf.n + i
		default:
			basis[i] = i
		}
	}
	return s, basis
}

// TestFactorMatchesMapOracle is the differential test of the array
// factorisation: on bases captured from real K=7 and K=49 generations
// (direct LP, Dantzig-Wolfe master and pricing) and on random ones, it must
// choose the oracle's pivots and emit the oracle's eta file.
func TestFactorMatchesMapOracle(t *testing.T) {
	raw, err := os.ReadFile("testdata/bases.json")
	if err != nil {
		t.Fatal(err)
	}
	var captured []capturedBasis
	if err := json.Unmarshal(raw, &captured); err != nil {
		t.Fatal(err)
	}
	if len(captured) != 5 {
		t.Fatalf("%d captured bases, want 5", len(captured))
	}
	for i := range captured {
		c := &captured[i]
		s := c.state()
		checkAgainstOracle(t, c.Name, s, c.Basis)
		if len(s.etas) == 0 {
			t.Errorf("%s: no bump to factor", c.Name)
		}
		// Again on the same state: the arenas and counts of the first
		// factorisation must not show through.
		checkAgainstOracle(t, c.Name+" (again)", s, c.Basis)
	}
	rng := rand.New(rand.NewSource(14))
	factored := 0
	for trial := 0; trial < 300; trial++ {
		s, basis := randomMixedBasis(t, rng)
		checkAgainstOracle(t, "mixed", s, basis)
		if len(s.etas) > 0 {
			factored++
		}
		m := 5 + rng.Intn(60)
		s, basis = buildFactorProblem(t, m, 1+rng.Intn(6), rng)
		checkAgainstOracle(t, "dominant", s, basis)
	}
	if factored < 150 {
		t.Errorf("only %d of 300 mixed bases had a bump that factored", factored)
	}
}

// FuzzReinvert drives reinversion with random bases. kind 0 is a
// well-conditioned nonsingular basis (a permuted diagonal of 2..5 with up to
// four off-diagonal entries of at most 0.4 per column), which must factor so
// that FTRAN of every basic column is its unit vector; the other kinds break
// it — a repeated column, two singletons in one row, a repeated artificial —
// and must be reported singular. Nothing may panic.
func FuzzReinvert(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(2), uint8(0))
	f.Add(int64(2), uint8(40), uint8(4), uint8(1))
	f.Add(int64(3), uint8(9), uint8(1), uint8(2))
	f.Add(int64(4), uint8(30), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, size, extra, kind uint8) {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + int(size)%80
		cols := make([]map[int]float64, m) // column -> row -> value
		perm := rng.Perm(m)
		for j := range cols {
			cols[j] = map[int]float64{perm[j]: 2 + 3*rng.Float64()}
			for e := 0; e < int(extra)%5; e++ {
				if r := rng.Intn(m); r != perm[j] {
					cols[j][r] = (2*rng.Float64() - 1) * 0.4
				}
			}
		}
		a, b := rng.Intn(m), rng.Intn(m-1)
		if b >= a {
			b++
		}
		repeatArtificial := false
		switch kind % 4 {
		case 1:
			cols[b] = cols[a]
		case 2:
			cols[a] = map[int]float64{perm[a]: 3}
			cols[b] = map[int]float64{perm[a]: 5}
		case 3:
			repeatArtificial = true
		}
		// Variable m is never basic; it keeps every constraint non-empty.
		p := NewProblem(m + 1)
		for i := 0; i < m; i++ {
			idx, val := []int{m}, []float64{1}
			for j := range cols {
				if v, ok := cols[j][i]; ok {
					idx, val = append(idx, j), append(val, v)
				}
			}
			mustCon(t, p, EQ, 1, idx, val)
		}
		sf, _ := p.toStandard()
		s := newSparseState(sf, nil)
		for j := range s.basis {
			s.basis[j] = j
		}
		if repeatArtificial {
			s.basis[a], s.basis[b] = sf.n+perm[a], sf.n+perm[a]
		}
		err := s.reinvert()
		if kind%4 != 0 {
			if err == nil {
				t.Fatalf("singular basis (kind %d) factored", kind%4)
			}
			return
		}
		if err != nil {
			t.Fatalf("nonsingular basis: %v", err)
		}
		for r, j := range s.basis {
			rows, vals := s.colOf(j)
			for _, i := range s.ftran(rows, vals) {
				want := 0.0
				if int(i) == r {
					want = 1
				}
				if math.Abs(s.work[i]-want) > 1e-9 {
					t.Fatalf("B^-1 B e_%d: row %d is %g, want %g", r, i, s.work[i], want)
				}
			}
		}
	})
}
