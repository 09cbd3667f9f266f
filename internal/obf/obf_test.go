package obf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomStochastic returns a random n x n row-stochastic matrix.
func randomStochastic(n int, rng *rand.Rand) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		sum := 0.0
		row := m.Row(i)
		for j := range row {
			row[j] = rng.Float64() + 1e-3
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return m
}

// expMechanism returns z[i][j] proportional to exp(-eps*d(i,j)) with d a
// metric on indices. Because row normalizers differ by at most a factor
// exp(eps*d(i,j)), the construction satisfies (2*eps)-Geo-Ind.
func expMechanism(n int, eps float64, d func(i, j int) float64) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		sum := 0.0
		for j := range row {
			row[j] = math.Exp(-eps * d(i, j))
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return m
}

// lineDist is |i-j| scaled — a metric over indices.
func lineDist(i, j int) float64 { return math.Abs(float64(i - j)) }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3)
	if m.Dim() != 3 {
		t.Errorf("Dim = %d", m.Dim())
	}
	m.Set(1, 2, 0.5)
	if m.At(1, 2) != 0.5 {
		t.Error("Set/At roundtrip failed")
	}
	row := m.Row(1)
	row[0] = 0.25
	if m.At(1, 0) != 0.25 {
		t.Error("Row must be a live view")
	}
}

func TestFromRows(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("empty rows must fail")
	}
	if _, err := FromRows([][]float64{{1, 0}, {1}}); err == nil {
		t.Error("ragged rows must fail")
	}
	m, err := FromRows([][]float64{{0.5, 0.5}, {0.25, 0.75}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckStochastic(1e-12); err != nil {
		t.Errorf("CheckStochastic: %v", err)
	}
}

func TestCheckStochastic(t *testing.T) {
	m, _ := FromRows([][]float64{{0.5, 0.5}, {0.6, 0.6}})
	if err := m.CheckStochastic(1e-9); err == nil {
		t.Error("bad row sum must fail")
	}
	m2, _ := FromRows([][]float64{{1.5, -0.5}, {0.5, 0.5}})
	if err := m2.CheckStochastic(1e-9); err == nil {
		t.Error("negative entry must fail")
	}
}

func TestNormalizeRows(t *testing.T) {
	m, _ := FromRows([][]float64{{2, 2}, {1e-12, 3}})
	if err := m.NormalizeRows(1e-9); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckStochastic(1e-12); err != nil {
		t.Errorf("after normalize: %v", err)
	}
	bad := NewMatrix(2)
	if err := bad.NormalizeRows(1e-9); err == nil {
		t.Error("zero rows must fail")
	}
	neg, _ := FromRows([][]float64{{-0.5, 1.5}, {0.5, 0.5}})
	if err := neg.NormalizeRows(1e-9); err == nil {
		t.Error("large negative must fail")
	}
	tiny, _ := FromRows([][]float64{{-1e-12, 1}, {0.5, 0.5}})
	if err := tiny.NormalizeRows(1e-9); err != nil {
		t.Errorf("tiny negative should clamp: %v", err)
	}
	if tiny.At(0, 0) != 0 {
		t.Error("tiny negative not clamped")
	}
}

func allPairs(n int) []Pair {
	var ps []Pair
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				ps = append(ps, Pair{I: i, J: j, Dist: lineDist(i, j)})
			}
		}
	}
	return ps
}

func TestCheckGeoIndOnExpMechanism(t *testing.T) {
	const eps = 1.2
	m := expMechanism(6, eps, lineDist)
	rep := m.CheckGeoInd(allPairs(6), 2*eps, 1e-9)
	if rep.Violated != 0 {
		t.Errorf("exp mechanism must satisfy 2eps-Geo-Ind, got %d violations (max excess %g)", rep.Violated, rep.MaxExcess)
	}
	if rep.Total != 30*6 {
		t.Errorf("Total = %d, want %d", rep.Total, 30*6)
	}
	if rep.Percent() != 0 {
		t.Errorf("Percent = %v", rep.Percent())
	}
	// With a much smaller budget the same matrix must violate.
	rep2 := m.CheckGeoInd(allPairs(6), eps/2, 1e-9)
	if rep2.Violated == 0 {
		t.Error("halved budget must produce violations")
	}
	if rep2.MaxExcess <= 0 {
		t.Error("MaxExcess must be positive when violations exist")
	}
}

func TestViolationReportPercent(t *testing.T) {
	if (ViolationReport{}).Percent() != 0 {
		t.Error("empty report must be 0%")
	}
	r := ViolationReport{Violated: 25, Total: 100}
	if r.Percent() != 25 {
		t.Errorf("Percent = %v", r.Percent())
	}
}

func TestPruneValidation(t *testing.T) {
	m := randomStochastic(5, rand.New(rand.NewSource(1)))
	if _, _, err := m.Prune([]int{5}); err == nil {
		t.Error("out-of-range index must fail")
	}
	if _, _, err := m.Prune([]int{1, 1}); err == nil {
		t.Error("duplicate index must fail")
	}
	if _, _, err := m.Prune([]int{0, 1, 2, 3, 4}); err == nil {
		t.Error("pruning everything must fail")
	}
}

func TestPrunePreservesUnitMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64, rawN uint8, rawK uint8) bool {
		n := 3 + int(rawN%8)
		k := 1 + int(rawK)%(n-1)
		r := rand.New(rand.NewSource(seed))
		m := randomStochastic(n, r)
		s := r.Perm(n)[:k]
		pruned, keep, err := m.Prune(s)
		if err != nil {
			return true // mass-loss rejection is legitimate
		}
		if pruned.Dim() != n-k || len(keep) != n-k {
			return false
		}
		return pruned.CheckStochastic(1e-9) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestPruneKeepMapping(t *testing.T) {
	m := randomStochastic(5, rand.New(rand.NewSource(3)))
	pruned, keep, err := m.Prune([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	wantKeep := []int{0, 2, 4}
	for i, k := range keep {
		if k != wantKeep[i] {
			t.Fatalf("keep = %v, want %v", keep, wantKeep)
		}
	}
	// Check one entry against the formula: z'[i][j] = z[ki][kj] / (1 - sum_S z[ki][l]).
	removed := m.At(2, 1) + m.At(2, 3)
	want := m.At(2, 4) / (1 - removed)
	if math.Abs(pruned.At(1, 2)-want) > 1e-12 {
		t.Errorf("pruned entry = %v, want %v", pruned.At(1, 2), want)
	}
}

func TestCheckGeoIndPrunedAuditsSurvivingPairs(t *testing.T) {
	m := randomStochastic(5, rand.New(rand.NewSource(4)))
	s := []int{1, 3}
	// Pairs touching a pruned index drop out; the rest are renumbered.
	pairs := []Pair{{I: 0, J: 1, Dist: 1}, {I: 0, J: 2, Dist: 2}, {I: 4, J: 2, Dist: 2}, {I: 3, J: 4, Dist: 1}}
	got, err := m.CheckGeoIndPruned(s, pairs, 0.1, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	pruned, _, err := m.Prune(s)
	if err != nil {
		t.Fatal(err)
	}
	want := pruned.CheckGeoInd([]Pair{{I: 0, J: 1, Dist: 2}, {I: 2, J: 1, Dist: 2}}, 0.1, 1e-9)
	if got != want {
		t.Errorf("CheckGeoIndPruned = %+v, want %+v", got, want)
	}
	if _, err := m.CheckGeoIndPruned([]int{5}, pairs, 0.1, 1e-9); err == nil {
		t.Error("a bad prune set must fail")
	}
}

func TestPruneRejectsMassLoss(t *testing.T) {
	// Row 0 puts all its mass on column 1; pruning column 1 must fail.
	m, _ := FromRows([][]float64{
		{0, 1, 0},
		{0.3, 0.4, 0.3},
		{0.2, 0.2, 0.6},
	})
	if _, _, err := m.Prune([]int{1}); err == nil {
		t.Error("pruning a row's entire mass must fail")
	}
}

func TestPrecisionReduceValidation(t *testing.T) {
	m := randomStochastic(4, rand.New(rand.NewSource(4)))
	priors := []float64{0.25, 0.25, 0.25, 0.25}
	if _, err := PrecisionReduce(m, [][]int{{0, 1}, {2, 3}}, priors[:3]); err == nil {
		t.Error("prior length mismatch must fail")
	}
	if _, err := PrecisionReduce(m, [][]int{{0, 1}, {2}}, priors); err == nil {
		t.Error("uncovered leaf must fail")
	}
	if _, err := PrecisionReduce(m, [][]int{{0, 1}, {1, 2, 3}}, priors); err == nil {
		t.Error("overlapping groups must fail")
	}
	if _, err := PrecisionReduce(m, [][]int{{0, 1}, {}, {2, 3}}, priors); err == nil {
		t.Error("empty group must fail")
	}
	if _, err := PrecisionReduce(m, [][]int{{0, 5}, {1, 2, 3}}, priors); err == nil {
		t.Error("out-of-range leaf must fail")
	}
	if _, err := PrecisionReduce(m, [][]int{{0, 1}, {2, 3}}, []float64{0, 0, 0.5, 0.5}); err == nil {
		t.Error("zero-mass group must fail")
	}
	if _, err := PrecisionReduce(m, [][]int{{0, 1}, {2, 3}}, []float64{-0.1, 0.6, 0.25, 0.25}); err == nil {
		t.Error("negative prior must fail")
	}
}

func TestPrecisionReducePreservesStochastic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 6 + r.Intn(6)
		m := randomStochastic(n, r)
		priors := make([]float64, n)
		for i := range priors {
			priors[i] = r.Float64() + 0.01
		}
		// Random partition into 2-3 groups.
		ng := 2 + r.Intn(2)
		groups := make([][]int, ng)
		for i := 0; i < n; i++ {
			g := r.Intn(ng)
			groups[g] = append(groups[g], i)
		}
		for _, g := range groups {
			if len(g) == 0 {
				return true // skip degenerate partition
			}
		}
		red, err := PrecisionReduce(m, groups, priors)
		if err != nil {
			return false
		}
		return red.CheckStochastic(1e-9) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPrecisionReducePreservesGeoInd(t *testing.T) {
	// Proposition 4.6: if Z0 satisfies z[u][w] <= e^{eps*d}z[v][w] for all
	// u,v,w (uniform-budget form used in the proof), the reduced matrix
	// satisfies the same bound for every group pair.
	const eps = 0.8
	n := 8
	m := expMechanism(n, eps, lineDist)
	priors := make([]float64, n)
	for i := range priors {
		priors[i] = 1.0 / float64(n)
	}
	groups := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	red, err := PrecisionReduce(m, groups, priors)
	if err != nil {
		t.Fatal(err)
	}
	// Bound for the proof's uniform form: max pair distance across groups.
	for i := range groups {
		for j := range groups {
			if i == j {
				continue
			}
			// d(group_i, group_j) in the proof uses the worst leaf pair.
			dmax := 0.0
			for _, u := range groups[i] {
				for _, v := range groups[j] {
					if d := lineDist(u, v); d > dmax {
						dmax = d
					}
				}
			}
			bound := math.Exp(2 * eps * dmax)
			for k := 0; k < red.Dim(); k++ {
				if red.At(i, k) > bound*red.At(j, k)+1e-9 {
					t.Fatalf("group pair (%d,%d) col %d violates reduced Geo-Ind", i, j, k)
				}
			}
		}
	}
}

func TestPrecisionReduceBayesFormula(t *testing.T) {
	// Hand-checked 4x4 -> 2x2 example.
	m, _ := FromRows([][]float64{
		{0.4, 0.2, 0.3, 0.1},
		{0.1, 0.5, 0.2, 0.2},
		{0.3, 0.3, 0.2, 0.2},
		{0.0, 0.2, 0.4, 0.4},
	})
	priors := []float64{0.1, 0.3, 0.2, 0.4}
	red, err := PrecisionReduce(m, [][]int{{0, 1}, {2, 3}}, priors)
	if err != nil {
		t.Fatal(err)
	}
	// z[0][0] = (0.1*(0.4+0.2) + 0.3*(0.1+0.5)) / 0.4 = (0.06+0.18)/0.4 = 0.6
	if math.Abs(red.At(0, 0)-0.6) > 1e-12 {
		t.Errorf("z[0][0] = %v, want 0.6", red.At(0, 0))
	}
	// z[1][1] = (0.2*(0.2+0.2) + 0.4*(0.4+0.4)) / 0.6 = (0.08+0.32)/0.6 = 2/3
	if math.Abs(red.At(1, 1)-2.0/3) > 1e-12 {
		t.Errorf("z[1][1] = %v, want 2/3", red.At(1, 1))
	}
	if err := red.CheckStochastic(1e-12); err != nil {
		t.Errorf("reduced not stochastic: %v", err)
	}
}

func TestUniformIdentity(t *testing.T) {
	u := uniform(4)
	if err := u.CheckStochastic(1e-12); err != nil {
		t.Errorf("uniform: %v", err)
	}
	rep := u.CheckGeoInd(allPairs(4), 0.0001, 1e-12)
	if rep.Violated != 0 {
		t.Error("uniform matrix satisfies any Geo-Ind budget")
	}
	id := identity(4)
	if err := id.CheckStochastic(1e-12); err != nil {
		t.Errorf("identity: %v", err)
	}
	rep2 := id.CheckGeoInd(allPairs(4), 1, 1e-9)
	if rep2.Violated == 0 {
		t.Error("identity matrix must violate Geo-Ind")
	}
}

// uniform and identity are the two extreme mechanisms: every location
// reported alike, and the true location reported as it is.
func uniform(n int) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, 1/float64(n))
		}
	}
	return m
}

func identity(n int) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}
