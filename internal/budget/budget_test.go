package budget

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"corgi/internal/raceon"
)

// Indices -1, -1 mask nothing: the pair forms then compute the literal
// Equ. (12)/(14), a maximum over every prune set.
func TestTopDeltaSum(t *testing.T) {
	row := []float64{0.1, 0.4, 0.05, 0.3, 0.15}
	tests := []struct {
		delta int
		want  float64
	}{
		{0, 0},
		{1, 0.4},
		{2, 0.7},
		{3, 0.85},
		{5, 1.0},
		{9, 1.0}, // delta beyond length
	}
	for _, tc := range tests {
		if got := topDeltaSumExcluding(row, tc.delta, -1, -1); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("top-%d sum = %v, want %v", tc.delta, got, tc.want)
		}
	}
	if got := topDeltaSumExcluding(nil, 3, -1, -1); got != 0 {
		t.Errorf("empty row = %v", got)
	}
	// Negative entries are never selected.
	if got := topDeltaSumExcluding([]float64{-1, 0.5, -2}, 2, -1, -1); got != 0.5 {
		t.Errorf("negative entries selected: %v", got)
	}
	if got := topDeltaSumExcluding([]float64{-1, -2}, 5, -1, -1); got != 0 {
		t.Errorf("all-negative full sum = %v", got)
	}
}

func TestTopDeltaSumMonotone(t *testing.T) {
	f := func(seed int64, rawDelta uint8) bool {
		r := rand.New(rand.NewSource(seed))
		row := make([]float64, 10)
		for i := range row {
			row[i] = r.Float64() / 10
		}
		d := int(rawDelta % 10)
		return topDeltaSumExcluding(row, d, -1, -1) <= topDeltaSumExcluding(row, d+1, -1, -1)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApproxValidation(t *testing.T) {
	zi := []float64{0.5, 0.5}
	if _, err := ApproxPair(zi, -1, -1, 0, 1, 1); err == nil {
		t.Error("zero distance must fail")
	}
	if _, err := ApproxPair(zi, -1, -1, 1, 0, 1); err == nil {
		t.Error("zero epsilon must fail")
	}
	if _, err := ApproxPair(zi, -1, -1, 1, 1, -1); err == nil {
		t.Error("negative delta must fail")
	}
}

func TestApproxZeroDelta(t *testing.T) {
	zi := []float64{0.2, 0.3, 0.5}
	got, err := ApproxPair(zi, -1, -1, 1.5, 10, 0)
	if err != nil || got != 0 {
		t.Errorf("delta=0 must reserve nothing, got %v err %v", got, err)
	}
}

func TestApproxIncreasesWithDelta(t *testing.T) {
	zi := []float64{0.4, 0.3, 0.2, 0.1}
	prev := -1.0
	for delta := 0; delta <= 4; delta++ {
		got, err := ApproxPair(zi, -1, -1, 1, 5, delta)
		if err != nil {
			t.Fatal(err)
		}
		if got < prev-1e-12 {
			t.Errorf("reserved budget decreased at delta=%d: %v < %v", delta, got, prev)
		}
		prev = got
	}
}

func TestApproxFormula(t *testing.T) {
	// Hand check: T = 0.6, eps=2, d=0.5 -> eps' = 2*ln((1-0.6/e)/(0.4)).
	zi := []float64{0.6, 0.25, 0.15}
	got, err := ApproxPair(zi, -1, -1, 0.5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log((1-0.6/math.E)/0.4) / 0.5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ApproxPair = %v, want %v", got, want)
	}
}

func TestApproxVariants(t *testing.T) {
	zi := []float64{0.9, 0.05, 0.05}
	zj := []float64{0.2, 0.4, 0.4}
	pi, err := ApproxPair(zi, -1, -1, 1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := ApproxPair(zj, -1, -1, 1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pi <= pj {
		t.Errorf("row i has the heavier top mass here, so the proof form (row i) should reserve more than the printed one (row j): %v vs %v", pi, pj)
	}
}

func TestApproxHeavyMassClamped(t *testing.T) {
	// Nearly all mass in the top entry: must stay finite.
	zi := []float64{1 - 1e-15, 1e-15}
	got, err := ApproxPair(zi, -1, -1, 1, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("ApproxPair overflowed: %v", got)
	}
	if got <= 0 {
		t.Errorf("heavy mass must reserve a positive budget, got %v", got)
	}
}

func TestExactValidation(t *testing.T) {
	if _, err := ExactPair([]float64{1}, []float64{0.5, 0.5}, -1, -1, 1, 1); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := ExactPair([]float64{1}, []float64{1}, -1, -1, 0, 1); err == nil {
		t.Error("zero distance must fail")
	}
	if _, err := ExactPair([]float64{1}, []float64{1}, -1, -1, 1, -2); err == nil {
		t.Error("negative delta must fail")
	}
}

func TestExactBruteForceSmall(t *testing.T) {
	zi := []float64{0.5, 0.3, 0.2}
	zj := []float64{0.1, 0.6, 0.3}
	d := 2.0
	// delta=1: candidates S={}, {0}, {1}, {2}:
	// {}: 1; {0}: 0.9/0.5=1.8; {1}: 0.4/0.7; {2}: 0.7/0.8.
	got, err := ExactPair(zi, zj, -1, -1, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(1.8) / d
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ExactPair = %v, want %v", got, want)
	}
	// delta=2: best is {0,2}: (1-0.4)/(1-0.7) = 2.0.
	got2, err := ExactPair(zi, zj, -1, -1, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	want2 := math.Log(2.0) / d
	if math.Abs(got2-want2) > 1e-12 {
		t.Errorf("ExactPair delta=2 = %v, want %v", got2, want2)
	}
}

func TestExactNonNegative(t *testing.T) {
	f := func(seed int64, rawDelta uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(4)
		zi, zj := make([]float64, n), make([]float64, n)
		si, sj := 0.0, 0.0
		for k := range zi {
			zi[k], zj[k] = r.Float64(), r.Float64()
			si += zi[k]
			sj += zj[k]
		}
		for k := range zi {
			zi[k] /= si
			zj[k] /= sj
		}
		delta := int(rawDelta % 3)
		got, err := ExactPair(zi, zj, -1, -1, 1.0, delta)
		return err == nil && got >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestApproxUpperBoundsExactUnderGeoInd verifies Proposition 4.5: when the
// rows already satisfy Geo-Ind (e^{eps d} z_j >= z_i entrywise), the
// approximation is an upper bound on the exact reserved budget.
func TestApproxUpperBoundsExactUnderGeoInd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const eps, d = 3.0, 0.7
	bound := math.Exp(eps * d)
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(5)
		zj := make([]float64, n)
		sum := 0.0
		for k := range zj {
			zj[k] = rng.Float64() + 0.05
			sum += zj[k]
		}
		for k := range zj {
			zj[k] /= sum
		}
		// Build z_i <= e^{eps d} z_j entrywise, then normalize downward so
		// the constraint still holds (scaling a row down preserves it
		// only if we cap; instead sample within the box and normalize,
		// retrying if normalization breaks the bound).
		zi := make([]float64, n)
		ok := false
		for attempt := 0; attempt < 50 && !ok; attempt++ {
			s := 0.0
			for k := range zi {
				zi[k] = rng.Float64() * bound * zj[k]
				s += zi[k]
			}
			ok = true
			for k := range zi {
				zi[k] /= s
				if zi[k] > bound*zj[k]+1e-12 {
					ok = false
				}
			}
		}
		if !ok {
			continue
		}
		for delta := 0; delta <= 2; delta++ {
			exact, err := ExactPair(zi, zj, -1, -1, d, delta)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := ApproxPair(zi, -1, -1, d, eps, delta)
			if err != nil {
				t.Fatal(err)
			}
			if approx < exact-1e-9 {
				t.Fatalf("trial %d delta %d: approx %v < exact %v", trial, delta, approx, exact)
			}
		}
	}
}

func TestTightenedMultiplier(t *testing.T) {
	if got := TightenedMultiplier(10, 0, 0.5); math.Abs(got-math.Exp(5)) > 1e-9 {
		t.Errorf("no reservation: %v", got)
	}
	if got := TightenedMultiplier(10, 4, 0.5); math.Abs(got-math.Exp(3)) > 1e-9 {
		t.Errorf("reserved 4: %v", got)
	}
	// Over-reservation tightens below 1 but stays positive.
	if got := TightenedMultiplier(1, 5, 1); got >= 1 || got <= 0 {
		t.Errorf("over-reserved multiplier = %v", got)
	}
}

// sortedTopDeltaSum is the reference the one-pass selection replaced: copy
// the row without i and j, sort, add the tail largest first.
func sortedTopDeltaSum(row []float64, delta, i, j int) float64 {
	var tmp []float64
	for k, v := range row {
		if k != i && k != j {
			tmp = append(tmp, v)
		}
	}
	if delta <= 0 || len(tmp) == 0 {
		return 0
	}
	sum := 0.0
	if delta >= len(tmp) {
		for _, v := range tmp {
			if v > 0 {
				sum += v
			}
		}
		return sum
	}
	sort.Float64s(tmp)
	for k := 0; k < delta; k++ {
		v := tmp[len(tmp)-1-k]
		if v <= 0 {
			break
		}
		sum += v
	}
	return sum
}

// TestTopDeltaSumMatchesSortedCopy holds the one-pass selection to the sum
// the sorted copy gave, bit for bit, on rows with ties, zeros and negatives,
// for every delta from none to beyond the row and with and without masked
// indices.
func TestTopDeltaSumMatchesSortedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 400; trial++ {
		row := make([]float64, 1+rng.Intn(49))
		for k := range row {
			switch rng.Intn(6) {
			case 0:
				row[k] = 0
			case 1:
				row[k] = -rng.Float64()
			case 2:
				row[k] = float64(rng.Intn(4)) / 7 // ties
			default:
				row[k] = rng.ExpFloat64() * 1e-3
			}
		}
		masks := [][2]int{{-1, -1}, {rng.Intn(len(row)), rng.Intn(len(row))}, {rng.Intn(len(row)), len(row) + 3}}
		for delta := 0; delta <= len(row)+1; delta++ {
			for _, m := range masks {
				got, want := topDeltaSumExcluding(row, delta, m[0], m[1]), sortedTopDeltaSum(row, delta, m[0], m[1])
				if got != want {
					t.Fatalf("row %v delta %d masking %v: %v, sorted copy %v", row, delta, m, got, want)
				}
			}
		}
	}
}

// TestReservedBudgetAllocatesNothing pins the reserved-budget pass of
// Algorithm 1 (one ApproxPair per constraint pair per round, on K=49 rows) at
// zero allocations for the deltas the server solves.
func TestReservedBudgetAllocatesNothing(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	rng := rand.New(rand.NewSource(49))
	zi := make([]float64, 49)
	for k := range zi {
		zi[k] = rng.Float64() / 49
	}
	for delta := 1; delta <= 3; delta++ {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ApproxPair(zi, 3, 10, 0.2, 15, delta); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("delta %d: ApproxPair allocates %.0f times, want 0", delta, allocs)
		}
	}
}
