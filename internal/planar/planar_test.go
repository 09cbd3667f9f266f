package planar

import (
	"math"
	"math/rand"
	"testing"

	"corgi/internal/geo"
)

func TestLambertWm1KnownValues(t *testing.T) {
	// W_{-1}(-1/e) = -1; W_{-1}(x)*e^{W} = x elsewhere.
	w, err := LambertWm1(-1 / math.E)
	if err != nil || math.Abs(w+1) > 1e-9 {
		t.Errorf("W(-1/e) = %v, %v", w, err)
	}
	for _, x := range []float64{-0.3678, -0.35, -0.2, -0.1, -0.01, -1e-4, -1e-8} {
		w, err := LambertWm1(x)
		if err != nil {
			t.Fatalf("W(%v): %v", x, err)
		}
		if w > -1 {
			t.Errorf("W_{-1}(%v) = %v must be <= -1", x, w)
		}
		if back := w * math.Exp(w); math.Abs(back-x) > 1e-9*math.Abs(x)+1e-12 {
			t.Errorf("W(%v): w*e^w = %v", x, back)
		}
	}
}

func TestLambertWm1Domain(t *testing.T) {
	for _, x := range []float64{-1, 0, 0.5, -0.99} {
		if _, err := LambertWm1(x); err == nil {
			t.Errorf("W(%v) should be out of domain", x)
		}
	}
}

func TestNewValidation(t *testing.T) {
	for _, eps := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := New(eps); err == nil {
			t.Errorf("epsilon %v must fail", eps)
		}
	}
	if _, err := New(2); err != nil {
		t.Errorf("valid epsilon failed: %v", err)
	}
}

func TestSampleOffsetStatistics(t *testing.T) {
	// Mean radius of the planar Laplace is 2/eps.
	m, _ := New(4.0)
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	sum := 0.0
	sumX, sumY := 0.0, 0.0
	for i := 0; i < n; i++ {
		off := m.SampleOffset(rng)
		sum += math.Hypot(off.X, off.Y)
		sumX += off.X
		sumY += off.Y
	}
	meanR, want := sum/n, 2/m.Epsilon
	if math.Abs(meanR-want)/want > 0.02 {
		t.Errorf("mean radius %v, want %v", meanR, want)
	}
	if math.Abs(sumX/n) > 0.01 || math.Abs(sumY/n) > 0.01 {
		t.Errorf("offset not centered: (%v, %v)", sumX/n, sumY/n)
	}
}

func TestRadialCDF(t *testing.T) {
	// P(R <= r) = 1 - (1 + eps*r)exp(-eps*r); check at r = 1/eps.
	m, _ := New(2.0)
	rng := rand.New(rand.NewSource(2))
	const n = 100000
	r0 := 1 / m.Epsilon
	count := 0
	for i := 0; i < n; i++ {
		off := m.SampleOffset(rng)
		if math.Hypot(off.X, off.Y) <= r0 {
			count++
		}
	}
	want := 1 - 2*math.Exp(-1)
	got := float64(count) / n
	if math.Abs(got-want) > 0.01 {
		t.Errorf("CDF(1/eps) = %v, want %v", got, want)
	}
}

func TestPerturbStaysNearby(t *testing.T) {
	m, _ := New(10)
	rng := rand.New(rand.NewSource(3))
	far := 0
	for i := 0; i < 1000; i++ {
		// The offset Discretize adds to the true cell's center.
		if off := m.SampleOffset(rng); math.Hypot(off.X, off.Y) > 3 { // 30x the mean error
			far++
		}
	}
	if far > 2 {
		t.Errorf("%d of 1000 samples implausibly far", far)
	}
}

func TestDiscretize(t *testing.T) {
	m, _ := New(5)
	rng := rand.New(rand.NewSource(4))
	centers := []geo.XY{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 5, Y: 5}}
	counts := make([]int, len(centers))
	for i := 0; i < 2000; i++ {
		j, err := m.Discretize(centers, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[j]++
	}
	if counts[0] < counts[3] {
		t.Errorf("origin should dominate the far cell: %v", counts)
	}
	if _, err := m.Discretize(centers, 9, rng); err == nil {
		t.Error("out-of-range cell must fail")
	}
}

func TestDiscretizedRows(t *testing.T) {
	centers := []geo.XY{{X: 0, Y: 0}, {X: 0.4, Y: 0}, {X: 0.8, Y: 0}, {X: 0.2, Y: 0.6}}
	dist := func(i, j int) float64 { return centers[i].Dist(centers[j]) }
	const eps = 3.0
	rows, err := DiscretizedRows(len(centers), dist, eps)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		sum := 0.0
		for j, v := range row {
			sum += v
			if v <= 0 {
				t.Errorf("row %d entry %d = %v, want strictly positive", i, j, v)
			}
			if row[i] < v {
				t.Errorf("row %d: diagonal %v below entry %d = %v", i, row[i], j, v)
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
	// The eps-geo-ind bound: w_i(l)/w_j(l) <= exp(eps*d(i,j)) for all i,j,l.
	for i := range rows {
		for j := range rows {
			bound := math.Exp(eps * dist(i, j))
			for l := range rows {
				if ratio := rows[i][l] / rows[j][l]; ratio > bound*(1+1e-12) {
					t.Errorf("ratio w_%d(%d)/w_%d(%d) = %v exceeds exp(eps*d) = %v", i, l, j, l, ratio, bound)
				}
			}
		}
	}
}

func TestDiscretizedRowsValidation(t *testing.T) {
	dist := func(i, j int) float64 { return math.Abs(float64(i - j)) }
	if _, err := DiscretizedRows(0, dist, 1); err == nil {
		t.Error("zero cells must fail")
	}
	for _, eps := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := DiscretizedRows(3, dist, eps); err == nil {
			t.Errorf("epsilon %v must fail", eps)
		}
	}
	if _, err := DiscretizedRows(3, func(i, j int) float64 { return -1 }, 1); err == nil {
		t.Error("negative distance must fail")
	}
}

func TestEmpiricalMatrix(t *testing.T) {
	m, _ := New(3)
	rng := rand.New(rand.NewSource(5))
	centers := []geo.XY{{X: 0, Y: 0}, {X: 0.4, Y: 0}, {X: 0.8, Y: 0}}
	rows, err := m.EmpiricalMatrix(centers, 3000, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d sums to %v", i, sum)
		}
		// The diagonal should carry the most mass (nearest-center remap).
		for j := range row {
			if row[i] < row[j]-0.05 {
				t.Errorf("row %d: diagonal %v below entry %d = %v", i, row[i], j, row[j])
			}
		}
	}
	if _, err := m.EmpiricalMatrix(centers, 0, rng); err == nil {
		t.Error("zero samples must fail")
	}
	if _, err := m.EmpiricalMatrix(nil, 10, rng); err == nil {
		t.Error("empty centers must fail")
	}
}
