package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestFrequentReinversion forces a reinversion every few pivots and reruns
// randomized cross-checks, exercising the PFI rebuild path that large
// problems hit.
func TestFrequentReinversion(t *testing.T) {
	old := refactorEtas
	refactorEtas = 3
	defer func() { refactorEtas = old }()

	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 80; trial++ {
		nv := 3 + rng.Intn(7)
		p := NewProblem(nv)
		c := make([]float64, nv)
		for j := range c {
			c[j] = rng.Float64()*2 - 0.5
		}
		mustObj(t, p, c)
		x0 := make([]float64, nv)
		for j := range x0 {
			x0[j] = rng.Float64() * 2
		}
		m := 2 + rng.Intn(8)
		for i := 0; i < m; i++ {
			k := 1 + rng.Intn(nv)
			idx := rng.Perm(nv)[:k]
			val := make([]float64, k)
			ax := 0.0
			for t2 := range val {
				val[t2] = rng.Float64()*4 - 2
				ax += val[t2] * x0[idx[t2]]
			}
			switch rng.Intn(3) {
			case 0:
				mustCon(t, p, LE, ax+rng.Float64(), idx, val)
			case 1:
				mustCon(t, p, GE, ax-rng.Float64(), idx, val)
			default:
				mustCon(t, p, EQ, ax, idx, val)
			}
		}
		all := make([]int, nv)
		ones := make([]float64, nv)
		tot := 0.0
		for j := range all {
			all[j], ones[j] = j, 1
			tot += x0[j]
		}
		mustCon(t, p, LE, tot+1, all, ones)
		solveBoth(t, p, &Options{Seed: int64(trial + 5)})
	}
}

// TestCORGIShapedLP reproduces the structure that broke the solver in
// integration: K cells, row-stochasticity equalities, and zero-RHS ratio
// constraints between lattice neighbors — then verifies the solution is
// feasible and matches the dense oracle.
func TestCORGIShapedLP(t *testing.T) {
	for _, k := range []int{4, 6, 9, 12, 16} {
		p := corgiShaped(t, k, 0.8)
		for _, perturb := range []bool{false, true} {
			s, err := Solve(p, &Options{Perturb: perturb})
			if err != nil {
				t.Fatal(err)
			}
			if s.Status != Optimal {
				t.Fatalf("k=%d perturb=%v: status %v", k, perturb, s.Status)
			}
			certify(t, p, s, 1e-6)
			d, err := SolveDense(p, nil)
			if err != nil || d.Status != Optimal {
				t.Fatalf("dense: %v %v", err, d.Status)
			}
			if math.Abs(d.Objective-s.Objective) > 1e-5*(1+math.Abs(d.Objective)) {
				t.Fatalf("k=%d perturb=%v: obj %v vs dense %v", k, perturb, s.Objective, d.Objective)
			}
		}
	}
}

// corgiShaped builds min sum c_ij z_ij s.t. rows stochastic, and
// z[i][c] <= alpha*z[j][c] for ring-adjacent i,j on a cycle of k cells.
func corgiShaped(t *testing.T, k int, dist float64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(k)))
	nv := k * k
	p := NewProblem(nv)
	c := make([]float64, nv)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			c[i*k+j] = math.Abs(float64(i-j)) * (1 + 0.1*rng.Float64())
		}
	}
	mustObj(t, p, c)
	idx := make([]int, k)
	ones := make([]float64, k)
	for j := range ones {
		ones[j] = 1
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			idx[j] = i*k + j
		}
		mustCon(t, p, EQ, 1, idx, ones)
	}
	alpha := math.Exp(1.5 * dist)
	for i := 0; i < k; i++ {
		j := (i + 1) % k
		for col := 0; col < k; col++ {
			mustCon(t, p, LE, 0, []int{i*k + col, j*k + col}, []float64{1, -alpha})
			mustCon(t, p, LE, 0, []int{j*k + col, i*k + col}, []float64{1, -alpha})
		}
	}
	return p
}
