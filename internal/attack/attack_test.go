package attack

import (
	"math"
	"testing"

	"corgi/internal/obf"
)

func lineDist(i, j int) float64 { return math.Abs(float64(i - j)) }

func uniformPrior(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 1
	}
	return p
}

func TestNewValidation(t *testing.T) {
	z := uniform(3)
	if _, err := New([]float64{1, 1}, z); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := New([]float64{1, -1, 1}, z); err == nil {
		t.Error("negative prior must fail")
	}
	if _, err := New([]float64{0, 0, 0}, z); err == nil {
		t.Error("zero prior must fail")
	}
}

func TestPosteriorIdentityMechanism(t *testing.T) {
	// Identity matrix: observing l reveals the location exactly.
	a, err := New(uniformPrior(4), identity(4))
	if err != nil {
		t.Fatal(err)
	}
	post := a.Posterior(2)
	for i, p := range post {
		want := 0.0
		if i == 2 {
			want = 1
		}
		if math.Abs(p-want) > 1e-12 {
			t.Errorf("post[%d] = %v, want %v", i, p, want)
		}
	}
	if acc := a.MAPAccuracy(); math.Abs(acc-1) > 1e-12 {
		t.Errorf("identity MAP accuracy %v, want 1", acc)
	}
	if e := a.ExpectedInferenceError(lineDist); e != 0 {
		t.Errorf("identity inference error %v, want 0", e)
	}
}

func TestPosteriorUniformMechanism(t *testing.T) {
	// Uniform matrix: observation is useless; posterior equals prior.
	prior := []float64{0.5, 0.25, 0.25}
	a, err := New(prior, uniform(3))
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 3; l++ {
		post := a.Posterior(l)
		for i := range post {
			if math.Abs(post[i]-prior[i]) > 1e-12 {
				t.Errorf("post[%d|%d] = %v, want prior %v", i, l, post[i], prior[i])
			}
		}
	}
	// MAP accuracy = max prior mass.
	if acc := a.MAPAccuracy(); math.Abs(acc-0.5) > 1e-12 {
		t.Errorf("uniform MAP accuracy %v, want 0.5", acc)
	}
}

func TestPosteriorOutOfRange(t *testing.T) {
	a, _ := New(uniformPrior(3), uniform(3))
	if a.Posterior(-1) != nil || a.Posterior(3) != nil {
		t.Error("out-of-range observation must return nil")
	}
}

func TestExpectedInferenceErrorOrdering(t *testing.T) {
	// More obfuscation must not decrease adversary error.
	n := 5
	id, _ := New(uniformPrior(n), identity(n))
	un, _ := New(uniformPrior(n), uniform(n))
	if id.ExpectedInferenceError(lineDist) > un.ExpectedInferenceError(lineDist) {
		t.Error("identity must leak more than uniform")
	}
	if un.ExpectedInferenceError(lineDist) <= 0 {
		t.Error("uniform mechanism must have positive inference error")
	}
}

func TestPosteriorRatioBoundGeoInd(t *testing.T) {
	// A mechanism built as z[i][j] ∝ exp(-eps*d) satisfies 2eps-Geo-Ind, so
	// the ratio bound within distance 1 must be <= e^{2*eps}.
	const eps = 1.0
	n := 6
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = make([]float64, n)
		s := 0.0
		for j := 0; j < n; j++ {
			rows[i][j] = math.Exp(-eps * lineDist(i, j))
			s += rows[i][j]
		}
		for j := range rows[i] {
			rows[i][j] /= s
		}
	}
	z, err := obf.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(uniformPrior(n), z)
	if err != nil {
		t.Fatal(err)
	}
	bound := a.PosteriorRatioBound(lineDist, 1.0)
	if bound > math.Exp(2*eps)+1e-9 {
		t.Errorf("ratio bound %v exceeds e^{2eps} = %v", bound, math.Exp(2*eps))
	}
	if bound < 1 {
		t.Errorf("ratio bound %v below 1", bound)
	}
	// Identity has unbounded ratio in principle; with zero entries skipped
	// it reports 1, so use a near-identity matrix to see leakage.
	near, _ := obf.FromRows([][]float64{
		{0.98, 0.01, 0.01},
		{0.01, 0.98, 0.01},
		{0.01, 0.01, 0.98},
	})
	an, _ := New(uniformPrior(3), near)
	if b := an.PosteriorRatioBound(lineDist, 1.0); b < 50 {
		t.Errorf("near-identity ratio bound %v suspiciously small", b)
	}
}

func TestPriorWeightingMatters(t *testing.T) {
	// Skewed prior shifts the posterior even under a symmetric mechanism.
	z := uniform(2)
	a, _ := New([]float64{0.9, 0.1}, z)
	post := a.Posterior(0)
	if post[0] <= post[1] {
		t.Error("posterior must follow the skewed prior")
	}
}

// uniform and identity are the two extreme mechanisms: every location
// reported alike, and the true location reported as it is.
func uniform(n int) *obf.Matrix {
	m := obf.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, 1/float64(n))
		}
	}
	return m
}

func identity(n int) *obf.Matrix {
	m := obf.NewMatrix(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}
