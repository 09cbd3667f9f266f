package sample

import (
	"math"
	"testing"
)

// streamSeeds are the seeds the statistical tests run over: adjacent small
// seeds, the extremes of int64, and the structured family uid*1000003+7
// the bench's replay gives its users.
var streamSeeds = []int64{0, 1, 2, -1, math.MaxInt64, 1*1000003 + 7, 2*1000003 + 7, 3*1000003 + 7}

// TestUniformGolden pins exact stream values. The stream is part of the
// lease protocol — a device must read the variates the server reads — so
// these may only change with the lease bundle's version. Seed 0's first
// two values are the published SplitMix64 outputs from state 0,
// 0xe220a8397b1dcdaf and 0x6e789e6aa1b965f4, shifted down to 53 bits.
func TestUniformGolden(t *testing.T) {
	golden := []struct {
		seed int64
		pos  uint64
		bits uint64
	}{
		{0, 0, 0x3fec4415072f63b9},
		{0, 1, 0x3fdb9e279aa86e58},
		{1, 0, 0x3fe7fdf0061bb85a},
		{2, 0, 0x3fd0450a0a6ba784},
		{-1, 7, 0x3fe8c5caca54d290},
		{1000010, 0, 0x3fd79ddd3a8cbc4a},
		{1000010, 31, 0x3fe8854d9793ec22},
		{99, 1 << 40, 0x3fc358edf648b28c},
	}
	for _, g := range golden {
		if got := Uniform(g.seed, g.pos); math.Float64bits(got) != g.bits {
			t.Errorf("Uniform(%d, %d) = %v (%#x), recorded %v (%#x)",
				g.seed, g.pos, got, math.Float64bits(got), math.Float64frombits(g.bits), g.bits)
		}
	}
	if got, want := Uniform(0, 0), float64(uint64(0xe220a8397b1dcdaf)>>11)*0x1p-53; got != want {
		t.Errorf("Uniform(0, 0) = %v, SplitMix64 from state 0 gives %v", got, want)
	}
}

// TestUniformSeeksWhereSteppingLands: a naive SplitMix64 that steps its
// state one increment per output reaches, at every position, the value
// Uniform computes directly.
func TestUniformSeeksWhereSteppingLands(t *testing.T) {
	for _, seed := range streamSeeds {
		state := mix64(uint64(seed))
		for pos := uint64(0); pos < 1000; pos++ {
			state += goldenGamma
			want := float64(mix64(state)>>11) * 0x1p-53
			if got := Uniform(seed, pos); got != want {
				t.Fatalf("seed %d position %d: Uniform %v, stepped %v", seed, pos, got, want)
			}
		}
	}
}

// TestUniformChiSquare bins 2^16 variates of each seed's stream into 64
// equal bins. With 63 degrees of freedom the statistic's 1 - 1e-4 quantile
// is about 113.7 (Wilson-Hilferty), so a uniform stream stays under it.
func TestUniformChiSquare(t *testing.T) {
	const bins, n, limit = 64, 1 << 16, 113.7
	for _, seed := range streamSeeds {
		var count [bins]int
		for pos := uint64(0); pos < n; pos++ {
			u := Uniform(seed, pos)
			if u < 0 || u >= 1 {
				t.Fatalf("seed %d position %d: %v outside [0, 1)", seed, pos, u)
			}
			count[int(u*bins)]++
		}
		chi2, want := 0.0, float64(n)/bins
		for _, c := range count {
			d := float64(c) - want
			chi2 += d * d / want
		}
		if chi2 > limit {
			t.Errorf("seed %d: chi-square %.1f over 63 degrees of freedom, limit %.1f", seed, chi2, limit)
		}
	}
}

// TestAdjacentSeedsUncorrelated: the streams of seeds s and s+1 (and of
// neighbouring uids in the structured family) are uncorrelated position
// by position. Over n = 2^16 pairs an independent pair's Pearson r has
// standard deviation 1/sqrt(n) = 1/256; the bound is five of those.
func TestAdjacentSeedsUncorrelated(t *testing.T) {
	const n = 1 << 16
	bound := 5 / math.Sqrt(n)
	for _, pair := range [][2]int64{{0, 1}, {1, 2}, {-1, 0}, {1000010, 1000011}, {1000010, 2000013}, {math.MaxInt64 - 1, math.MaxInt64}} {
		var sx, sy, sxx, syy, sxy float64
		for pos := uint64(0); pos < n; pos++ {
			x, y := Uniform(pair[0], pos), Uniform(pair[1], pos)
			sx, sy = sx+x, sy+y
			sxx, syy, sxy = sxx+x*x, syy+y*y, sxy+x*y
		}
		cov := sxy/n - sx/n*sy/n
		r := cov / math.Sqrt((sxx/n-sx/n*sx/n)*(syy/n-sy/n*sy/n))
		if math.Abs(r) > bound {
			t.Errorf("seeds %d and %d: correlation %.5f, bound %.5f", pair[0], pair[1], r, bound)
		}
	}
}

// TestPickUniformMatchesProb draws 2^18 times from a K=49 row with zeros
// in it through Pick(Uniform(...)): every outcome's count lies within 4
// standard deviations of what Prob gives it, and a zero-weight outcome is
// never drawn.
func TestPickUniformMatchesProb(t *testing.T) {
	const n = 1 << 18
	a, err := New(goldenRow(49))
	if err != nil {
		t.Fatal(err)
	}
	count := make([]int, a.N())
	for pos := uint64(0); pos < n; pos++ {
		count[a.Pick(Uniform(1000010, pos))]++
	}
	for j, c := range count {
		p := a.Prob(j)
		mean, sd := n*p, math.Sqrt(n*p*(1-p))
		if p == 0 && c != 0 || math.Abs(float64(c)-mean) > 4*sd {
			t.Errorf("outcome %d: drawn %d times, Prob %.5f expects %.0f ± %.0f", j, c, p, mean, sd)
		}
	}
}
