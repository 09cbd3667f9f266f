// Package sample implements Walker/Vose alias tables: O(1) draws from a
// discrete distribution after an O(n) build. The report-serving hot path
// draws one obfuscated location per request from a matrix row; a linear
// inverse-CDF scan of the row costs O(n) per draw, which at the paper's
// height-3 setup (343-leaf subtrees) and beyond (n >= 1024) dominates
// report latency. An alias table pays the scan once and then draws in
// constant time.
//
// A table New returns is immutable, so any number of goroutines may Pick
// from one table concurrently: a table holds no stream state, and the
// variate a pick consumes comes from the caller. Build rewrites a table in
// place, for an owner that holds the table alone and wants its arrays back
// for another row (a device lease rebuilding its tables at renewal); a
// table anyone else can reach, and every table New returned, is never
// rebuilt.
//
// A draw consumes exactly one uniform variate (the one-uniform trick: the
// integer part of u*n picks the bucket, the fractional part flips the
// biased coin), the same consumption as one inverse-CDF scan.
//
// The variates sessions and device leases draw with come from Uniform, a
// stream addressed by (seed, position): the draw at position p of a seed's
// stream is a pure function of the two, so a server session and a device
// lease holding the same coordinates draw the same cells, and reaching
// position p costs nothing however large p is.
package sample

import (
	"fmt"
	"math"
	"math/rand"
)

// Alias is a Walker alias table over n outcomes. The zero value is an empty
// table for Build to fill.
type Alias struct {
	n     int
	prob  []float64 // acceptance threshold per bucket, in [0, 1]
	alias []int32   // fallback outcome per bucket
}

// stackN is the largest outcome count whose build scratch lives on the
// stack: it covers the K=7 and K=49 subtrees every lease and re-anchor
// rebuilds tables for; the 343-leaf tree still takes its scratch from the
// heap.
const stackN = 64

// New builds an alias table from non-negative weights, normalizing
// internally — weights need not sum to 1, so a δ-pruned matrix row can be
// passed as-is and the build performs the renormalization of Sec. 4.3
// implicitly. Zero-weight outcomes are representable but never drawn.
// A row with no positive mass, a negative weight, or a non-finite weight
// is an error.
func New(weights []float64) (*Alias, error) {
	a := new(Alias)
	if err := a.Build(weights); err != nil {
		return nil, err
	}
	return a, nil
}

// Build makes a the alias table of weights, as New does, reusing a's arrays
// when they are long enough. Every bucket below n is written, so what a
// held before cannot show through: the table equals New's bit for bit. The
// weights are checked before anything is written, so on an error a is as
// it was. Only a table's sole owner may rebuild it (see the package
// comment).
func (a *Alias) Build(weights []float64) error {
	n := len(weights)
	if n == 0 {
		return fmt.Errorf("sample: no weights")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("sample: bad weight %v at %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("sample: no positive mass across %d weights", n)
	}
	a.n = n
	if cap(a.prob) < n {
		a.prob, a.alias = make([]float64, n), make([]int32, n)
	}
	a.prob, a.alias = a.prob[:n], a.alias[:n]
	// Vose's stable construction: scale every weight to mean 1, then pair
	// each underfull bucket with an overfull donor. The three work vectors
	// die with the call, so up to stackN outcomes they are stack arrays.
	var scaledBuf [stackN]float64
	var smallBuf, largeBuf [stackN]int32
	scaled, small, large := scaledBuf[:], smallBuf[:0], largeBuf[:0]
	if n > stackN {
		scaled = make([]float64, n)
		small = make([]int32, 0, n)
		large = make([]int32, 0, n)
	}
	scale := float64(n) / total
	for i, w := range weights {
		scaled[i] = w * scale
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Leftovers are exactly 1 up to floating-point error; their coin always
	// lands on themselves.
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return nil
}

// NewSubset builds an alias table over the kept entries of row — the
// columns whose drop flag is false — renormalizing the surviving mass.
// It returns the table and keep, the original column index of each table
// outcome in order: a drawn outcome j names original column keep[j].
// Mirroring obf.Matrix.Prune, a row retaining less than minMass = 1e-9 of
// its probability mass is rejected as numerically unstable.
func NewSubset(row []float64, drop []bool) (*Alias, []int, error) {
	const minMass = 1e-9
	if len(drop) != len(row) {
		return nil, nil, fmt.Errorf("sample: %d drop flags for %d columns", len(drop), len(row))
	}
	keep := make([]int, 0, len(row))
	removed := 0.0
	for j, d := range drop {
		if d {
			removed += row[j]
		} else {
			keep = append(keep, j)
		}
	}
	if len(keep) == 0 {
		return nil, nil, fmt.Errorf("sample: all %d columns dropped", len(row))
	}
	if 1-removed < minMass {
		return nil, nil, fmt.Errorf("sample: row retains %.3g probability mass after pruning", 1-removed)
	}
	var weightsBuf [stackN]float64
	weights := weightsBuf[:]
	if len(keep) > stackN {
		weights = make([]float64, len(keep))
	}
	weights = weights[:len(keep)]
	for i, j := range keep {
		weights[i] = row[j]
	}
	a, err := New(weights)
	if err != nil {
		return nil, nil, err
	}
	return a, keep, nil
}

// N returns the outcome count.
func (a *Alias) N() int { return a.n }

// Draw returns one outcome index in O(1), consuming exactly one uniform
// variate from rng; it is Pick(rng.Float64()). rng is the only mutable
// state, so concurrent draws need per-goroutine (or serialized) RNGs.
func (a *Alias) Draw(rng *rand.Rand) int { return a.Pick(rng.Float64()) }

// Pick returns the outcome the uniform variate u in [0, 1) selects: the
// integer part of u*n is the bucket, the fractional part its coin.
func (a *Alias) Pick(u float64) int {
	u *= float64(a.n)
	i := int(u)
	if i >= a.n { // u == n is impossible for u in [0,1), but guard fp
		i = a.n - 1
	}
	if u-float64(i) < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// goldenGamma is 2^64 divided by the golden ratio, SplitMix64's increment.
const goldenGamma = 0x9E3779B97F4A7C15

// mix64 is SplitMix64's finaliser: a bijection of uint64 whose every
// output bit depends on every input bit.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// Uniform returns the variate at position pos of seed's stream, in [0, 1)
// on the 2^-53 grid: SplitMix64 started from the mixed seed, whose pos-th
// output is computed directly instead of by stepping. The stream is part
// of the lease protocol — a device draws at the positions its lease names
// and must land on the server's cells — so it never changes without the
// lease bundle's version.
func Uniform(seed int64, pos uint64) float64 {
	z := mix64(mix64(uint64(seed)) + (pos+1)*goldenGamma)
	return float64(z>>11) * 0x1p-53
}

// Prob returns the exact probability the table assigns to outcome j —
// the normalized weight reconstructed from the bucket thresholds. Audits
// use it to verify the table matches its source row.
func (a *Alias) Prob(j int) float64 {
	if j < 0 || j >= a.n {
		return 0
	}
	// Outcome j is drawn when bucket j's coin accepts, or any bucket's
	// coin rejects into alias == j.
	p := a.prob[j]
	for i := 0; i < a.n; i++ {
		if int(a.alias[i]) == j && i != j {
			p += 1 - a.prob[i]
		}
	}
	return p / float64(a.n)
}

// SizeBytes estimates the table's resident footprint, used by the engine
// cache's byte accounting.
func (a *Alias) SizeBytes() int64 {
	return 64 + int64(a.n)*12 // struct header + 8B prob + 4B alias per bucket
}
