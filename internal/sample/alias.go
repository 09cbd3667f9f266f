// Package sample implements Walker/Vose alias tables: O(1) draws from a
// discrete distribution after an O(n) build. The report-serving hot path
// draws one obfuscated location per request from a matrix row; the linear
// inverse-CDF scan of obf.Matrix.SampleRow costs O(n) per draw, which at
// the paper's height-3 setup (343-leaf subtrees) and beyond (n >= 1024)
// dominates report latency. An alias table pays the scan once and then
// draws in constant time.
//
// A table New returns is immutable, so any number of goroutines may Draw
// from one table concurrently — each with its own *rand.Rand, which is NOT
// safe for concurrent use (callers serialize or shard their RNGs; see also
// the note in internal/obf). Build rewrites a table in place, for an owner
// that holds the table alone and wants its arrays back for another row (a
// device lease rebuilding its tables at renewal); a table anyone else can
// reach, and every table New returned, is never rebuilt.
//
// A draw consumes exactly one uniform variate (the one-uniform trick: the
// integer part of u*n picks the bucket, the fractional part flips the
// biased coin), the same RNG consumption as one inverse-CDF scan. Code
// that switches between the two samplers therefore keeps its RNG stream
// alignment, though the drawn values differ for the same stream.
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
// variate from rng. The table itself is read-only; rng is the only mutable
// state, so concurrent draws need per-goroutine (or serialized) RNGs.
func (a *Alias) Draw(rng *rand.Rand) int {
	u := rng.Float64() * float64(a.n)
	i := int(u)
	if i >= a.n { // u == n is impossible for Float64 in [0,1), but guard fp
		i = a.n - 1
	}
	if u-float64(i) < a.prob[i] {
		return i
	}
	return int(a.alias[i])
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
