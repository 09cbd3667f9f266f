package sample

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// tableDigest hashes a table's exact contents: every prob bit pattern, every
// alias, then the keep list of a subset build.
func tableDigest(a *Alias, keep []int) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range a.prob {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
		h.Write(b[:])
	}
	for _, l := range a.alias {
		binary.LittleEndian.PutUint32(b[:4], uint32(l))
		h.Write(b[:4])
	}
	for _, k := range keep {
		binary.LittleEndian.PutUint64(b[:], uint64(k))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// goldenRow is a seeded row-stochastic weight row with exact zeros in it.
func goldenRow(n int) []float64 {
	rng := rand.New(rand.NewSource(int64(n)))
	row := make([]float64, n)
	total := 0.0
	for i := range row {
		if i%7 == 4 {
			continue
		}
		row[i] = rng.Float64()
		total += row[i]
	}
	for i := range row {
		row[i] /= total
	}
	return row
}

// TestAliasTablesUnchanged pins New and NewSubset against digests recorded
// at the commit before the build's scratch vectors moved to stack arrays
// (n <= stackN) — on both sides of that threshold the tables must stay
// bit-identical, or every seeded draw in the repo shifts. Build over a
// table that held another row, longer or shorter, must land on New's
// digest too: nothing of the old row may survive an in-place rebuild.
func TestAliasTablesUnchanged(t *testing.T) {
	golden := []struct {
		n              int
		full, subsetOf string
	}{
		{1, "3d61ebb3d72a9499", "1e67123c70ea0359"},
		{7, "9159462dc615cf4e", "c8f9dec8d0e935c7"},
		{49, "0ca137d3a8c7fc09", "44a5e15c7ca56575"},
		{64, "e815ad5061a553a3", "8e2572828d7dfb6a"},
		{65, "3c7b18f3b6423573", "9349b1cf6d38764c"},
		{343, "45a396e29e59c705", "5411a6ddabe899a5"},
	}
	for _, g := range golden {
		row := goldenRow(g.n)
		a, err := New(row)
		if err != nil {
			t.Fatalf("n=%d: %v", g.n, err)
		}
		if got := tableDigest(a, nil); got != g.full {
			t.Errorf("New n=%d: table digest %s, recorded %s", g.n, got, g.full)
		}
		for _, held := range []int{343, 7} {
			var reused Alias
			if err := reused.Build(goldenRow(held)); err != nil {
				t.Fatal(err)
			}
			if err := reused.Build(row); err != nil {
				t.Fatalf("Build n=%d over n=%d: %v", g.n, held, err)
			}
			if got := tableDigest(&reused, nil); got != g.full {
				t.Errorf("Build n=%d over a table of n=%d: table digest %s, recorded %s", g.n, held, got, g.full)
			}
		}
		drop := make([]bool, g.n)
		for j := range drop {
			drop[j] = g.n > 1 && j%5 == 2
		}
		s, keep, err := NewSubset(row, drop)
		if err != nil {
			t.Fatalf("subset n=%d: %v", g.n, err)
		}
		if got := tableDigest(s, keep); got != g.subsetOf {
			t.Errorf("NewSubset n=%d: table digest %s, recorded %s", g.n, got, g.subsetOf)
		}
	}
}
