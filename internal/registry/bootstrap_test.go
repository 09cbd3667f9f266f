package registry

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
)

// sfPriorsDigest is the digest of the default-spec sf region's priors at
// every level, recorded before the hex basis was cached and LeafPriors
// moved to one lookup per check-in: neither may move a single bit.
const sfPriorsDigest = "62beb90d33a47306"

// TestRegionPriorsDigest rebuilds the default-spec sf region's tree and
// priors the way a bootstrap does and digests every node's prior, level by
// level in BFS order, as float64 bits.
func TestRegionPriorsDigest(t *testing.T) {
	spec, _ := BuiltinSpec("sf")
	spec = spec.withDefaults()
	sys, err := hexgrid.NewSystem(spec.Center(), spec.LeafSpacingKm)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := loctree.NewAt(sys, spec.Center(), spec.Height)
	if err != nil {
		t.Fatal(err)
	}
	priors, err := buildPriors(spec, tree)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for level := 0; level <= tree.Height(); level++ {
		for _, n := range tree.LevelNodes(level) {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(priors.Of(tree, n))))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != sfPriorsDigest {
		t.Errorf("sf priors digest %s, want %s", got, sfPriorsDigest)
	}
}

// fanOutGoroutines counts the goroutines whose stack stands in
// flight.FanOut. A call that has just told FanOut it is done may still be
// on its way out, so the count is retaken, yielding in between, until it
// reaches zero or the tries run out.
func fanOutGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for try := 0; try < 1000; try++ {
		n = 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "corgi/internal/flight.FanOut") {
				n++
			}
		}
		if n == 0 {
			return 0
		}
		runtime.Gosched()
	}
	return n
}

// TestBootstrapAllNamesTheFailingRegion bootstraps four regions, one of
// which reads its check-ins from a file that does not exist: the error
// names that region and wraps fs.ErrNotExist, and no bootstrap is left
// running in the fan-out once BootstrapAll has returned.
func TestBootstrapAllNamesTheFailingRegion(t *testing.T) {
	specs := fastSpecs("a", "broken", "c", "d")
	specs[1].UniformPriors = false
	specs[1].CheckinsPath = filepath.Join(t.TempDir(), "missing.txt")
	r, err := New(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = r.BootstrapAll(context.Background())
	if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), `"broken"`) {
		t.Fatalf("BootstrapAll = %v, want an error naming \"broken\" that wraps fs.ErrNotExist", err)
	}
	if r.Ready("broken") {
		t.Error("the failed region is ready")
	}
	if n := fanOutGoroutines(); n != 0 {
		t.Errorf("%d goroutines still in flight.FanOut after BootstrapAll returned", n)
	}
}

// TestBootstrapAllCancelled starts BootstrapAll under a cancelled ctx: it
// returns context.Canceled, no region bootstraps, and no goroutine is left
// in the fan-out.
func TestBootstrapAllCancelled(t *testing.T) {
	r, err := New(fastSpecs("a", "b", "c", "d", "e"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.BootstrapAll(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("BootstrapAll under a cancelled ctx = %v, want context.Canceled", err)
	}
	if n := r.Bootstraps(); n != 0 {
		t.Errorf("%d regions bootstrapped under a cancelled ctx, want 0", n)
	}
	if n := fanOutGoroutines(); n != 0 {
		t.Errorf("%d goroutines still in flight.FanOut after BootstrapAll returned", n)
	}
}

// forestLayoutsPriorsDigest is the digest of the priors of the 48 region
// layouts the cold_forest benchmark draws from (region j centred 0.05*j
// degrees north of sf, seeded 100+j), recorded before the synthetic sample
// was streamed instead of stored.
const forestLayoutsPriorsDigest = "073ccd0da2995f68"

// TestRegionPriorsDigestForestLayouts digests every node's prior of each of
// the 48 cold_forest layouts, in layout order, level by level in BFS order,
// as float64 bits, into one digest.
func TestRegionPriorsDigestForestLayouts(t *testing.T) {
	h := sha256.New()
	for j := 0; j < 48; j++ {
		spec := Spec{
			Name:      fmt.Sprintf("r%02d", j),
			CenterLat: 37.765 + 0.05*float64(j), CenterLng: -122.435,
			Height: 2, Seed: int64(100 + j),
		}.withDefaults()
		sys, err := hexgrid.NewSystem(spec.Center(), spec.LeafSpacingKm)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := loctree.NewAt(sys, spec.Center(), spec.Height)
		if err != nil {
			t.Fatal(err)
		}
		priors, err := buildPriors(spec, tree)
		if err != nil {
			t.Fatal(err)
		}
		for level := 0; level <= tree.Height(); level++ {
			for _, n := range tree.LevelNodes(level) {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(priors.Of(tree, n))))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != forestLayoutsPriorsDigest {
		t.Errorf("cold_forest layouts priors digest %s, want %s", got, forestLayoutsPriorsDigest)
	}
}

// sfMetadataDigest is the digest of the default-spec sf region's policy
// metadata, recorded before the synthetic sample was streamed instead of
// stored.
const sfMetadataDigest = "060b6623e64a060e"

// TestRegionMetadataDigest builds the default-spec sf region's metadata
// through Shard.Metadata and digests HomeLeaf, OfficeLeaf, OutlierLeaf,
// PopularLeaf and CountByLeaf in sorted order: users ascending, leaves by
// their BFS index.
func TestRegionMetadataDigest(t *testing.T) {
	spec, _ := BuiltinSpec("sf")
	r, err := New([]Spec{spec}, Options{WarmupDelta: -1})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := r.Shard(context.Background(), "sf")
	if err != nil {
		t.Fatal(err)
	}
	md, err := sh.Metadata()
	if err != nil {
		t.Fatal(err)
	}
	tree := sh.Server.Tree()
	h := sha256.New()
	put := func(v int) { h.Write(binary.LittleEndian.AppendUint64(nil, uint64(int64(v)))) }
	leaf := func(n loctree.NodeID) {
		i, ok := tree.IndexOf(n)
		if !ok {
			t.Fatalf("metadata leaf %v is not in the tree", n)
		}
		put(i)
	}
	perUser := func(m map[int]loctree.NodeID) {
		put(len(m))
		for _, u := range sortedUsers(m) {
			put(u)
			leaf(m[u])
		}
	}
	leafSet := func(s map[loctree.NodeID]bool) {
		put(len(s))
		for _, n := range tree.LevelNodes(0) {
			if s[n] {
				leaf(n)
			}
		}
	}
	perUser(md.HomeLeaf)
	perUser(md.OfficeLeaf)
	put(len(md.OutlierLeaf))
	for _, u := range sortedUsers(md.OutlierLeaf) {
		put(u)
		leafSet(md.OutlierLeaf[u])
	}
	leafSet(md.PopularLeaf)
	put(len(md.CountByLeaf))
	for _, n := range tree.LevelNodes(0) {
		if c, ok := md.CountByLeaf[n]; ok {
			leaf(n)
			put(c)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != sfMetadataDigest {
		t.Errorf("sf metadata digest %s, want %s", got, sfMetadataDigest)
	}
}

// sortedUsers lists a per-user map's users in ascending order.
func sortedUsers[V any](m map[int]V) []int {
	users := make([]int, 0, len(m))
	for u := range m {
		users = append(users, u)
	}
	sort.Ints(users)
	return users
}
