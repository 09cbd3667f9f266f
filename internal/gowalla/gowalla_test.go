package gowalla

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/policy"
)

func testTree(t *testing.T) *loctree.Tree {
	t.Helper()
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := loctree.NewAt(sys, geo.SanFrancisco.Center(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Generate(GenConfig{Seed: 1, NumUsers: 60, NumPlaces: 300, NumCheckIns: 4000})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestLoadRoundTrip(t *testing.T) {
	in := strings.Join([]string{
		"0\t2010-10-19T23:55:27Z\t37.774900\t-122.419400\t12",
		"",
		"# comment",
		"7\t2009-02-01T08:00:00Z\t37.800000\t-122.400000\t99",
	}, "\n")
	cs, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("got %d check-ins", len(cs))
	}
	if cs[0].UserID != 0 || cs[0].PlaceID != 12 || cs[0].Loc.Lat != 37.7749 {
		t.Errorf("first record wrong: %+v", cs[0])
	}
	if cs[1].Time.Hour() != 8 {
		t.Errorf("time parsed wrong: %v", cs[1].Time)
	}
	var buf bytes.Buffer
	if err := Save(&buf, cs); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].PlaceID != 99 {
		t.Errorf("save/load roundtrip lost data: %+v", back)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		"1\t2010-01-01T00:00:00Z\t37.0",                         // too few fields
		"x\t2010-01-01T00:00:00Z\t37.0\t-122.0\t1",              // bad user
		"1\tnot-a-time\t37.0\t-122.0\t1",                        // bad time
		"1\t2010-01-01T00:00:00Z\tabc\t-122.0\t1",               // bad lat
		"1\t2010-01-01T00:00:00Z\t37.0\tabc\t1",                 // bad lng
		"1\t2010-01-01T00:00:00Z\t37.0\t-122.0\tzz",             // bad place
		"1\t2010-01-01T00:00:00Z\t95.0\t-122.0\t1",              // invalid point
		"1\t2010-01-01T00:00:00Z\t37.0\t-122.0\t1\textra\tmore", // too many
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("line %q should fail", c)
		}
	}
}

func TestFilterBBox(t *testing.T) {
	cs := []CheckIn{
		{Loc: geo.LatLng{Lat: 37.77, Lng: -122.42}},
		{Loc: geo.LatLng{Lat: 40.0, Lng: -74.0}},
	}
	got := FilterBBox(cs, geo.SanFrancisco)
	if len(got) != 1 {
		t.Fatalf("filtered %d, want 1", len(got))
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{NumUsers: 100, NumPlaces: 5, NumCheckIns: 1000}); err == nil {
		t.Error("too few places must fail")
	}
	if _, err := Generate(GenConfig{NumUsers: 100, NumPlaces: 100, NumCheckIns: 10}); err == nil {
		t.Error("fewer check-ins than users must fail")
	}
	if _, err := Generate(GenConfig{Start: time.Unix(100, 0), End: time.Unix(50, 0),
		NumUsers: 10, NumPlaces: 100, NumCheckIns: 100}); err == nil {
		t.Error("inverted time range must fail")
	}
}

func TestGenerateShape(t *testing.T) {
	ds := smallDataset(t)
	if len(ds.CheckIns) != 4000 {
		t.Fatalf("generated %d check-ins, want 4000", len(ds.CheckIns))
	}
	if len(ds.Places) != 300 {
		t.Fatalf("generated %d places", len(ds.Places))
	}
	users := map[int]bool{}
	for _, c := range ds.CheckIns {
		if !geo.SanFrancisco.Contains(c.Loc) {
			// Jitter can push a point slightly out of the box; tolerate a
			// small margin.
			margin := geo.BoundingBox{
				MinLat: geo.SanFrancisco.MinLat - 0.01, MinLng: geo.SanFrancisco.MinLng - 0.01,
				MaxLat: geo.SanFrancisco.MaxLat + 0.01, MaxLng: geo.SanFrancisco.MaxLng + 0.01,
			}
			if !margin.Contains(c.Loc) {
				t.Fatalf("check-in far outside region: %v", c.Loc)
			}
		}
		users[c.UserID] = true
		if c.Time.Year() < 2009 || c.Time.Year() > 2010 {
			t.Fatalf("check-in outside era: %v", c.Time)
		}
	}
	if len(users) < 50 {
		t.Errorf("only %d users active", len(users))
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(GenConfig{Seed: 42, NumUsers: 20, NumPlaces: 100, NumCheckIns: 500})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenConfig{Seed: 42, NumUsers: 20, NumPlaces: 100, NumCheckIns: 500})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.CheckIns {
		if a.CheckIns[i] != b.CheckIns[i] {
			t.Fatalf("check-in %d differs across runs with same seed", i)
		}
	}
	c, err := Generate(GenConfig{Seed: 43, NumUsers: 20, NumPlaces: 100, NumCheckIns: 500})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.CheckIns {
		if a.CheckIns[i] != c.CheckIns[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGeneratePopularitySkew(t *testing.T) {
	ds := smallDataset(t)
	counts := map[int]int{}
	for _, c := range ds.CheckIns {
		counts[c.PlaceID]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	mean := float64(len(ds.CheckIns)) / float64(len(counts))
	if float64(max) < 3*mean {
		t.Errorf("popularity not skewed: max %d vs mean %.1f", max, mean)
	}
}

func TestLeafPriors(t *testing.T) {
	tree := testTree(t)
	ds := smallDataset(t)
	priors := LeafPriors(ds.CheckIns, tree)
	if len(priors) != tree.NumLeaves() {
		t.Fatalf("got %d priors", len(priors))
	}
	total := 0.0
	for _, v := range priors {
		if v < 1 {
			t.Fatalf("smoothed prior below smoothing constant: %v", v)
		}
		total += v
	}
	if total <= float64(tree.NumLeaves()) {
		t.Error("no check-ins landed in the tree")
	}
}

func TestSplitTrainTest(t *testing.T) {
	ds := smallDataset(t)
	train, test, err := SplitTrainTest(ds.CheckIns, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(train)+len(test) != len(ds.CheckIns) {
		t.Fatalf("split lost records: %d + %d != %d", len(train), len(test), len(ds.CheckIns))
	}
	if math.Abs(float64(len(train))-0.9*float64(len(ds.CheckIns))) > 1 {
		t.Errorf("train size %d not ~90%%", len(train))
	}
	if _, _, err := SplitTrainTest(ds.CheckIns, 1.5, 7); err == nil {
		t.Error("bad fraction must fail")
	}
	// Determinism.
	train2, _, _ := SplitTrainTest(ds.CheckIns, 0.9, 7)
	for i := range train {
		if train[i] != train2[i] {
			t.Fatal("split not deterministic")
		}
	}
}

func TestBuildMetadata(t *testing.T) {
	tree := testTree(t)
	ds := smallDataset(t)
	md := BuildMetadata(ds.CheckIns, tree)
	if len(md.HomeLeaf) == 0 || len(md.OfficeLeaf) == 0 {
		t.Fatal("no home/office inferred")
	}
	if len(md.PopularLeaf) == 0 {
		t.Fatal("no popular cells")
	}
	// Popular fraction roughly respected.
	visited := len(md.CountByLeaf)
	if got := len(md.PopularLeaf); got > visited/2 {
		t.Errorf("too many popular cells: %d of %d visited", got, visited)
	}
	// Home cells are in-tree.
	for u, leaf := range md.HomeLeaf {
		if !tree.Contains(leaf) {
			t.Fatalf("user %d home %v not in tree", u, leaf)
		}
	}
}

func TestMetadataDeterminism(t *testing.T) {
	tree := testTree(t)
	ds := smallDataset(t)
	md1 := BuildMetadata(ds.CheckIns, tree)
	md2 := BuildMetadata(ds.CheckIns, tree)
	for u, h := range md1.HomeLeaf {
		if md2.HomeLeaf[u] != h {
			t.Fatalf("home for user %d differs across builds", u)
		}
	}
	for leaf := range md1.PopularLeaf {
		if !md2.PopularLeaf[leaf] {
			t.Fatal("popular set differs across builds")
		}
	}
}

func TestAnnotate(t *testing.T) {
	tree := testTree(t)
	ds := smallDataset(t)
	md := BuildMetadata(ds.CheckIns, tree)
	// Pick a user that has a home.
	var user int = -1
	for u := range md.HomeLeaf {
		user = u
		break
	}
	if user == -1 {
		t.Fatal("no user with home")
	}
	ref := geo.SanFrancisco.Center()
	attrs := md.Annotate(user, ref)
	if len(attrs) != tree.NumLeaves() {
		t.Fatalf("annotated %d leaves", len(attrs))
	}
	homeCount := 0
	for leaf, a := range attrs {
		for _, key := range []string{"home", "office", "outlier", "popular", "checkins", "distance"} {
			if _, ok := a[key]; !ok {
				t.Fatalf("leaf %v missing attribute %q", leaf, key)
			}
		}
		if a["home"].B {
			homeCount++
			if leaf != md.HomeLeaf[user] {
				t.Fatal("home flag on wrong leaf")
			}
		}
		if a["distance"].F < 0 {
			t.Fatal("negative distance")
		}
	}
	if homeCount != 1 {
		t.Fatalf("home flagged on %d leaves", homeCount)
	}
	// Attributes satisfy a real policy evaluation.
	pred, _ := policy.ParsePredicate("home != true")
	pol := policy.Policy{PrivacyLevel: 2, PrecisionLevel: 0, Preferences: []policy.Predicate{pred}}
	pruned := 0
	for _, a := range attrs {
		ok, err := pol.Allowed(a)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			pruned++
		}
	}
	if pruned != 1 {
		t.Errorf("home-exclusion policy pruned %d leaves, want 1", pruned)
	}
}

// TestGenerateTimestampsWithinRange pins the weekend-skip bugfix: a range
// whose last days are a weekend used to let office check-ins skip past
// cfg.End. Every generated timestamp must lie in [Start, End).
func TestGenerateTimestampsWithinRange(t *testing.T) {
	// Friday through Sunday noon: any office draw landing on the weekend
	// would previously skip forward to Monday, outside the range.
	start := time.Date(2009, 2, 6, 0, 0, 0, 0, time.UTC) // Friday
	end := time.Date(2009, 2, 8, 12, 0, 0, 0, time.UTC)  // Sunday noon
	for seed := int64(1); seed <= 5; seed++ {
		ds, err := Generate(GenConfig{
			Seed: seed, NumUsers: 20, NumPlaces: 40, NumCheckIns: 500,
			Start: start, End: end,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range ds.CheckIns {
			if c.Time.Before(start) || !c.Time.Before(end) {
				t.Fatalf("seed %d: check-in %d at %v outside [%v, %v)", seed, i, c.Time, start, end)
			}
		}
	}
	// The default paper-scale range must hold the invariant too.
	cfg := GenConfig{Seed: 3}.withDefaults()
	ds, err := Generate(GenConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range ds.CheckIns {
		if c.Time.Before(cfg.Start) || !c.Time.Before(cfg.End) {
			t.Fatalf("default range: check-in %d at %v outside [%v, %v)", i, c.Time, cfg.Start, cfg.End)
		}
	}
}

func TestTrajectories(t *testing.T) {
	ds, err := Generate(GenConfig{Seed: 11, NumUsers: 25, NumPlaces: 50, NumCheckIns: 600})
	if err != nil {
		t.Fatal(err)
	}
	trajs := Trajectories(ds.CheckIns)
	if len(trajs) == 0 {
		t.Fatal("no trajectories")
	}
	total := 0
	for i, tr := range trajs {
		if i > 0 && trajs[i-1].UserID >= tr.UserID {
			t.Fatalf("users out of order: %d then %d", trajs[i-1].UserID, tr.UserID)
		}
		if len(tr.Points) == 0 {
			t.Fatalf("user %d has an empty trajectory", tr.UserID)
		}
		for j, p := range tr.Points {
			if p.UserID != tr.UserID {
				t.Fatalf("user %d trajectory holds user %d's point", tr.UserID, p.UserID)
			}
			if j > 0 && tr.Points[j-1].Time.After(p.Time) {
				t.Fatalf("user %d points out of time order at %d", tr.UserID, j)
			}
		}
		total += len(tr.Points)
	}
	if total != len(ds.CheckIns) {
		t.Fatalf("trajectories hold %d points, corpus has %d", total, len(ds.CheckIns))
	}
	// Deterministic for a fixed corpus.
	again := Trajectories(ds.CheckIns)
	for i := range trajs {
		if trajs[i].UserID != again[i].UserID || len(trajs[i].Points) != len(again[i].Points) {
			t.Fatal("trajectory extraction not deterministic")
		}
		for j := range trajs[i].Points {
			if trajs[i].Points[j] != again[i].Points[j] {
				t.Fatal("trajectory extraction not deterministic")
			}
		}
	}
}

// referenceGenerate is the generator written over time.Time arithmetic
// into a stored slice: the oracle Each and Generate are held to, bit for
// bit.
func referenceGenerate(cfg GenConfig) (*Dataset, error) {
	cfg = cfg.withDefaults()
	if cfg.NumUsers < 1 || cfg.NumPlaces < 10 || cfg.NumCheckIns < cfg.NumUsers {
		return nil, fmt.Errorf("gowalla: degenerate config %+v", cfg)
	}
	if !cfg.End.After(cfg.Start) {
		return nil, fmt.Errorf("gowalla: empty time range")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Venue clusters ("neighborhoods") inside the box.
	type cluster struct {
		center geo.LatLng
		spread float64
	}
	clusters := make([]cluster, numClusters)
	for i := range clusters {
		clusters[i] = cluster{
			center: geo.LatLng{
				Lat: cfg.BBox.MinLat + rng.Float64()*(cfg.BBox.MaxLat-cfg.BBox.MinLat),
				Lng: cfg.BBox.MinLng + rng.Float64()*(cfg.BBox.MaxLng-cfg.BBox.MinLng),
			},
			spread: 0.002 + rng.Float64()*0.008, // ~0.2..1.1 km
		}
	}
	places := make([]Place, cfg.NumPlaces)
	for i := range places {
		cl := clusters[rng.Intn(len(clusters))]
		for {
			p := geo.LatLng{
				Lat: cl.center.Lat + rng.NormFloat64()*cl.spread,
				Lng: cl.center.Lng + rng.NormFloat64()*cl.spread,
			}
			if cfg.BBox.Contains(p) {
				places[i] = Place{ID: i, Loc: p}
				break
			}
		}
	}
	// Zipf popularity over places (s ~ 1.05).
	zipf := rand.NewZipf(rng, 1.05, 1, uint64(cfg.NumPlaces-1))
	popPick := func() int { return int(zipf.Uint64()) }

	users := make([]userProfile, cfg.NumUsers)
	totalW := 0.0
	for u := range users {
		home := rng.Intn(cfg.NumPlaces)
		office := rng.Intn(cfg.NumPlaces)
		for office == home {
			office = rng.Intn(cfg.NumPlaces)
		}
		nf := 3 + rng.Intn(6)
		favs := make([]int, nf)
		for i := range favs {
			favs[i] = popPick()
		}
		w := math.Exp(rng.NormFloat64()) // lognormal activity
		users[u] = userProfile{home: home, office: office, favorites: favs, weight: w}
		totalW += w
	}

	span := cfg.End.Sub(cfg.Start)
	ds := &Dataset{Places: places, CheckIns: make([]CheckIn, 0, cfg.NumCheckIns)}
	jitter := func(p geo.LatLng) geo.LatLng {
		return geo.LatLng{
			Lat: p.Lat + rng.NormFloat64()*0.0003,
			Lng: p.Lng + rng.NormFloat64()*0.0003,
		}
	}
	// Apportion check-ins to users proportionally to weight (at least 1).
	for u := range users {
		share := int(float64(cfg.NumCheckIns) * users[u].weight / totalW)
		if share < 1 {
			share = 1
		}
		for k := 0; k < share && len(ds.CheckIns) < cfg.NumCheckIns; k++ {
			var place int
			var hour int
			day := cfg.Start.Add(time.Duration(rng.Int63n(int64(span))))
			day = day.Truncate(24 * time.Hour)
			switch r := rng.Float64(); {
			case r < 0.35: // home: evenings and nights
				place = users[u].home
				hour = (19 + rng.Intn(11)) % 24
			case r < 0.60: // office: weekday working hours
				place = users[u].office
				hour = 9 + rng.Intn(9)
				// Skipping a weekend forward can overrun cfg.End (a Saturday
				// draw on the range's last weekend lands 2 days past it);
				// re-draw the day until a weekday's working hours fit, giving
				// up after a bounded number of tries (degenerate weekend-only
				// ranges), where the final range clamp below still holds the
				// in-range invariant.
				for tries := 0; ; tries++ {
					for day.Weekday() == time.Saturday || day.Weekday() == time.Sunday {
						day = day.Add(24 * time.Hour)
					}
					slotEnd := day.Add(time.Duration(hour)*time.Hour + time.Hour)
					if !slotEnd.After(cfg.End) || tries >= 64 {
						break
					}
					day = cfg.Start.Add(time.Duration(rng.Int63n(int64(span)))).Truncate(24 * time.Hour)
				}
			case r < 0.85: // favorites: daytime/evening
				place = users[u].favorites[rng.Intn(len(users[u].favorites))]
				hour = 10 + rng.Intn(12)
			case r < 0.98: // popular wander
				place = popPick()
				hour = 8 + rng.Intn(14)
			default: // outlier: rare, odd hours
				place = rng.Intn(cfg.NumPlaces)
				hour = rng.Intn(5)
			}
			ts := day.Add(time.Duration(hour)*time.Hour +
				time.Duration(rng.Intn(3600))*time.Second)
			ts = clampTime(ts, cfg.Start, cfg.End)
			ds.CheckIns = append(ds.CheckIns, CheckIn{
				UserID:  u,
				Time:    ts,
				Loc:     jitter(places[place].Loc),
				PlaceID: place,
			})
		}
	}
	// Top up to the exact requested count with popular wanders.
	for len(ds.CheckIns) < cfg.NumCheckIns {
		u := rng.Intn(cfg.NumUsers)
		place := popPick()
		ts := cfg.Start.Add(time.Duration(rng.Int63n(int64(span))))
		ds.CheckIns = append(ds.CheckIns, CheckIn{
			UserID: u, Time: ts, Loc: jitter(places[place].Loc), PlaceID: place,
		})
	}
	return ds, nil
}

// clampTime forces ts into [start, end): every generated check-in must lie
// inside the configured range, whatever day arithmetic (truncation against
// a non-midnight start, weekend skips near the range edge) produced it.
func clampTime(ts, start, end time.Time) time.Time {
	if ts.Before(start) {
		return start
	}
	if !ts.Before(end) {
		return end.Add(-time.Second)
	}
	return ts
}

// oracleConfigs are the configs Each is held to the reference over: the
// default SF sample, a registry region's box, a 600-check-in sample that
// the per-user pass fills before its last user, one small enough that the
// top-up loop runs, a range whose last weekend overruns End (the office
// re-draw), one ending at 17:00 on a Friday (a working-hours slot that
// ends exactly at End is kept), one starting mid-day on a Friday (the clamp to Start), one
// before the Unix epoch (negative nanoseconds) and one longer than a
// time.Duration reaches (a saturated span).
func oracleConfigs(t *testing.T) map[string]GenConfig {
	day := func(y int, m time.Month, d, h int) time.Time { return time.Date(y, m, d, h, 0, 0, 0, time.UTC) }
	return map[string]GenConfig{
		"default": {},
		"region":  {BBox: regionBBox(t)},
		"cut":     {NumCheckIns: 600},
		"topup":   {NumUsers: 20, NumPlaces: 50, NumCheckIns: 600},
		"overrun": {NumUsers: 20, NumPlaces: 40, NumCheckIns: 2000, Start: day(2009, 2, 2, 0), End: day(2009, 2, 15, 12)},
		"slotend": {NumUsers: 20, NumPlaces: 40, NumCheckIns: 2000, Start: day(2009, 2, 2, 0), End: day(2009, 2, 13, 17)},
		"midday":  {NumUsers: 20, NumPlaces: 40, NumCheckIns: 1000, Start: day(2009, 2, 6, 13), End: day(2009, 2, 8, 12)},
		"pre1970": {NumUsers: 50, NumPlaces: 100, NumCheckIns: 3000, Start: day(1951, 3, 4, 5), End: day(1953, 1, 1, 0)},
		"long":    {NumUsers: 50, NumPlaces: 100, NumCheckIns: 3000, Start: day(1700, 1, 1, 0), End: day(2250, 1, 1, 0)},
	}
}

// regionTree is the default sf registry region's tree: height 2 over
// 0.1 km leaves.
func regionTree(t *testing.T) *loctree.Tree {
	t.Helper()
	center := geo.LatLng{Lat: 37.765, Lng: -122.435}
	sys, err := hexgrid.NewSystem(center, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := loctree.NewAt(sys, center, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// regionBBox is the box a registry region's synthetic sample is laid over:
// regionTree's leaf centers, padded by one 0.1 km leaf spacing.
func regionBBox(t *testing.T) geo.BoundingBox {
	tree := regionTree(t)
	pad := 0.1 / 111.0
	b := geo.BoundingBox{MinLat: 90, MinLng: 180, MaxLat: -90, MaxLng: -180}
	for _, leaf := range tree.LevelNodes(0) {
		c := tree.Center(leaf)
		b.MinLat, b.MaxLat = math.Min(b.MinLat, c.Lat), math.Max(b.MaxLat, c.Lat)
		b.MinLng, b.MaxLng = math.Min(b.MinLng, c.Lng), math.Max(b.MaxLng, c.Lng)
	}
	return geo.BoundingBox{MinLat: b.MinLat - pad, MinLng: b.MinLng - pad, MaxLat: b.MaxLat + pad, MaxLng: b.MaxLng + pad}
}

// sameCheckIn reports the first field in which got differs from want,
// comparing coordinates as float64 bits.
func sameCheckIn(got, want CheckIn) string {
	switch {
	case got.UserID != want.UserID:
		return fmt.Sprintf("user %d, want %d", got.UserID, want.UserID)
	case !got.Time.Equal(want.Time) || got.Time.Location() != want.Time.Location():
		return fmt.Sprintf("time %v, want %v", got.Time, want.Time)
	case math.Float64bits(got.Loc.Lat) != math.Float64bits(want.Loc.Lat) ||
		math.Float64bits(got.Loc.Lng) != math.Float64bits(want.Loc.Lng):
		return fmt.Sprintf("location %v, want %v", got.Loc, want.Loc)
	case got.PlaceID != want.PlaceID:
		return fmt.Sprintf("place %d, want %d", got.PlaceID, want.PlaceID)
	}
	return ""
}

// TestEachMatchesReference holds Each and Generate to the reference
// generator, bit for bit, over seeds 1-8 of every oracle config: the same
// check-ins in the same order and the same venue table.
func TestEachMatchesReference(t *testing.T) {
	for name, cfg := range oracleConfigs(t) {
		for seed := int64(1); seed <= 8; seed++ {
			cfg.Seed = seed
			want, err := referenceGenerate(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: reference: %v", name, seed, err)
			}
			var streamed []CheckIn
			if err := Each(cfg, func(c CheckIn) { streamed = append(streamed, c) }); err != nil {
				t.Fatalf("%s seed %d: Each: %v", name, seed, err)
			}
			got, err := Generate(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: Generate: %v", name, seed, err)
			}
			for src, cs := range map[string][]CheckIn{"Each": streamed, "Generate": got.CheckIns} {
				if len(cs) != len(want.CheckIns) {
					t.Fatalf("%s seed %d: %s gave %d check-ins, want %d", name, seed, src, len(cs), len(want.CheckIns))
				}
				for i := range cs {
					if d := sameCheckIn(cs[i], want.CheckIns[i]); d != "" {
						t.Fatalf("%s seed %d: %s check-in %d: %s", name, seed, src, i, d)
					}
				}
			}
			if len(got.Places) != len(want.Places) {
				t.Fatalf("%s seed %d: %d places, want %d", name, seed, len(got.Places), len(want.Places))
			}
			for i, p := range got.Places {
				w := want.Places[i]
				if p.ID != w.ID || math.Float64bits(p.Loc.Lat) != math.Float64bits(w.Loc.Lat) ||
					math.Float64bits(p.Loc.Lng) != math.Float64bits(w.Loc.Lng) {
					t.Fatalf("%s seed %d: place %d is %+v, want %+v", name, seed, i, p, w)
				}
			}
		}
	}
}

// TestOracleConfigsReachEveryBranch checks that the oracle configs run the
// loops they are there for. The per-user pass emits users in ascending id
// order, so a user id below its predecessor's is the top-up loop's. An
// office draw on the overrun config's last weekend skips to the Monday
// after End and is re-drawn; day draws are uniform over the range, so
// the many check-ins of other kinds that land on that weekend show office
// draws land there too.
func TestOracleConfigsReachEveryBranch(t *testing.T) {
	cfgs := oracleConfigs(t)
	descents := func(cfg GenConfig) int {
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for i := 1; i < len(ds.CheckIns); i++ {
			if ds.CheckIns[i].UserID < ds.CheckIns[i-1].UserID {
				n++
			}
		}
		return n
	}
	if n := descents(cfgs["topup"]); n == 0 {
		t.Error("the topup config never reaches the top-up loop")
	}
	if n := descents(cfgs["cut"]); n != 0 {
		t.Errorf("the cut config reaches the top-up loop %d times, want its per-user pass cut short", n)
	}
	cfg := cfgs["overrun"]
	saturday := floorDay(cfg.End.UnixNano()) - dayNs
	lastWeekend := 0
	if err := Each(cfg, func(c CheckIn) {
		if c.Time.UnixNano() >= saturday {
			lastWeekend++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if lastWeekend < 50 {
		t.Errorf("the overrun config puts %d check-ins on its last weekend, want at least 50", lastWeekend)
	}
}

// TestEachRejectsRangesOutsideUnixNano: a Start before 1678 or an End after
// 2262 (less a week's margin) is refused with an error by Each and
// Generate alike, and Each calls fn for nothing.
func TestEachRejectsRangesOutsideUnixNano(t *testing.T) {
	for _, cfg := range []GenConfig{
		{Start: time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC)},
		{End: time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)},
		{Start: time.Date(1677, 1, 1, 0, 0, 0, 0, time.UTC), End: time.Date(2263, 1, 1, 0, 0, 0, 0, time.UTC)},
	} {
		calls := 0
		if err := Each(cfg, func(CheckIn) { calls++ }); err == nil || calls != 0 {
			t.Errorf("Each(%v..%v) = %v after %d check-ins, want an error and none", cfg.Start, cfg.End, err, calls)
		}
		if _, err := Generate(cfg); err == nil {
			t.Errorf("Generate(%v..%v) succeeded, want an error", cfg.Start, cfg.End)
		}
	}
}

// referenceBuildMetadata is BuildMetadata written over one map per count
// and a comparator that looks each leaf's index up: the oracle
// MetadataBuilder is held to. It derives the policy heuristics from a
// check-in corpus:
//
//   - home(u): the leaf cell with the most night check-ins of user u,
//   - office(u): the leaf with the most weekday working-hour check-ins,
//   - outlier(u): leaves u visited at most once, at odd hours,
//   - popular: the top popularFrac of visited leaves by count.
func referenceBuildMetadata(cs []CheckIn, t *loctree.Tree) *Metadata {
	md := &Metadata{
		tree:        t,
		HomeLeaf:    map[int]loctree.NodeID{},
		OfficeLeaf:  map[int]loctree.NodeID{},
		OutlierLeaf: map[int]map[loctree.NodeID]bool{},
		PopularLeaf: map[loctree.NodeID]bool{},
		CountByLeaf: map[loctree.NodeID]int{},
	}
	type cellKey struct {
		user int
		leaf loctree.NodeID
	}
	nightCount := map[cellKey]int{}
	workCount := map[cellKey]int{}
	visitCount := map[cellKey]int{}
	oddCount := map[cellKey]int{}
	for _, c := range cs {
		leaf, ok := t.Locate(c.Loc, 0)
		if !ok {
			continue
		}
		md.CountByLeaf[leaf]++
		k := cellKey{user: c.UserID, leaf: leaf}
		visitCount[k]++
		if isNight(c.Time.Hour()) {
			nightCount[k]++
		}
		if isWork(c.Time) {
			workCount[k]++
		}
		if isOdd(c.Time.Hour()) {
			oddCount[k]++
		}
	}
	argmaxPerUser := func(counts map[cellKey]int) map[int]loctree.NodeID {
		best := map[int]loctree.NodeID{}
		bestN := map[int]int{}
		// Deterministic iteration: sort keys.
		keys := make([]cellKey, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			ka, kb := keys[a], keys[b]
			if ka.user != kb.user {
				return ka.user < kb.user
			}
			ia, _ := t.IndexOf(ka.leaf)
			ib, _ := t.IndexOf(kb.leaf)
			return ia < ib
		})
		for _, k := range keys {
			if counts[k] > bestN[k.user] {
				bestN[k.user] = counts[k]
				best[k.user] = k.leaf
			}
		}
		return best
	}
	md.HomeLeaf = argmaxPerUser(nightCount)
	md.OfficeLeaf = argmaxPerUser(workCount)
	for k, n := range visitCount {
		if n <= 1 && oddCount[k] > 0 {
			if md.OutlierLeaf[k.user] == nil {
				md.OutlierLeaf[k.user] = map[loctree.NodeID]bool{}
			}
			md.OutlierLeaf[k.user][k.leaf] = true
		}
	}
	// Popular: top fraction of visited leaves by check-in count.
	type leafCount struct {
		leaf loctree.NodeID
		n    int
	}
	var lcs []leafCount
	for leaf, n := range md.CountByLeaf {
		lcs = append(lcs, leafCount{leaf, n})
	}
	sort.Slice(lcs, func(a, b int) bool {
		if lcs[a].n != lcs[b].n {
			return lcs[a].n > lcs[b].n
		}
		ia, _ := t.IndexOf(lcs[a].leaf)
		ib, _ := t.IndexOf(lcs[b].leaf)
		return ia < ib
	})
	top := int(math.Ceil(popularFrac * float64(len(lcs))))
	for i := 0; i < top && i < len(lcs); i++ {
		md.PopularLeaf[lcs[i].leaf] = true
	}
	return md
}

// TestBuildMetadataMatchesReference holds BuildMetadata to the reference
// over seeds 1-8 of a few oracle configs, on the SF test tree and on a
// registry-sized region tree: every map equal.
func TestBuildMetadataMatchesReference(t *testing.T) {
	cfgs := oracleConfigs(t)
	trees := []*loctree.Tree{testTree(t), regionTree(t)}
	for _, name := range []string{"default", "region", "topup", "overrun"} {
		for seed := int64(1); seed <= 8; seed++ {
			cfg := cfgs[name]
			cfg.Seed = seed
			ds, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, tree := range trees {
				got := BuildMetadata(ds.CheckIns, tree)
				want := referenceBuildMetadata(ds.CheckIns, tree)
				for field, pair := range map[string][2]any{
					"HomeLeaf":    {got.HomeLeaf, want.HomeLeaf},
					"OfficeLeaf":  {got.OfficeLeaf, want.OfficeLeaf},
					"OutlierLeaf": {got.OutlierLeaf, want.OutlierLeaf},
					"PopularLeaf": {got.PopularLeaf, want.PopularLeaf},
					"CountByLeaf": {got.CountByLeaf, want.CountByLeaf},
				} {
					if !reflect.DeepEqual(pair[0], pair[1]) {
						t.Fatalf("%s seed %d, %d-leaf tree: %s differs from the reference", name, seed, tree.NumLeaves(), field)
					}
				}
			}
		}
	}
}
