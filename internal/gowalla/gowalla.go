// Package gowalla provides the check-in dataset substrate of Sec. 6.1. The
// paper samples 38,523 Gowalla check-ins from San Francisco; that file is
// not redistributable, so this package offers both
//
//   - Load/LoadFile: a parser for the real Gowalla check-in format
//     (user <TAB> ISO-time <TAB> lat <TAB> lng <TAB> location-id), so the
//     genuine dataset can be dropped in, and
//   - Each: a synthetic generator that reproduces the statistical
//     features the paper actually consumes: a dense SF check-in sample with
//     Zipf place popularity and per-user routines (home, office, favorite
//     places, rare odd-hour outliers). It streams the sample to a callback
//     and stores none of it; Generate collects the same stream into a
//     slice. Generated times are UTC.
//
// On top of either source it computes leaf priors for a location tree (by
// check-in counts, Laplace-smoothed — Sec. 6.1 "Priors") and the policy
// metadata heuristics the paper describes (home, office, outlier, popular).
// PriorCounter and MetadataBuilder take one check-in at a time, so a
// streamed sample is counted without being held; LeafPriors and
// BuildMetadata are the same over a slice.
package gowalla

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"corgi/internal/geo"
	"corgi/internal/loctree"
	"corgi/internal/policy"
)

// CheckIn is one Gowalla check-in record.
type CheckIn struct {
	UserID  int
	Time    time.Time
	Loc     geo.LatLng
	PlaceID int
}

// Load parses check-ins in the Gowalla edge-list format. Malformed lines
// abort with an error identifying the line number.
func Load(r io.Reader) ([]CheckIn, error) {
	var out []CheckIn
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 5 {
			return nil, fmt.Errorf("gowalla: line %d has %d fields, want 5", lineNo, len(fields))
		}
		user, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("gowalla: line %d user: %v", lineNo, err)
		}
		ts, err := time.Parse(time.RFC3339, fields[1])
		if err != nil {
			return nil, fmt.Errorf("gowalla: line %d time: %v", lineNo, err)
		}
		lat, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("gowalla: line %d lat: %v", lineNo, err)
		}
		lng, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("gowalla: line %d lng: %v", lineNo, err)
		}
		place, err := strconv.Atoi(fields[4])
		if err != nil {
			return nil, fmt.Errorf("gowalla: line %d place: %v", lineNo, err)
		}
		p := geo.LatLng{Lat: lat, Lng: lng}
		if !p.Valid() {
			return nil, fmt.Errorf("gowalla: line %d invalid point %v", lineNo, p)
		}
		out = append(out, CheckIn{UserID: user, Time: ts, Loc: p, PlaceID: place})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gowalla: scan: %w", err)
	}
	return out, nil
}

// LoadFile loads check-ins from a file path.
func LoadFile(path string) ([]CheckIn, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Save writes check-ins in the Gowalla format.
func Save(w io.Writer, cs []CheckIn) error {
	bw := bufio.NewWriter(w)
	for _, c := range cs {
		_, err := fmt.Fprintf(bw, "%d\t%s\t%.6f\t%.6f\t%d\n",
			c.UserID, c.Time.UTC().Format(time.RFC3339), c.Loc.Lat, c.Loc.Lng, c.PlaceID)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FilterBBox keeps the check-ins inside a bounding box, as the paper does
// when sampling the San Francisco region.
func FilterBBox(cs []CheckIn, b geo.BoundingBox) []CheckIn {
	out := make([]CheckIn, 0, len(cs))
	for _, c := range cs {
		if b.Contains(c.Loc) {
			out = append(out, c)
		}
	}
	return out
}

// Place is a synthetic venue.
type Place struct {
	ID  int
	Loc geo.LatLng
}

// Dataset is a generated corpus: check-ins plus the venue table.
type Dataset struct {
	CheckIns []CheckIn
	Places   []Place
}

// GenConfig parameterizes Each and Generate. The zero value is completed
// by (GenConfig).withDefaults to the paper-scale SF sample. Start and End
// are instants, read whatever their location, and must lie between the
// years 1678 and 2262 (Unix nanoseconds); every generated Time is UTC.
type GenConfig struct {
	Seed        int64
	NumUsers    int
	NumPlaces   int
	NumCheckIns int
	BBox        geo.BoundingBox
	Start, End  time.Time
}

func (c GenConfig) withDefaults() GenConfig {
	if c.NumUsers == 0 {
		c.NumUsers = 500
	}
	if c.NumPlaces == 0 {
		c.NumPlaces = 2000
	}
	if c.NumCheckIns == 0 {
		c.NumCheckIns = 38523 // the paper's SF sample size
	}
	zero := geo.BoundingBox{}
	if c.BBox == zero {
		c.BBox = geo.SanFrancisco
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2009, 2, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.End.IsZero() {
		c.End = time.Date(2010, 10, 31, 0, 0, 0, 0, time.UTC)
	}
	return c
}

// numClusters is the number of venue neighborhoods the generator
// scatters places around.
const numClusters = 15

// userProfile is a synthetic user's routine.
type userProfile struct {
	home      int
	office    int
	favorites []int
	weight    float64
}

// Generate collects Each's stream into a Dataset, together with the venue
// table the check-ins were drawn around.
func Generate(cfg GenConfig) (*Dataset, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	cs := make([]CheckIn, 0, cfg.NumCheckIns)
	places := generate(cfg, func(c CheckIn) { cs = append(cs, c) })
	return &Dataset{CheckIns: cs, Places: places}, nil
}

// Each streams the synthetic sample cfg describes (see the package
// comment) to fn, one check-in at a time and in Generate's order, and
// keeps none of them: a caller that only counts the sample never holds it.
// The error is a config Generate would reject too; fn is not called then.
func Each(cfg GenConfig, fn func(CheckIn)) error {
	cfg, err := cfg.resolve()
	if err != nil {
		return err
	}
	generate(cfg, fn)
	return nil
}

// The generator keeps time as Unix nanoseconds, which reach from 1678 to
// 2262; a range must stay a week inside either end, room for the day
// arithmetic (a weekend skip, a slot's hours) to run past End unclamped.
var (
	earliestStart = time.Unix(0, math.MinInt64).Add(7 * 24 * time.Hour)
	latestEnd     = time.Unix(0, math.MaxInt64).Add(-7 * 24 * time.Hour)
)

// resolve completes cfg's zero fields and rejects a config the generator
// cannot serve.
func (c GenConfig) resolve() (GenConfig, error) {
	c = c.withDefaults()
	if c.NumUsers < 1 || c.NumPlaces < 10 || c.NumCheckIns < c.NumUsers {
		return c, fmt.Errorf("gowalla: degenerate config %+v", c)
	}
	if !c.End.After(c.Start) {
		return c, fmt.Errorf("gowalla: empty time range")
	}
	if c.Start.Before(earliestStart) || c.End.After(latestEnd) {
		return c, fmt.Errorf("gowalla: time range %v to %v outside the years 1678 to 2262",
			c.Start, c.End)
	}
	return c, nil
}

const (
	secondNs = int64(time.Second)
	hourNs   = int64(time.Hour)
	dayNs    = 24 * hourNs
)

// floorDay rounds Unix nanoseconds t down to its UTC midnight. The zero
// time Time.Truncate counts from lies a whole number of days before the
// Unix epoch, so this is t's Truncate(24 * time.Hour).
func floorDay(t int64) int64 {
	m := t % dayNs
	if m < 0 {
		m += dayNs
	}
	return t - m
}

// weekend reports whether the UTC day holding Unix nanoseconds t is a
// Saturday or a Sunday. The epoch's day was a Thursday.
func weekend(t int64) bool {
	wd := (floorDay(t)/dayNs%7 + 7 + int64(time.Thursday)) % 7
	return wd == int64(time.Saturday) || wd == int64(time.Sunday)
}

// generate runs the generator over a resolved cfg, handing fn each
// check-in as it is drawn, and returns the venue table.
func generate(cfg GenConfig, fn func(CheckIn)) []Place {
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

	start, end := cfg.Start.UnixNano(), cfg.End.UnixNano()
	// Time.Sub saturates a range longer than 292 years where end-start
	// would wrap.
	span := int64(cfg.End.Sub(cfg.Start))
	n := 0
	emit := func(u, place int, ts int64) {
		p := places[place].Loc
		fn(CheckIn{
			UserID: u,
			Time:   time.Unix(0, ts).UTC(),
			Loc: geo.LatLng{
				Lat: p.Lat + rng.NormFloat64()*0.0003,
				Lng: p.Lng + rng.NormFloat64()*0.0003,
			},
			PlaceID: place,
		})
		n++
	}
	// Apportion check-ins to users proportionally to weight (at least 1).
	for u := range users {
		share := int(float64(cfg.NumCheckIns) * users[u].weight / totalW)
		if share < 1 {
			share = 1
		}
		for k := 0; k < share && n < cfg.NumCheckIns; k++ {
			var place int
			var hour int
			day := floorDay(start + rng.Int63n(span))
			switch r := rng.Float64(); {
			case r < 0.35: // home: evenings and nights
				place = users[u].home
				hour = (19 + rng.Intn(11)) % 24
			case r < 0.60: // office: weekday working hours
				place = users[u].office
				hour = 9 + rng.Intn(9)
				// Skipping a weekend forward can overrun End (a Saturday
				// draw on the range's last weekend lands 2 days past it);
				// re-draw the day until a weekday's working hours fit, giving
				// up after a bounded number of tries (degenerate weekend-only
				// ranges), where the final range clamp below still holds the
				// in-range invariant.
				for tries := 0; ; tries++ {
					for weekend(day) {
						day += dayNs
					}
					if day+int64(hour+1)*hourNs <= end || tries >= 64 {
						break
					}
					day = floorDay(start + rng.Int63n(span))
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
			ts := day + int64(hour)*hourNs + int64(rng.Intn(3600))*secondNs
			// Every check-in lies in [start, end), whatever the day
			// arithmetic (truncation against a non-midnight start, weekend
			// skips near the range edge) produced.
			if ts < start {
				ts = start
			} else if ts >= end {
				ts = end - secondNs
			}
			emit(u, place, ts)
		}
	}
	// Top up to the exact requested count with popular wanders.
	for n < cfg.NumCheckIns {
		u := rng.Intn(cfg.NumUsers)
		place := popPick()
		emit(u, place, start+rng.Int63n(span))
	}
	return places
}

// Trajectory is one user's time-ordered check-in sequence — the replay
// substrate of mobility workloads: each point is a (time, location) the
// user actually reported from, so replaying Points in order reproduces the
// subtree crossings and session re-anchors a real moving user causes.
type Trajectory struct {
	UserID int
	Points []CheckIn // ascending by time (stable on ties)
}

// Trajectories groups check-ins by user and time-orders each user's
// sequence, returning users in ascending UserID order. Input order breaks
// timestamp ties, so the result is deterministic for a fixed corpus.
func Trajectories(cs []CheckIn) []Trajectory {
	byUser := map[int][]CheckIn{}
	for _, c := range cs {
		byUser[c.UserID] = append(byUser[c.UserID], c)
	}
	users := make([]int, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Ints(users)
	out := make([]Trajectory, 0, len(users))
	for _, u := range users {
		pts := byUser[u]
		sort.SliceStable(pts, func(a, b int) bool { return pts[a].Time.Before(pts[b].Time) })
		out = append(out, Trajectory{UserID: u, Points: pts})
	}
	return out
}

// LeafPriors counts check-ins per leaf cell of the tree and returns the
// add-one (Laplace) smoothed, unnormalized weights, aligned with
// tree.LevelNodes(0): a PriorCounter fed cs in order.
func LeafPriors(cs []CheckIn, t *loctree.Tree) []float64 {
	pc := NewPriorCounter(t)
	for _, c := range cs {
		pc.Add(c)
	}
	return pc.Weights()
}

// PriorCounter accumulates leaf priors one check-in at a time, so a
// sample that is streamed (Each) is counted without being stored.
type PriorCounter struct {
	tree   *loctree.Tree
	counts []float64
}

// smoothing is the count every leaf starts at: add-one smoothing keeps
// every leaf's prior nonzero (Equ. 17 divides by node priors).
const smoothing = 1

// NewPriorCounter starts every leaf of t at smoothing.
func NewPriorCounter(t *loctree.Tree) *PriorCounter {
	counts := make([]float64, t.NumLeaves())
	for i := range counts {
		counts[i] = smoothing
	}
	return &PriorCounter{tree: t, counts: counts}
}

// Add counts c in its leaf; a check-in outside the tree is ignored. IndexOf
// alone tells a leaf of the tree from a cell outside it, so a check-in
// costs one map lookup (Tree.Locate would add a second).
func (p *PriorCounter) Add(c CheckIn) {
	if idx, ok := p.tree.IndexOf(loctree.NodeID{Coord: p.tree.System().Locate(0, c.Loc)}); ok {
		p.counts[idx]++
	}
}

// Weights returns the smoothed, unnormalized leaf weights counted so far,
// aligned with tree.LevelNodes(0). The counter keeps counting into the
// returned slice.
func (p *PriorCounter) Weights() []float64 { return p.counts }

// SplitTrainTest deterministically splits check-ins (trainFrac in (0,1))
// for the priors-vs-real-locations protocol of Sec. 6.2.3.
func SplitTrainTest(cs []CheckIn, trainFrac float64, seed int64) (train, test []CheckIn, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("gowalla: trainFrac %v outside (0,1)", trainFrac)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(cs))
	cut := int(float64(len(cs)) * trainFrac)
	train = make([]CheckIn, 0, cut)
	test = make([]CheckIn, 0, len(cs)-cut)
	for i, idx := range perm {
		if i < cut {
			train = append(train, cs[idx])
		} else {
			test = append(test, cs[idx])
		}
	}
	return train, test, nil
}

// Metadata holds per-user and per-cell heuristics used to build realistic
// customization policies (Sec. 6.1): the user's inferred home and office
// leaf cells, the user's outlier cells (rarely visited, odd hours), and the
// globally popular cells.
type Metadata struct {
	tree        *loctree.Tree
	HomeLeaf    map[int]loctree.NodeID // per user
	OfficeLeaf  map[int]loctree.NodeID // per user
	OutlierLeaf map[int]map[loctree.NodeID]bool
	PopularLeaf map[loctree.NodeID]bool
	CountByLeaf map[loctree.NodeID]int
}

// isNight reports home-typical hours (19:00–06:00).
func isNight(h int) bool { return h >= 19 || h < 6 }

// isWork reports office-typical weekday hours (09:00–18:00).
func isWork(ts time.Time) bool {
	wd := ts.Weekday()
	if wd == time.Saturday || wd == time.Sunday {
		return false
	}
	h := ts.Hour()
	return h >= 9 && h < 18
}

// isOdd reports outlier-typical small hours (00:00–05:00).
func isOdd(h int) bool { return h < 5 }

// BuildMetadata derives the policy heuristics from a check-in corpus: a
// MetadataBuilder fed cs in order.
func BuildMetadata(cs []CheckIn, t *loctree.Tree) *Metadata {
	b := NewMetadataBuilder(t)
	for _, c := range cs {
		b.Add(c)
	}
	return b.Build()
}

// cellKey is one user's visits to one leaf.
type cellKey struct {
	user int
	leaf loctree.NodeID
}

// cellCounts tallies a cellKey's check-ins: all of them, and those at
// home-typical, office-typical and outlier-typical times.
type cellCounts struct {
	visits, night, work, odd int
}

// MetadataBuilder accumulates the policy heuristics one check-in at a
// time, so a sample that is streamed (Each) is summarized without being
// stored. Build derives:
//
//   - home(u): the leaf cell with the most night check-ins of user u,
//   - office(u): the leaf with the most weekday working-hour check-ins,
//   - outlier(u): leaves u visited at most once, at odd hours,
//   - popular: the top popularFrac of visited leaves by count.
type MetadataBuilder struct {
	tree   *loctree.Tree
	cells  map[cellKey]cellCounts
	byLeaf map[loctree.NodeID]int
}

// popularFrac is the fraction of visited leaves that count as popular.
const popularFrac = 0.2

// NewMetadataBuilder starts an empty builder over t.
func NewMetadataBuilder(t *loctree.Tree) *MetadataBuilder {
	return &MetadataBuilder{
		tree:   t,
		cells:  map[cellKey]cellCounts{},
		byLeaf: map[loctree.NodeID]int{},
	}
}

// Add tallies c against its leaf; a check-in outside the tree is ignored.
func (b *MetadataBuilder) Add(c CheckIn) {
	leaf, ok := b.tree.Locate(c.Loc, 0)
	if !ok {
		return
	}
	b.byLeaf[leaf]++
	k := cellKey{user: c.UserID, leaf: leaf}
	n := b.cells[k]
	n.visits++
	h := c.Time.Hour()
	if isNight(h) {
		n.night++
	}
	if isWork(c.Time) {
		n.work++
	}
	if isOdd(h) {
		n.odd++
	}
	b.cells[k] = n
}

// Build derives the metadata from the check-ins added so far. The
// builder's per-leaf counts become the metadata's CountByLeaf, so a
// builder is done once built.
func (b *MetadataBuilder) Build() *Metadata {
	t := b.tree
	// Each user's cells in (user, leaf BFS index) order: the argmax below
	// keeps the first of a tie, so the order makes it deterministic.
	type indexed struct {
		cellKey
		idx int
		cellCounts
	}
	cells := make([]indexed, 0, len(b.cells))
	for k, n := range b.cells {
		idx, _ := t.IndexOf(k.leaf)
		cells = append(cells, indexed{k, idx, n})
	}
	slices.SortFunc(cells, func(x, y indexed) int {
		return cmp.Or(cmp.Compare(x.user, y.user), cmp.Compare(x.idx, y.idx))
	})
	argmaxPerUser := func(count func(cellCounts) int) map[int]loctree.NodeID {
		best := map[int]loctree.NodeID{}
		bestN := map[int]int{}
		for _, c := range cells {
			if n := count(c.cellCounts); n > bestN[c.user] {
				bestN[c.user] = n
				best[c.user] = c.leaf
			}
		}
		return best
	}
	md := &Metadata{
		tree:        t,
		HomeLeaf:    argmaxPerUser(func(n cellCounts) int { return n.night }),
		OfficeLeaf:  argmaxPerUser(func(n cellCounts) int { return n.work }),
		OutlierLeaf: map[int]map[loctree.NodeID]bool{},
		PopularLeaf: map[loctree.NodeID]bool{},
		CountByLeaf: b.byLeaf,
	}
	for _, c := range cells {
		if c.visits <= 1 && c.odd > 0 {
			if md.OutlierLeaf[c.user] == nil {
				md.OutlierLeaf[c.user] = map[loctree.NodeID]bool{}
			}
			md.OutlierLeaf[c.user][c.leaf] = true
		}
	}
	// Popular: top fraction of visited leaves by check-in count, ties by
	// BFS index.
	type leafCount struct {
		leaf   loctree.NodeID
		idx, n int
	}
	lcs := make([]leafCount, 0, len(b.byLeaf))
	for leaf, n := range b.byLeaf {
		idx, _ := t.IndexOf(leaf)
		lcs = append(lcs, leafCount{leaf, idx, n})
	}
	slices.SortFunc(lcs, func(x, y leafCount) int {
		return cmp.Or(cmp.Compare(y.n, x.n), cmp.Compare(x.idx, y.idx))
	})
	top := int(math.Ceil(popularFrac * float64(len(lcs))))
	for i := 0; i < top && i < len(lcs); i++ {
		md.PopularLeaf[lcs[i].leaf] = true
	}
	return md
}

// Annotate builds the policy attribute map for every leaf of the tree, from
// the perspective of one user standing at refLoc. These attributes are what
// the paper's example predicates (home, office, outlier, popular, distance,
// checkins) evaluate against.
func (md *Metadata) Annotate(userID int, refLoc geo.LatLng) map[loctree.NodeID]policy.Attributes {
	return md.AnnotateLeaves(userID, refLoc, md.tree.LevelNodes(0))
}

// AnnotateLeaves is Annotate restricted to the given leaves. Preference
// evaluation over one privacy subtree only reads that subtree's leaves, so
// the report path annotates O(subtree) instead of O(region) per session
// bind.
func (md *Metadata) AnnotateLeaves(userID int, refLoc geo.LatLng, leaves []loctree.NodeID) map[loctree.NodeID]policy.Attributes {
	view := md.View(userID, refLoc)
	out := make(map[loctree.NodeID]policy.Attributes, len(leaves))
	for _, leaf := range leaves {
		attrs := make(policy.Attributes, 6)
		view.Fill(attrs, leaf)
		out[leaf] = attrs
	}
	return out
}

// View is the metadata as one user standing at one reference location sees
// it: the per-user lookups done once, so Fill does only per-leaf work.
type View struct {
	md                 *Metadata
	refLoc             geo.LatLng
	home, office       loctree.NodeID
	hasHome, hasOffice bool
	outliers           map[loctree.NodeID]bool
}

// View returns userID's view of the metadata from refLoc.
func (md *Metadata) View(userID int, refLoc geo.LatLng) View {
	v := View{md: md, refLoc: refLoc, outliers: md.OutlierLeaf[userID]}
	v.home, v.hasHome = md.HomeLeaf[userID]
	v.office, v.hasOffice = md.OfficeLeaf[userID]
	return v
}

// Fill sets dst to leaf's attributes, overwriting whatever an earlier leaf
// left there (every leaf has the same six keys), so one map serves a whole
// pass over a subtree. It is the single definition of the attributes the
// paper's example predicates evaluate against.
func (v View) Fill(dst policy.Attributes, leaf loctree.NodeID) {
	dst["home"] = policy.Bool(v.hasHome && leaf == v.home)
	dst["office"] = policy.Bool(v.hasOffice && leaf == v.office)
	dst["outlier"] = policy.Bool(v.outliers[leaf])
	dst["popular"] = policy.Bool(v.md.PopularLeaf[leaf])
	dst["checkins"] = policy.Number(float64(v.md.CountByLeaf[leaf]))
	dst["distance"] = policy.Number(geo.Haversine(v.refLoc, v.md.tree.Center(leaf)))
}
