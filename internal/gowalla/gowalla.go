// Package gowalla provides the check-in dataset substrate of Sec. 6.1. The
// paper samples 38,523 Gowalla check-ins from San Francisco; that file is
// not redistributable, so this package offers both
//
//   - Load/LoadFile: a parser for the real Gowalla check-in format
//     (user <TAB> ISO-time <TAB> lat <TAB> lng <TAB> location-id), so the
//     genuine dataset can be dropped in, and
//   - Generate: a synthetic generator that reproduces the statistical
//     features the paper actually consumes: a dense SF check-in sample with
//     Zipf place popularity and per-user routines (home, office, favorite
//     places, rare odd-hour outliers).
//
// On top of either source it computes leaf priors for a location tree (by
// check-in counts, Laplace-smoothed — Sec. 6.1 "Priors") and the policy
// metadata heuristics the paper describes (home, office, outlier, popular).
package gowalla

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
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

// GenConfig parameterizes Generate. The zero value is completed by
// (GenConfig).withDefaults to the paper-scale SF sample.
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

// numClusters is the number of venue neighborhoods Generate scatters
// places around.
const numClusters = 15

// userProfile is a synthetic user's routine.
type userProfile struct {
	home      int
	office    int
	favorites []int
	weight    float64
}

// Generate produces a deterministic synthetic dataset with the properties
// the paper's pipeline consumes (see the package comment).
func Generate(cfg GenConfig) (*Dataset, error) {
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
// add-`smoothing` (Laplace) smoothed, unnormalized weights, aligned with
// tree.LevelNodes(0). Check-ins outside the tree are ignored. Smoothing
// must be positive so every leaf keeps a nonzero prior (Equ. 17 divides by
// node priors).
func LeafPriors(cs []CheckIn, t *loctree.Tree, smoothing float64) ([]float64, error) {
	if smoothing <= 0 {
		return nil, fmt.Errorf("gowalla: smoothing must be positive, got %v", smoothing)
	}
	out := make([]float64, t.NumLeaves())
	for i := range out {
		out[i] = smoothing
	}
	for _, c := range cs {
		leaf, ok := t.Locate(c.Loc, 0)
		if !ok {
			continue
		}
		if idx, ok := t.IndexOf(leaf); ok {
			out[idx]++
		}
	}
	return out, nil
}

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

// BuildMetadata derives the policy heuristics from a check-in corpus:
//
//   - home(u): the leaf cell with the most night check-ins of user u,
//   - office(u): the leaf with the most weekday working-hour check-ins,
//   - outlier(u): leaves u visited at most once, at odd hours,
//   - popular: the top `popularFrac` fraction of visited leaves by count.
func BuildMetadata(cs []CheckIn, t *loctree.Tree, popularFrac float64) (*Metadata, error) {
	if popularFrac <= 0 || popularFrac > 1 {
		return nil, fmt.Errorf("gowalla: popularFrac %v outside (0,1]", popularFrac)
	}
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
	return md, nil
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
