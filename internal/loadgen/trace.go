package loadgen

import (
	"bufio"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"corgi/internal/geo"
	"corgi/internal/gowalla"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/proto"
	"corgi/internal/registry"
)

// request is one trace entry. Forest entries use (Region, Level, Delta);
// report entries use (Region, Level, Cell, UID, Seed). Both carry ColdKey,
// the identity of the server work the first-request cold split keys on.
type request struct {
	Region  string
	Level   int
	Delta   int
	Cell    [2]int
	UID     int64
	Seed    int64
	ColdKey string
}

// regionWorld is one region's client-side view: its rebuilt tree and leaf
// list.
type regionWorld struct {
	tree   *loctree.Tree
	leaves []loctree.NodeID
}

// worlds memoises each region's world, so a run fetches and rebuilds a
// tree once however many trace builders and lease opens ask for it.
type worlds struct {
	server string

	mu      sync.Mutex
	regions map[string]*regionWorld
}

// get rebuilds region's tree from /v1/tree on first use.
func (w *worlds) get(region string) (*regionWorld, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if rw, ok := w.regions[region]; ok {
		return rw, nil
	}
	tree, _, err := proto.NewRegionClient(w.server, region).FetchTree()
	if err != nil {
		return nil, fmt.Errorf("region %q tree: %w", region, err)
	}
	rw := &regionWorld{tree: tree, leaves: tree.LevelNodes(0)}
	w.regions[region] = rw
	return rw, nil
}

// tree is get for a caller that wants the tree alone (device.Leased).
func (w *worlds) tree(region string) (*loctree.Tree, error) {
	rw, err := w.get(region)
	if err != nil {
		return nil, err
	}
	return rw.tree, nil
}

// buildTrace materializes the replay trace (bounded; it cycles during the
// run) and names its source for the report.
//
// A trace file is replayed as written. Mobility traces are interleaved
// timelines of per-user cell sequences: each user keeps one privacy level
// and one session stream (uid-derived seed) for their whole trajectory, so
// the server re-anchors the resident session whenever the trajectory
// crosses a subtree boundary — the mobility hot path under test. Forest and
// report traces are a synthetic mix.
func buildTrace(cfg Config, regions []string, w *worlds) ([]request, string, error) {
	if cfg.TracePath != "" && cfg.CheckinsPath != "" {
		return nil, "", fmt.Errorf("use either -trace or -checkins, not both")
	}
	users := max(cfg.Users, 1)
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.TracePath != "" {
		var trace []request
		var err error
		if cfg.Workload == "report" {
			trace, err = loadReportTrace(cfg.TracePath, users, rng, w)
		} else {
			trace, err = loadTrace(cfg.TracePath)
		}
		return trace, "replay:" + cfg.TracePath, err
	}
	levels, err := parseIntList(cfg.Levels)
	if err != nil {
		return nil, "", fmt.Errorf("-levels: %w", err)
	}
	if cfg.Workload != "mobility" {
		return syntheticTrace(cfg, regions, w, levels, users, rng)
	}
	if cfg.CheckinsPath != "" {
		trace, err := gowallaMobilityTrace(cfg.CheckinsPath, regions, w, levels, rng)
		return trace, "gowalla-trajectories:" + cfg.CheckinsPath, err
	}
	trace, err := waypointMobilityTrace(regions, w, levels, users, cfg.Moves, rng)
	return trace, "synthetic:random-waypoint", err
}

// syntheticTrace draws a forest or report trace from the configured mix:
// every entry picks a region by weight and a privacy level; a forest entry
// adds a prune allowance, a report entry a true cell (uniform or
// Zipf-weighted over the region's leaves) and a user id from the -users
// pool.
func syntheticTrace(cfg Config, regions []string, w *worlds, levels []int, users int, rng *rand.Rand) ([]request, string, error) {
	var deltas []int
	var err error
	if cfg.Workload == "forest" {
		if deltas, err = parseIntList(cfg.Deltas); err != nil {
			return nil, "", fmt.Errorf("-deltas: %w", err)
		}
	}
	weights, source, err := regionWeights(regions, cfg.CheckinsPath, cfg.Mix)
	if err != nil {
		return nil, "", err
	}
	type cells struct {
		world   *regionWorld
		weights []float64
	}
	regionCells := map[string]cells{}
	if cfg.Workload == "report" {
		source += "/cells:" + cfg.CellMix
		for _, region := range regions {
			rw, err := w.get(region)
			if err != nil {
				return nil, "", err
			}
			cw, err := mixWeights("-cell-mix", cfg.CellMix, len(rw.leaves))
			if err != nil {
				return nil, "", err
			}
			regionCells[region] = cells{rw, cw}
		}
	}
	const traceLen = 65536
	trace := make([]request, traceLen)
	for i := range trace {
		region := regions[weightedPick(rng, weights)]
		if cfg.Workload == "forest" {
			level := levels[rng.Intn(len(levels))]
			trace[i] = forestRequest(region, level, deltas[rng.Intn(len(deltas))])
			continue
		}
		c := regionCells[region]
		leaf := c.world.leaves[weightedPick(rng, c.weights)]
		level := levels[rng.Intn(len(levels))]
		trace[i] = mobilityRequest(c.world, region, level, leaf, int64(rng.Intn(users)))
	}
	return trace, source, nil
}

// mixWeights are n weights in the named shape: uniform, or Zipf s=1 over
// index order (a few hot regions or cells dominate, the shape of real
// check-in data).
func mixWeights(flagName, mix string, n int) ([]float64, error) {
	weights := make([]float64, n)
	for i := range weights {
		switch mix {
		case "zipf":
			weights[i] = 1 / float64(i+1)
		case "uniform":
			weights[i] = 1
		default:
			return nil, fmt.Errorf("unknown %s %q (uniform or zipf)", flagName, mix)
		}
	}
	return weights, nil
}

// regionWeights resolves the per-region mix of a synthetic trace and names
// its source: a check-in file's geography when one is given, -mix
// otherwise.
func regionWeights(regions []string, checkinsPath, mix string) ([]float64, string, error) {
	if checkinsPath != "" {
		weights := make([]float64, len(regions))
		err := checkinWeights(checkinsPath, regions, weights)
		return weights, "gowalla:" + checkinsPath, err
	}
	weights, err := mixWeights("-mix", mix, len(regions))
	return weights, "synthetic:" + mix, err
}

// forestRequest assembles one forest trace entry; its cold key is the
// (region, level, delta) forest the server must have solved.
func forestRequest(region string, level, delta int) request {
	return request{
		Region: region, Level: level, Delta: delta,
		ColdKey: fmt.Sprintf("%s|%d|%d", region, level, delta),
	}
}

// mobilityRequest assembles one report or mobility trace entry for a user
// standing at leaf. The seed is per user, so one user's requests share one
// server session stream. The cold key is the (region, level, subtree) whose
// forest entry must be solved: distinct cells of one subtree share it, so
// only the true first solve lands in the cold latency slice.
func mobilityRequest(w *regionWorld, region string, level int, leaf loctree.NodeID, uid int64) request {
	root, ok := w.tree.AncestorAt(leaf, level)
	if !ok {
		root = leaf
	}
	return request{
		Region:  region,
		Level:   level,
		Cell:    [2]int{leaf.Coord.Q, leaf.Coord.R},
		UID:     uid,
		Seed:    uid*1000003 + 7,
		ColdKey: fmt.Sprintf("%s|%d|%v", region, level, root),
	}
}

// gowallaMobilityTrace replays real per-user check-in sequences: each
// check-in maps to the nearest region's tree (points outside every tree
// are dropped), users become uid streams, and the flat trace preserves the
// corpus's global time order — so per-user move order survives replay, in
// the shape of real mobile traffic.
func gowallaMobilityTrace(path string, regions []string, w *worlds, levels []int, rng *rand.Rand) ([]request, error) {
	cs, err := gowalla.LoadFile(path)
	if err != nil {
		return nil, err
	}
	centers, err := regionCenters(regions)
	if err != nil {
		return nil, err
	}
	type point struct {
		ts  time.Time
		req request
	}
	var points []point
	dropped := 0
	for _, traj := range gowalla.Trajectories(cs) {
		// One privacy level per user, fixed for their whole trajectory
		// (Trajectories yields each user exactly once).
		lvl := levels[rng.Intn(len(levels))]
		for _, c := range traj.Points {
			region := regions[nearest(centers, c.Loc)]
			rw, err := w.get(region)
			if err != nil {
				return nil, err
			}
			leaf, ok := rw.tree.Locate(c.Loc, 0)
			if !ok {
				dropped++
				continue
			}
			points = append(points, point{
				ts:  c.Time,
				req: mobilityRequest(rw, region, lvl, leaf, int64(traj.UserID)),
			})
		}
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("%s: no check-ins landed inside any serving region", path)
	}
	if dropped > 0 {
		log.Printf("mobility trace: dropped %d of %d check-ins outside every region's tree",
			dropped, dropped+len(points))
	}
	// Stable: check-ins sharing a timestamp keep their corpus order.
	sort.SliceStable(points, func(a, b int) bool { return points[a].ts.Before(points[b].ts) })
	trace := make([]request, len(points))
	for i, p := range points {
		trace[i] = p.req
	}
	return trace, nil
}

// waypointMobilityTrace synthesizes random-waypoint walks: each user
// starts at a random leaf of their region, repeatedly picks a waypoint
// leaf, and steps through the lattice toward it (greedy neighbor descent
// on hex grid distance), reporting from every cell visited. User timelines
// interleave round-robin.
func waypointMobilityTrace(regions []string, w *worlds, levels []int, users, moves int, rng *rand.Rand) ([]request, error) {
	moves = max(moves, 1)
	// One leaf-coordinate index per region, shared by every walker in it.
	type lattice struct {
		world   *regionWorld
		leafSet map[hexgrid.Coord]loctree.NodeID
	}
	lattices := make(map[string]lattice, len(regions))
	for _, region := range regions {
		rw, err := w.get(region)
		if err != nil {
			return nil, err
		}
		leafSet := make(map[hexgrid.Coord]loctree.NodeID, len(rw.leaves))
		for _, l := range rw.leaves {
			leafSet[l.Coord] = l
		}
		lattices[region] = lattice{rw, leafSet}
	}
	type walker struct {
		region   string
		level    int
		at       loctree.NodeID
		waypoint loctree.NodeID
	}
	walkers := make([]*walker, users)
	for u := range walkers {
		region := regions[u%len(regions)]
		leaves := lattices[region].world.leaves
		walkers[u] = &walker{
			region:   region,
			level:    levels[rng.Intn(len(levels))],
			at:       leaves[rng.Intn(len(leaves))],
			waypoint: leaves[rng.Intn(len(leaves))],
		}
	}
	trace := make([]request, 0, users*moves)
	for step := 0; step < moves; step++ {
		for u, wk := range walkers {
			lat := lattices[wk.region]
			trace = append(trace, mobilityRequest(lat.world, wk.region, wk.level, wk.at, int64(u)))
			if wk.at == wk.waypoint {
				wk.waypoint = lat.world.leaves[rng.Intn(len(lat.world.leaves))]
			}
			wk.at = stepToward(wk.at, wk.waypoint, lat.leafSet)
		}
	}
	return trace, nil
}

// stepToward moves one lattice step from at toward waypoint, restricted to
// leaves that exist in the region (the tree's hull is not convex in axial
// coordinates, so a neighbor on the straight line may not exist). When no
// neighboring leaf gets closer, it jumps to the waypoint — trading one
// teleport for guaranteed progress.
func stepToward(at, waypoint loctree.NodeID, leafSet map[hexgrid.Coord]loctree.NodeID) loctree.NodeID {
	if at == waypoint {
		return at
	}
	best := at
	bestDist := hexgrid.GridDist(at.Coord, waypoint.Coord)
	for _, nb := range hexgrid.Neighbors(at.Coord) {
		leaf, ok := leafSet[nb]
		if !ok {
			continue
		}
		if d := hexgrid.GridDist(nb, waypoint.Coord); d < bestDist {
			best, bestDist = leaf, d
		}
	}
	if best == at {
		return waypoint
	}
	return best
}

// loadReportTrace parses "region level q r" lines; '#' starts a comment.
func loadReportTrace(path string, users int, rng *rand.Rand, w *worlds) ([]request, error) {
	return scanTrace(path, "region level q r", func(region string, v []int) (request, error) {
		rw, err := w.get(region)
		if err != nil {
			return request{}, err
		}
		leaf := loctree.NodeID{Level: 0, Coord: hexgrid.Coord{Q: v[1], R: v[2]}}
		return mobilityRequest(rw, region, v[0], leaf, int64(rng.Intn(users))), nil
	})
}

// checkinWeights assigns each check-in to the nearest serving region
// center (resolved via /v1/regions metadata is unavailable here, so the
// builtin metro table and the check-in geography decide) and normalizes
// the counts into mix weights.
func checkinWeights(path string, regions []string, weights []float64) error {
	cs, err := gowalla.LoadFile(path)
	if err != nil {
		return err
	}
	centers, err := regionCenters(regions)
	if err != nil {
		return err
	}
	if len(cs) == 0 {
		return fmt.Errorf("%s: no check-ins matched any region", path)
	}
	for _, c := range cs {
		weights[nearest(centers, c.Loc)]++
	}
	for i, w := range weights {
		if w == 0 {
			weights[i] = 1 // keep every region reachable
		}
	}
	return nil
}

// nearest is the index of the center closest to loc.
func nearest(centers []geo.LatLng, loc geo.LatLng) int {
	best, bestDist := 0, math.MaxFloat64
	for i, center := range centers {
		if d := geo.Haversine(loc, center); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// regionCenters resolves region names to builtin metro centers for
// check-in assignment.
func regionCenters(regions []string) ([]geo.LatLng, error) {
	centers := make([]geo.LatLng, len(regions))
	for i, name := range regions {
		spec, ok := registry.BuiltinSpec(name)
		if !ok {
			return nil, fmt.Errorf("region %q is not a builtin metro; -checkins weighting needs builtin regions", name)
		}
		centers[i] = spec.Center()
	}
	return centers, nil
}

// loadTrace parses "region level delta" lines; '#' starts a comment.
func loadTrace(path string) ([]request, error) {
	return scanTrace(path, "region level delta", func(region string, v []int) (request, error) {
		return forestRequest(region, v[0], v[1]), nil
	})
}

// scanTrace reads a trace file of whitespace-separated lines shaped like
// format — a region name, then integers — handing each line's region and
// integers to entry. Blank lines and '#' comments are skipped; an empty
// trace is an error.
func scanTrace(path, format string, entry func(region string, v []int) (request, error)) ([]request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	nfields := len(strings.Fields(format))
	var trace []request
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != nfields {
			return nil, fmt.Errorf("%s:%d: want '%s', got %q", path, line, format, text)
		}
		v := make([]int, nfields-1)
		for i := range v {
			if v[i], err = strconv.Atoi(fields[i+1]); err != nil {
				return nil, fmt.Errorf("%s:%d: bad integers in %q", path, line, text)
			}
		}
		req, err := entry(fields[0], v)
		if err != nil {
			return nil, err
		}
		trace = append(trace, req)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(trace) == 0 {
		return nil, fmt.Errorf("%s: empty trace", path)
	}
	return trace, nil
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func weightedPick(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}
