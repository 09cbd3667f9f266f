package loadgen

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

// testServer is an in-process multi-region server that logs what it was
// asked: hits counts requests per "path?region".
type testServer struct {
	*httptest.Server
	reg *registry.Registry

	mu   sync.Mutex
	hits map[string]int
}

func (s *testServer) count(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits[key]
}

// streamAddr attaches a corgi-stream listener to the server's registry.
func (s *testServer) streamAddr(t *testing.T) string {
	t.Helper()
	ssrv, err := stream.NewServer(s.reg, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ssrv.Serve(lis)
	t.Cleanup(func() { ssrv.Close() })
	return lis.Addr().String()
}

func reportTestServer(t *testing.T, names ...string) *testServer {
	t.Helper()
	return reportTestServerOpts(t, registry.Options{}, names...)
}

func reportTestServerOpts(t *testing.T, opts registry.Options, names ...string) *testServer {
	t.Helper()
	specs := make([]registry.Spec, len(names))
	for i, name := range names {
		specs[i] = registry.Spec{
			Name:      name,
			CenterLat: 37.765 + float64(i),
			CenterLng: -122.435,
			Height:    2, Iterations: 1, Targets: 3,
			UniformPriors: true,
		}
	}
	reg, err := registry.New(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := proto.NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	s := &testServer{reg: reg, hits: map[string]int{}}
	mux := h.Mux()
	s.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.hits[r.URL.Path+"?"+r.URL.Query().Get("region")]++
		s.mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(s.Close)
	return s
}

func testWorlds(s *testServer) *worlds {
	return &worlds{server: s.URL, regions: map[string]*regionWorld{}}
}

func testWorld(t *testing.T, s *testServer, region string) *regionWorld {
	t.Helper()
	rw, err := testWorlds(s).get(region)
	if err != nil {
		t.Fatal(err)
	}
	return rw
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeCheckins synthesizes a 30-line check-in corpus (three users from
// firstUID, one check-in a minute) across the region's own leaves, so
// every point lands in the tree.
func writeCheckins(t *testing.T, rw *regionWorld, firstUID int) string {
	t.Helper()
	var lines []string
	ts := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 30; i++ {
		leaf := rw.leaves[(i*7)%len(rw.leaves)]
		c := rw.tree.Center(leaf)
		lines = append(lines, fmt.Sprintf("%d\t%s\t%.6f\t%.6f\t%d",
			firstUID+i%3, ts.Add(time.Duration(i)*time.Minute).Format(time.RFC3339), c.Lat, c.Lng, i))
	}
	return writeFile(t, "checkins.txt", strings.Join(lines, "\n")+"\n")
}

// TestTraceGolden pins the traffic: for a fixed seed every builder emits
// exactly the entries it emitted when the builders were three functions in
// cmd/corgi-loadgen (digests recorded at that parent commit, over each
// entry's fields and cold key).
func TestTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real regions")
	}
	srv := reportTestServer(t, "sf", "lg-b")
	sf := testWorld(t, srv, "sf")
	forestFile := writeFile(t, "forest.txt", "# multi-region replay\nsf 1 0\nlg-b 2 1\n\nsf 1 2\n")
	reportLines := "# report replay\n"
	for i := 0; i < 6; i++ {
		l := sf.leaves[(i*5)%len(sf.leaves)]
		reportLines += fmt.Sprintf("sf %d %d %d\n", 1+i%2, l.Coord.Q, l.Coord.R)
	}
	reportFile := writeFile(t, "report.txt", reportLines)
	checkins := writeCheckins(t, sf, 0)

	both := []string{"sf", "lg-b"}
	base := Config{Levels: "1,2", Deltas: "0,1", Mix: "uniform", CellMix: "zipf", Users: 10, Moves: 40, Seed: 1}
	for _, tc := range []struct {
		name    string
		regions []string
		edit    func(*Config)
		n       int
		source  string
		digest  string
	}{
		{"forest-uniform", both, func(c *Config) { c.Workload = "forest" },
			65536, "synthetic:uniform", "4bff823e2d63cf686620b354939ffc24ac9f6fe0f9881b62dc7d22419c59f5b3"},
		{"forest-zipf", both, func(c *Config) { c.Workload, c.Mix = "forest", "zipf" },
			65536, "synthetic:zipf", "0d8c894cefcbdf957b015ee637cb6e20f1e32530e4d30fcdec0ff3812e4b8136"},
		{"forest-file", both, func(c *Config) { c.Workload, c.TracePath = "forest", forestFile },
			3, "replay:" + forestFile, "5ebcdc4a62ea0436d77aac3e5cef9f20383c0cbbeba089552ad5c4ef08880298"},
		{"report-zipf-cells", both, func(c *Config) { c.Workload = "report" },
			65536, "synthetic:uniform/cells:zipf", "58b162c8058ecf0c052bebf38027543080af2e090cd766cadc3fea0250b83a29"},
		{"report-file", both, func(c *Config) { c.Workload, c.TracePath = "report", reportFile },
			6, "replay:" + reportFile, "b89a472f4533fdf8310a8df2792417238a10186fa86f36ec874a09d7e417b5ad"},
		{"mobility-waypoint", both, func(c *Config) { c.Workload, c.Users = "mobility", 5 },
			200, "synthetic:random-waypoint", "ff3dbf713064286e4a617e45eab03d04137c5a066cdabf3ae4b2a697f77831e3"},
		{"mobility-gowalla", []string{"sf"}, func(c *Config) { c.Workload, c.CheckinsPath = "mobility", checkins },
			30, "gowalla-trajectories:" + checkins, "aff0edbb7fe2d25f4880f84d6ac01ba6bc98ff50b38f29f784eb811207b3142e"},
	} {
		cfg := base
		tc.edit(&cfg)
		trace, source, err := buildTrace(cfg, tc.regions, testWorlds(srv))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		h := sha256.New()
		for _, r := range trace {
			fmt.Fprintf(h, "%s %d %d %d %d %d %d %s\n", r.Region, r.Level, r.Delta, r.Cell[0], r.Cell[1], r.UID, r.Seed, r.ColdKey)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); len(trace) != tc.n || source != tc.source || got != tc.digest {
			t.Errorf("%s: %d entries from %q, sha256 %s; want %d from %q, %s",
				tc.name, len(trace), source, got, tc.n, tc.source, tc.digest)
		}
	}
}

func TestLoadTrace(t *testing.T) {
	path := writeFile(t, "trace.txt", "# multi-region replay\nsf 1 0\nnyc 2 1\n\nla 1 2\n")
	trace, err := loadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []request{
		{Region: "sf", Level: 1, Delta: 0, ColdKey: "sf|1|0"},
		{Region: "nyc", Level: 2, Delta: 1, ColdKey: "nyc|2|1"},
		{Region: "la", Level: 1, Delta: 2, ColdKey: "la|1|2"},
	}
	if len(trace) != len(want) {
		t.Fatalf("trace %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Errorf("entry %d = %v, want %v", i, trace[i], want[i])
		}
	}

	if _, err := loadTrace(writeFile(t, "bad.txt", "sf one 0\n")); err == nil {
		t.Error("non-integer trace line must fail")
	}
	if _, err := loadTrace(writeFile(t, "empty.txt", "# nothing\n")); err == nil {
		t.Error("empty trace must fail")
	}
}

func TestBuildTraceSyntheticMix(t *testing.T) {
	regions := []string{"sf", "nyc", "la"}
	cfg := Config{Workload: "forest", Levels: "1,2", Deltas: "0,1", Mix: "zipf", Seed: 7}
	trace, source, err := buildTrace(cfg, regions, nil)
	if err != nil {
		t.Fatal(err)
	}
	if source != "synthetic:zipf" {
		t.Errorf("source %q", source)
	}
	counts := map[string]int{}
	for _, r := range trace {
		counts[r.Region]++
		if r.Level != 1 && r.Level != 2 {
			t.Fatalf("level %d escaped -levels", r.Level)
		}
		if r.Delta != 0 && r.Delta != 1 {
			t.Fatalf("delta %d escaped -deltas", r.Delta)
		}
	}
	// Zipf: sf must dominate nyc, nyc must dominate la.
	if counts["sf"] <= counts["nyc"] || counts["nyc"] <= counts["la"] {
		t.Errorf("zipf mix not monotone: %v", counts)
	}

	for name, edit := range map[string]func(*Config){
		"unknown mix":           func(c *Config) { c.Mix = "pareto" },
		"bad levels list":       func(c *Config) { c.Levels = "x" },
		"bad deltas list":       func(c *Config) { c.Deltas = "" },
		"-trace plus -checkins": func(c *Config) { c.TracePath, c.CheckinsPath = "a", "b" },
	} {
		bad := cfg
		edit(&bad)
		if _, _, err := buildTrace(bad, regions, nil); err == nil {
			t.Errorf("%s must fail", name)
		}
	}
}

func TestBuildReportTraceAndDraw(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real region")
	}
	srv := reportTestServer(t, "lg-a", "lg-b")
	trace, source, err := buildTrace(Config{
		Workload: "report", Levels: "1", Mix: "zipf", CellMix: "zipf", Users: 10, Seed: 5,
	}, []string{"lg-a", "lg-b"}, testWorlds(srv))
	if err != nil {
		t.Fatal(err)
	}
	if source == "" || len(trace) == 0 {
		t.Fatalf("trace %d entries, source %q", len(trace), source)
	}
	counts := map[string]int{}
	for _, r := range trace {
		counts[r.Region]++
		if r.ColdKey == "" {
			t.Fatal("report entry without a cold key")
		}
		if r.Level != 1 {
			t.Fatalf("level %d escaped -levels", r.Level)
		}
	}
	if counts["lg-a"] <= counts["lg-b"] {
		t.Errorf("zipf region mix not monotone: %v", counts)
	}

	// One end-to-end draw through the real wire path.
	ctx := context.Background()
	tgt := reportTarget(proto.NewClient(srv.URL).Remote(), 0, 3)
	var cold coldTracker
	s, ok, bad := drive(ctx, tgt, trace[:1], &cold, time.Now())
	if s.err || ok != 1 || bad != 0 {
		t.Fatalf("drive: sample %+v ok %d bad %d", s, ok, bad)
	}
	if !s.cold {
		t.Error("first draw for a subtree must be cold")
	}
	s, _, _ = drive(ctx, tgt, trace[:1], &cold, time.Now())
	if s.cold {
		t.Error("repeat draw for the same subtree must be warm")
	}

	// Batch path with per-item accounting.
	s, ok, bad = drive(ctx, tgt, entriesAt(trace, 1, 4), &cold, time.Now())
	if s.err || ok != 4 || bad != 0 {
		t.Fatalf("drive batch: sample %+v ok %d bad %d", s, ok, bad)
	}

	// Reports/s lands in the summary for the report workload.
	w := &worker{itemsOK: 6}
	w.samples = []sample{{latency: time.Millisecond, status: 200, region: "lg-a"}}
	rep := summarize([]*worker{w}, 2*time.Second, RunConfig{Workload: "report", ReportCount: 3})
	if rep.ReportsPerSec != 9 {
		t.Errorf("reports_per_sec = %v, want 9", rep.ReportsPerSec)
	}
}

func TestLoadReportTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real region")
	}
	srv := reportTestServer(t, "lg-a")
	content := "# report replay\n"
	for _, l := range testWorld(t, srv, "lg-a").leaves[:2] {
		content += fmt.Sprintf("lg-a 1 %d %d\n", l.Coord.Q, l.Coord.R)
	}
	path := writeFile(t, "trace.txt", content)
	trace, source, err := buildTrace(Config{Workload: "report", TracePath: path, Users: 4, Seed: 1},
		[]string{"lg-a"}, testWorlds(srv))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || source != "replay:"+path {
		t.Fatalf("trace %v source %q", trace, source)
	}
	for _, r := range trace {
		if r.ColdKey == "" || r.Region != "lg-a" {
			t.Fatalf("bad entry %+v", r)
		}
	}
}

func TestWeightedPick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	counts := [3]int{}
	for i := 0; i < 10000; i++ {
		counts[weightedPick(rng, []float64{8, 1, 1})]++
	}
	if counts[0] < 7000 || counts[1] == 0 || counts[2] == 0 {
		t.Errorf("weighted pick skew: %v", counts)
	}
}

// TestWaypointMobilityTrace checks the synthetic random-waypoint source:
// per-user order, lattice adjacency (steps move at most one cell except
// documented waypoint teleports), and actual movement.
func TestWaypointMobilityTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real region")
	}
	srv := reportTestServer(t, "lg-a")
	rng := rand.New(rand.NewSource(2))
	trace, err := waypointMobilityTrace([]string{"lg-a"}, testWorlds(srv), []int{1}, 3, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 3*40 {
		t.Fatalf("trace has %d entries, want %d", len(trace), 3*40)
	}
	perUser := map[int64][]request{}
	for _, r := range trace {
		if r.Region != "lg-a" || r.Level != 1 || r.ColdKey == "" {
			t.Fatalf("bad entry %+v", r)
		}
		perUser[r.UID] = append(perUser[r.UID], r)
	}
	if len(perUser) != 3 {
		t.Fatalf("trace spans %d users, want 3", len(perUser))
	}
	moved := false
	for uid, reqs := range perUser {
		if len(reqs) != 40 {
			t.Fatalf("user %d has %d steps, want 40", uid, len(reqs))
		}
		for i := 1; i < len(reqs); i++ {
			if reqs[i].Cell != reqs[i-1].Cell {
				moved = true
			}
			if reqs[i].Seed != reqs[0].Seed {
				t.Fatalf("user %d changed seed mid-trajectory", uid)
			}
		}
	}
	if !moved {
		t.Fatal("no user ever moved")
	}
}

// TestGowallaMobilityTrace feeds a tiny synthetic check-in corpus through
// the trajectory source: global time order, per-user order preserved.
func TestGowallaMobilityTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real region")
	}
	// The builtin "sf" metro is required for -checkins region assignment.
	srv := reportTestServer(t, "sf")
	path := writeCheckins(t, testWorld(t, srv, "sf"), 0)
	rng := rand.New(rand.NewSource(1))
	trace, err := gowallaMobilityTrace(path, []string{"sf"}, testWorlds(srv), []int{1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 30 {
		t.Fatalf("trace has %d entries, want 30", len(trace))
	}
	// The corpus timestamps are strictly increasing, so the trace must
	// replay the corpus order exactly (round-robin over users 0,1,2).
	for i, r := range trace {
		if r.UID != int64(i%3) {
			t.Fatalf("entry %d is user %d, want %d (global time order broken)", i, r.UID, i%3)
		}
	}
}
