package corgi

import (
	"context"
	"testing"
)

// TestPublicAPIEndToEnd drives the full published flow: region, dataset,
// priors, metadata, server, forest, customization, reporting.
func TestPublicAPIEndToEnd(t *testing.T) {
	region, err := NewRegion(SanFrancisco.Center(), 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if region.Tree.NumLeaves() != 49 {
		t.Fatalf("height-2 region has %d leaves", region.Tree.NumLeaves())
	}
	cs, err := GenerateCheckIns(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 38523 {
		t.Fatalf("generated %d check-ins, want the paper's 38523", len(cs))
	}
	priors, err := PriorsFromCheckIns(cs, region.Tree)
	if err != nil {
		t.Fatal(err)
	}
	md, err := BuildMetadata(cs, region.Tree)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := RandomLeafTargets(region.Tree, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(region, priors, targets, Params{
		Epsilon: 15, Iterations: 2, UseGraphApprox: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := server.GenerateForest(1, 2)
	if err != nil {
		t.Fatal(err)
	}

	real := SanFrancisco.Center()
	attrs := md.Annotate(0, real)
	notHome, err := ParsePredicate("home != true")
	if err != nil {
		t.Fatal(err)
	}
	pol := Policy{PrivacyLevel: 1, PrecisionLevel: 0, Preferences: []Predicate{notHome}}
	realLeaf, _ := region.Tree.Locate(real, 0)
	root, _ := region.Tree.AncestorAt(realLeaf, 1)
	sess, err := NewReportSession(ReportSessionConfig{
		Tree: region.Tree, Entry: forest.Entries[root], Delta: forest.Delta,
		Policy: pol, Attrs: attrs, Priors: priors, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	reported, err := sess.Draw(real)
	if err != nil {
		t.Fatal(err)
	}
	if !region.Tree.Contains(reported) {
		t.Fatalf("reported node %v outside region", reported)
	}
	if reported.Level != 0 {
		t.Fatalf("reported level %d", reported.Level)
	}
	// The reported location must differ from the real one at least
	// sometimes across repeats (it is a distribution, not the identity).
	differs := false
	for i := 0; i < 50; i++ {
		o, err := sess.Draw(real)
		if err != nil {
			t.Fatal(err)
		}
		if o != realLeaf {
			differs = true
		}
	}
	if !differs {
		t.Error("obfuscation never moved the reported location")
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := NewRegion(LatLng{Lat: 99, Lng: 0}, 0.1, 2); err == nil {
		t.Error("bad center must fail")
	}
	if _, err := NewRegion(SanFrancisco.Center(), 0, 2); err == nil {
		t.Error("zero spacing must fail")
	}
	if _, err := NewRegion(SanFrancisco.Center(), 0.1, 0); err == nil {
		t.Error("zero height must fail")
	}
	if _, err := NewServer(nil, nil, nil, Params{}); err == nil {
		t.Error("nil region must fail")
	}
	if _, err := NewReportSession(ReportSessionConfig{}); err == nil {
		t.Error("nil tree must fail")
	}
	region, _ := NewRegion(SanFrancisco.Center(), 0.1, 2)
	if _, err := RandomLeafTargets(region.Tree, 0, 1); err == nil {
		t.Error("zero targets must fail")
	}
	if _, err := RandomLeafTargets(region.Tree, 100, 1); err == nil {
		t.Error("too many targets must fail")
	}
}

// TestMultiServerPublicAPI drives the multi-region sharding layer through
// the facade: builtin specs, lazy bootstrap, per-shard forests, stats.
func TestMultiServerPublicAPI(t *testing.T) {
	sf, ok := BuiltinRegion("sf")
	if !ok {
		t.Fatal("builtin sf missing")
	}
	nyc, ok := BuiltinRegion("nyc")
	if !ok {
		t.Fatal("builtin nyc missing")
	}
	for _, spec := range []*RegionSpec{&sf, &nyc} {
		spec.UniformPriors = true // keep the test fast
		spec.Iterations = 1
		spec.Targets = 3
	}
	ms, err := NewMultiServer([]RegionSpec{sf, nyc}, MultiServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.DefaultRegion() != "sf" || len(ms.Names()) != 2 {
		t.Fatalf("names %v default %q", ms.Names(), ms.DefaultRegion())
	}
	sh, err := ms.Shard(context.Background(), "nyc")
	if err != nil {
		t.Fatal(err)
	}
	forest, err := sh.Server.GenerateForest(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.Entries) != 7 {
		t.Fatalf("nyc forest has %d entries", len(forest.Entries))
	}
	if ms.Ready("sf") {
		t.Error("sf bootstrapped without being addressed")
	}
	if agg := ms.AggregateStats(); agg.Solves == 0 {
		t.Error("aggregate stats lost the nyc solves")
	}
	if _, err := NewMultiServer(nil, MultiServerConfig{}); err == nil {
		t.Error("empty spec list must fail")
	}
}

func TestHaversineExported(t *testing.T) {
	if Haversine(SanFrancisco.Center(), SanFrancisco.Center()) != 0 {
		t.Error("self distance must be zero")
	}
}
