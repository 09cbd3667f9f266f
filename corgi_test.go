package corgi

import "testing"

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
	md := BuildMetadata(cs, region.Tree)
	targets, err := RandomLeafTargets(region.Tree, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(region, priors, targets, Params{
		Epsilon: 15, Iterations: 2,
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
	entry := forest.Entries[root]
	pruned, err := EvalPreferences(entry.Leaves, pol, attrs)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewReportSession(ReportSessionConfig{
		Tree: region.Tree, Entry: entry, Delta: forest.Delta,
		Policy: pol, Pruned: pruned, Priors: priors, Seed: 9,
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

func TestHaversineExported(t *testing.T) {
	if Haversine(SanFrancisco.Center(), SanFrancisco.Center()) != 0 {
		t.Error("self distance must be zero")
	}
}
