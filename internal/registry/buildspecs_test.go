package registry_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"corgi/internal/node"
	"corgi/internal/registry"
)

// genFlags parses args the way corgi-gen does for its region flags:
// through registry.SpecDefaults.Bind, the same call its main makes.
func genFlags(t *testing.T, args ...string) registry.SpecDefaults {
	t.Helper()
	var d registry.SpecDefaults
	fs := flag.NewFlagSet("corgi-gen", flag.ContinueOnError)
	d.Bind(fs, "precompute")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return d
}

// serverFlags parses args through corgi-server's whole flag set.
func serverFlags(t *testing.T, args ...string) registry.SpecDefaults {
	t.Helper()
	var cfg node.Config
	fs := flag.NewFlagSet("corgi-server", flag.ContinueOnError)
	cfg.Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cfg.Spec
}

func TestBuildSpecsBuiltins(t *testing.T) {
	specs, err := registry.BuildSpecs(genFlags(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "sf" {
		t.Fatalf("default specs: %+v", specs)
	}

	specs, err = registry.BuildSpecs(genFlags(t, "-regions", "sf, nyc ,la"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[1].Name != "nyc" {
		t.Fatalf("parsed specs: %+v", specs)
	}
	for _, s := range specs {
		if s.Epsilon != 15 || s.Height != 2 || s.Targets != 20 {
			t.Errorf("flag defaults not applied to %+v", s)
		}
	}

	if _, err := registry.BuildSpecs(genFlags(t, "-regions", "atlantis")); err == nil ||
		!strings.Contains(err.Error(), "sf") {
		t.Errorf("unknown builtin must fail listing builtins, got %v", err)
	}
	if _, err := registry.BuildSpecs(genFlags(t, "-regions", " , ")); err == nil {
		t.Error("blank region list must fail")
	}
}

func TestBuildSpecsConfigFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "regions.json")
	cfg := `[
		{"name": "alpha", "center_lat": 37.7, "center_lng": -122.4, "epsilon": 8},
		{"name": "beta", "center_lat": 40.7, "center_lng": -74.0, "height": 3}
	]`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	specs, err := registry.BuildSpecs(genFlags(t, "-region-config", path, "-checkins", "gowalla.txt", "-uniform-priors"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("specs: %+v", specs)
	}
	// Explicit file values win; flag defaults fill the gaps.
	if specs[0].Epsilon != 8 || specs[0].Height != 2 {
		t.Errorf("alpha spec: %+v", specs[0])
	}
	if specs[1].Height != 3 || specs[1].Epsilon != 15 {
		t.Errorf("beta spec: %+v", specs[1])
	}
	// -checkins applies to the default (first) region only.
	if specs[0].CheckinsPath != "gowalla.txt" || specs[1].CheckinsPath != "" {
		t.Errorf("checkins wiring: %+v", specs)
	}
	if !specs[0].UniformPriors || !specs[1].UniformPriors {
		t.Error("-uniform-priors must apply everywhere")
	}

	if _, err := registry.BuildSpecs(genFlags(t, "-regions", "sf", "-region-config", path)); err == nil {
		t.Error("-regions and -region-config together must fail")
	}
	if _, err := registry.BuildSpecs(genFlags(t, "-region-config", filepath.Join(t.TempDir(), "missing.json"))); err == nil {
		t.Error("missing config file must fail")
	}
}

// TestBuildSpecsHashesAgreeAcrossBinaries guards the corgi-gen /
// corgi-server store contract: one argv parsed through each binary's flag
// set addresses the same spec hashes, whether the specs come from the
// builtin table or a config file, with the defaults and with every
// generation flag moved off its default. A flag given to one side only
// moves that side's hashes: the store is then legitimately cold.
func TestBuildSpecsHashesAgreeAcrossBinaries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "regions.json")
	if err := os.WriteFile(path, []byte(`[{"name": "alpha", "center_lat": 37.7, "center_lng": -122.4},
		{"name": "beta", "center_lat": 40.7, "center_lng": -74.0, "epsilon": 8}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	hashes := func(d registry.SpecDefaults) []string {
		t.Helper()
		specs, err := registry.BuildSpecs(d)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(specs))
		for i, s := range specs {
			out[i] = s.Hash()
		}
		return out
	}
	moved := [][]string{{"-eps", "10"}, {"-height", "3"}, {"-spacing", "0.2"}, {"-iters", "2"}, {"-targets", "7"},
		{"-seed", "9"}, {"-checkins", "gowalla.txt"}, {"-uniform-priors"}}
	for _, source := range [][]string{nil, {"-regions", "sf,nyc"}, {"-region-config", path}} {
		gen := hashes(genFlags(t, source...))
		if srv := hashes(serverFlags(t, source...)); strings.Join(gen, ",") != strings.Join(srv, ",") {
			t.Errorf("%v: corgi-gen addresses %v, corgi-server %v", source, gen, srv)
		}
		all := source
		for _, one := range moved {
			all = append(all, one...)
			if srv := hashes(serverFlags(t, append(source, one...)...)); srv[0] == gen[0] {
				t.Errorf("%v: %v on corgi-server only left the default region's hash where it was", source, one)
			}
		}
		genAll, srvAll := hashes(genFlags(t, all...)), hashes(serverFlags(t, all...))
		if strings.Join(genAll, ",") != strings.Join(srvAll, ",") || genAll[0] == gen[0] {
			t.Errorf("%v: corgi-gen addresses %v, corgi-server %v, the defaults %v", all, genAll, srvAll, gen)
		}
	}
}
