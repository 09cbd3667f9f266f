package registry

import (
	"flag"
	"fmt"
	"strings"
)

// SpecDefaults is what the region flags parse into: where the specs come
// from, and the generation defaults applied to any spec field left at its
// zero value. corgi-server and corgi-gen declare these flags through the
// one Bind and assemble through the one BuildSpecs, so the spec hashes —
// and therefore the persistent-store snapshots — they address agree by
// construction: a store populated by corgi-gen under some flag set is hit
// by a corgi-server started with the same flags.
type SpecDefaults struct {
	// Regions is comma-separated builtin metro names (empty means "sf");
	// RegionConfig is a file holding a JSON array of specs. At most one of
	// the two may be set.
	Regions, RegionConfig string

	Epsilon       float64
	Height        int
	LeafSpacingKm float64
	Iterations    int
	Targets       int
	Seed          int64
	UniformPriors bool
	// CheckinsPath is applied to the first (default) region only.
	CheckinsPath string
}

// Bind declares the ten region flags on fs. work is what -uniform-priors
// speeds up in the binary's own words, the one place the two help texts
// differ.
func (d *SpecDefaults) Bind(fs *flag.FlagSet, work string) {
	fs.StringVar(&d.Regions, "regions", "", "comma-separated builtin region names (default: sf)")
	fs.StringVar(&d.RegionConfig, "region-config", "", "JSON region-spec file (overrides -regions)")
	fs.Float64Var(&d.Epsilon, "eps", specDefaults.Epsilon, "default Geo-Ind privacy budget (km^-1)")
	fs.IntVar(&d.Height, "height", specDefaults.Height, "default tree height (2 -> 49 leaves, 3 -> 343)")
	fs.Float64Var(&d.LeafSpacingKm, "spacing", specDefaults.LeafSpacingKm, "default leaf cell center spacing in km")
	fs.IntVar(&d.Iterations, "iters", specDefaults.Iterations, "default Algorithm-1 robust iterations")
	fs.IntVar(&d.Targets, "targets", specDefaults.Targets, "default service target count per region")
	fs.StringVar(&d.CheckinsPath, "checkins", "", "Gowalla check-in file for the default region's priors")
	fs.Int64Var(&d.Seed, "seed", 0, "synthetic-prior seed override (0: per-region name hash)")
	fs.BoolVar(&d.UniformPriors, "uniform-priors", false, "use uniform priors everywhere (fast "+work+")")
}

// BuildSpecs assembles region specs from d.Regions or d.RegionConfig, then
// fills unset fields from the flag defaults.
func BuildSpecs(d SpecDefaults) ([]Spec, error) {
	var specs []Spec
	switch {
	case d.RegionConfig != "" && d.Regions != "":
		return nil, fmt.Errorf("use either -regions or -region-config, not both")
	case d.RegionConfig != "":
		var err error
		specs, err = LoadSpecsFile(d.RegionConfig)
		if err != nil {
			return nil, err
		}
	default:
		if d.Regions == "" {
			d.Regions = "sf"
		}
		for _, name := range strings.Split(d.Regions, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			spec, ok := BuiltinSpec(name)
			if !ok {
				return nil, fmt.Errorf("unknown builtin region %q; builtins: %s (use -region-config for custom regions)",
					name, strings.Join(BuiltinNames(), ", "))
			}
			specs = append(specs, spec)
		}
		if len(specs) == 0 {
			return nil, fmt.Errorf("-regions named no regions")
		}
	}
	for i := range specs {
		specs[i].fill(Spec{LeafSpacingKm: d.LeafSpacingKm, Height: d.Height, Epsilon: d.Epsilon,
			Iterations: d.Iterations, Targets: d.Targets, Seed: d.Seed})
		if d.UniformPriors {
			specs[i].UniformPriors = true
		}
	}
	if d.CheckinsPath != "" {
		specs[0].CheckinsPath = d.CheckinsPath
	}
	return specs, nil
}
