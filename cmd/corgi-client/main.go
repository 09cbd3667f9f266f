// Command corgi-client is the user side (Sec. 5.2): flags over
// internal/device. By default it is the paper's path (device.Forest): it
// fetches the location tree and one privacy forest from a corgi-server,
// evaluates the user's policy locally, customizes the matrix (pruning +
// precision reduction) in one report session, and prints the obfuscated
// locations. The real location and the preference contents never leave
// this process; a fixed -seed makes the printed sequence deterministic.
//
// -region addresses one shard of a multi-region server; the default (empty)
// resolves to the server's default region, so the client works unchanged
// against single-region deployments. An unknown region fails with the
// server's 404, whose message lists the available region names. -peers
// binds to the uid's owner node of a cluster instead of -server, failing
// over along the ring (device.Dial).
//
// -remote switches to the server-side report pipeline instead
// (proto.Client.Remote): the client sends (region, cell, inline policy,
// uid, seed, count) to POST /v1/report and prints the drawn reports. This
// trades the paper's trust model (the true cell and the policy cross the
// wire) for never downloading a matrix; preference evaluation then uses
// the *server's* region metadata, so remote draws with -pref may prune
// differently than local ones.
//
// -local-draw splits the difference (device.Leased): one POST /v1/lease
// reveals the cell and policy once, pre-pays -reports draws' epsilon in a
// single budget charge, and brings back the customized distribution rows
// plus a signed lease token; the draws themselves then run on-device,
// replaying the server's RNG stream exactly — the printed sequence is
// byte-identical to what -remote would print for the same seed.
//
// The three are one loop over three reporters, so -remote and -local-draw
// together, or -reports below 1, are usage errors.
//
// Forests travel in the compact wire-v2 encoding with gzip by default
// (-v1 falls back to dense JSON), and the client keeps a small on-disk
// forest cache: each fetch sends the cached copy's ETag as If-None-Match,
// and a 304 reuses the cached bytes instead of re-downloading the forest.
// -cache-dir moves the cache; -no-cache disables it.
//
// Usage:
//
//	corgi-client [-server http://127.0.0.1:8080 | -peers LIST] [-region nyc] \
//	             -lat 37.765 -lng -122.435 \
//	             [-privacy 1] [-precision 0] [-pref "home != true" -pref "distance <= 5"] \
//	             [-reports 1] [-seed 0] [-remote | -local-draw] [-uid 0] \
//	             [-v1] [-no-cache] [-cache-dir DIR]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"corgi/internal/device"
	"corgi/internal/geo"
	"corgi/internal/policy"
)

type prefList []string

func (p *prefList) String() string     { return fmt.Sprint(*p) }
func (p *prefList) Set(s string) error { *p = append(*p, s); return nil }

// options is one field per flag.
type options struct {
	server, region, peers, cacheDir string
	lat, lng                        float64
	privacy, precision, reports     int
	seed, uid                       int64
	remote, localDraw, v1, noCache  bool
	prefs                           prefList
}

func (o *options) bind(fs *flag.FlagSet) {
	fs.StringVar(&o.server, "server", "http://127.0.0.1:8080", "corgi-server base URL")
	fs.StringVar(&o.region, "region", "", "region name on a multi-region server (empty: server default)")
	fs.Float64Var(&o.lat, "lat", 37.765, "real latitude")
	fs.Float64Var(&o.lng, "lng", -122.435, "real longitude")
	fs.IntVar(&o.privacy, "privacy", 1, "privacy level (obfuscation range)")
	fs.IntVar(&o.precision, "precision", 0, "precision level of the report")
	fs.IntVar(&o.reports, "reports", 1, "number of obfuscated reports to draw")
	fs.Int64Var(&o.seed, "seed", 0, "sampling seed (0: time-based)")
	fs.BoolVar(&o.remote, "remote", false, "draw via the server-side report pipeline (POST /v1/report)")
	fs.BoolVar(&o.localDraw, "local-draw", false, "lease the distribution once (POST /v1/lease) and draw on-device")
	fs.Int64Var(&o.uid, "uid", 0, "user id for remote metadata attributes and session state")
	fs.BoolVar(&o.v1, "v1", false, "request the dense v1 forest encoding instead of compact v2")
	fs.BoolVar(&o.noCache, "no-cache", false, "disable the on-disk forest cache")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "forest cache directory (default: user cache dir)")
	fs.StringVar(&o.peers, "peers", "",
		"cluster member list, comma-separated addr[=httpURL] entries (pass the servers' -cluster-peers value for exact owner affinity): the client contacts this uid's owner node first and fails over to the next ring node when one is down (overrides -server)")
	fs.Var(&o.prefs, "pref", "preference predicate, e.g. 'home != true' (repeatable)")
}

// check refuses what the three paths used to disagree on: -reports 0 drew
// nothing locally, one report remotely, and was charged a lease it never
// used; -remote -local-draw silently meant -local-draw.
func (o *options) check() error {
	switch {
	case o.reports < 1:
		return errors.New("-reports must be >= 1")
	case o.remote && o.localDraw:
		return errors.New("-remote and -local-draw are different paths to a report: pick one")
	}
	return nil
}

func main() {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()
	if err := o.check(); err != nil {
		fmt.Fprintln(flag.CommandLine.Output(), err)
		flag.Usage()
		os.Exit(2)
	}

	conn, err := device.Dial(o.server, o.peers, o.region, o.uid, o.v1)
	if err != nil {
		// The server's 404 for an unknown region already lists the
		// available names; surface it verbatim.
		log.Fatal(err)
	}
	which := o.region
	if which == "" {
		which = "server default"
	}
	log.Printf("region %s: tree height %d, %d leaves, eps=%g", which, conn.Info.Height, conn.Tree.NumLeaves(), conn.Info.Epsilon)

	pol := policy.Policy{PrivacyLevel: o.privacy, PrecisionLevel: o.precision}
	for _, s := range o.prefs {
		pred, err := policy.ParsePredicate(s)
		if err != nil {
			log.Fatalf("predicate %q: %v", s, err)
		}
		pol.Preferences = append(pol.Preferences, pred)
	}
	if o.seed == 0 {
		o.seed = time.Now().UnixNano()
	}
	real := geo.LatLng{Lat: o.lat, Lng: o.lng}
	req, err := conn.Ask(real, o.uid, pol, o.seed, o.reports)
	if err != nil {
		log.Fatal(err)
	}

	// The three ways to a report differ in what crosses the wire (package
	// device); what comes back is one result.
	var (
		reporter device.Reporter
		failed   string
	)
	switch {
	case o.localDraw:
		log.Printf("draw lease: cell (%d,%d) uid %d seed %d cap %d (cell and policy cross the wire once; draws stay on-device)",
			req.Cell.Q, req.Cell.R, o.uid, o.seed, o.reports)
		reporter, failed = &device.Leased{Remote: conn.Client.Remote(), Tree: conn.TreeOf, Draws: o.reports}, "lease: "
	case o.remote:
		log.Printf("remote report: cell (%d,%d) uid %d seed %d count %d (cell and policy cross the wire)",
			req.Cell.Q, req.Cell.R, o.uid, o.seed, o.reports)
		reporter, failed = conn.Client.Remote(), "remote report: "
	default:
		// Local attributes for preference evaluation come from the
		// synthetic corpus (a real deployment would use the user's own
		// data; it stays on-device either way).
		reporter = &device.Forest{Conn: conn, Attrs: conn.CorpusAttrs(real), NoCache: o.noCache, CacheDir: o.cacheDir}
	}
	res, err := reporter.Report(context.Background(), req)
	if err != nil {
		log.Fatalf("%s%v", failed, err)
	}
	if o.localDraw && res.Budgeted {
		log.Printf("lease granted: %d draws pre-paid (eps %.4g spent, %.4g remaining)", o.reports, res.EpsSpent, res.EpsRemaining)
	} else if o.localDraw {
		log.Printf("lease granted: %d draws", o.reports)
	}
	for i, n := range res.Reports {
		center := res.Centers[i]
		fmt.Printf("report %d: node %v center %.6f,%.6f (moved %.3f km, pruned %d)\n",
			i+1, n, center.Lat, center.Lng, geo.Haversine(real, center), res.Pruned)
	}
}
