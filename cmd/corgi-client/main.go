// Command corgi-client is the user side (Sec. 5.2): it fetches the location
// tree and privacy forest from a corgi-server, evaluates the user's policy
// locally, customizes the matrix (pruning + precision reduction), and
// prints the obfuscated location. The real location and the preference
// contents never leave this process.
//
// -region addresses one shard of a multi-region server; the default (empty)
// resolves to the server's default region, so the client works unchanged
// against single-region deployments. An unknown region fails with the
// server's 404, whose message lists the available region names.
//
// Local draws run through one report session bound to the fetched forest:
// the pruned, renormalized row and its O(1) alias sampler are derived once
// and reused across every -reports N draw, and a fixed -seed makes the
// printed sequence deterministic.
//
// -remote switches to the server-side report pipeline instead: the client
// sends (region, cell, inline policy, uid, seed, count) to POST /v1/report
// and prints the drawn reports. This trades the paper's trust model (the
// true cell and the policy cross the wire) for never downloading a matrix;
// preference evaluation then uses the *server's* region metadata, so
// remote draws with -pref may prune differently than local ones.
//
// -local-draw splits the difference: one POST /v1/lease reveals the cell
// and policy once, pre-pays -reports draws' epsilon in a single budget
// charge, and brings back the customized distribution rows plus a signed
// lease token; the draws themselves then run on-device
// (internal/clientdraw), replaying the server's RNG stream exactly — the
// printed sequence is byte-identical to what -remote would print for the
// same seed.
//
// Forests travel in the compact wire-v2 encoding with gzip by default
// (-v1 falls back to dense JSON), and the client keeps a small on-disk
// forest cache: each fetch sends the cached copy's ETag as If-None-Match,
// and a 304 reuses the cached bytes instead of re-downloading the forest.
// -cache-dir moves the cache; -no-cache disables it.
//
// Usage:
//
//	corgi-client [-server http://127.0.0.1:8080] [-region nyc] \
//	             -lat 37.765 -lng -122.435 \
//	             [-privacy 1] [-precision 0] [-pref "home != true" -pref "distance <= 5"] \
//	             [-reports 1] [-seed 0] [-remote] [-local-draw] [-uid 0] \
//	             [-v1] [-no-cache] [-cache-dir DIR]
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"corgi/internal/clientdraw"
	"corgi/internal/cluster"
	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/gowalla"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/session"
)

type prefList []string

func (p *prefList) String() string     { return fmt.Sprint(*p) }
func (p *prefList) Set(s string) error { *p = append(*p, s); return nil }

// forestCacheConfig keys the on-disk conditional-fetch cache.
type forestCacheConfig struct {
	disabled bool
	dir      string
	server   string
	region   string
	v1       bool
}

// cachedForest is one cached forest response: the tag to revalidate with
// and the raw body to re-decode after a 304.
type cachedForest struct {
	ETag        string `json:"etag"`
	ContentType string `json:"content_type"`
	Body        []byte `json:"body"`
}

// cachePath names one (server, region, level, delta, encoding) slot.
func (cfg forestCacheConfig) cachePath(level, delta int) (string, error) {
	dir := cfg.dir
	if dir == "" {
		base, err := os.UserCacheDir()
		if err != nil {
			return "", err
		}
		dir = filepath.Join(base, "corgi-client")
	}
	wire := "v2"
	if cfg.v1 {
		wire = "v1"
	}
	key := fmt.Sprintf("%s|%s|%d|%d|%s", cfg.server, cfg.region, level, delta, wire)
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:12])+".json"), nil
}

// fetchForestCached fetches a forest through the on-disk cache: the cached
// copy's ETag rides as If-None-Match, a 304 reuses the cached bytes, and a
// fresh body replaces them. Any cache trouble (unreadable dir, stale or
// undecodable entry) silently degrades to an unconditional fetch — the
// cache is an optimization, never a requirement.
func fetchForestCached(c *proto.Client, tree *loctree.Tree, level, delta int, cfg forestCacheConfig) (*core.Forest, error) {
	if cfg.disabled {
		return c.FetchForest(tree, level, delta)
	}
	path, err := cfg.cachePath(level, delta)
	if err != nil {
		return c.FetchForest(tree, level, delta)
	}
	var cached *cachedForest
	if data, err := os.ReadFile(path); err == nil {
		var cf cachedForest
		if json.Unmarshal(data, &cf) == nil && cf.ETag != "" {
			cached = &cf
		}
	}
	etag := ""
	if cached != nil {
		etag = cached.ETag
	}
	res, err := c.FetchForestTagged(tree, level, delta, etag)
	if err != nil {
		return nil, err
	}
	if res.NotModified {
		forest, err := proto.DecodeForestBody(tree, cached.ContentType, cached.Body)
		if err == nil {
			log.Printf("forest unchanged (HTTP 304), reused cached copy from %s", path)
			return forest, nil
		}
		// The cached bytes rotted; refetch unconditionally.
		os.Remove(path)
		res, err = c.FetchForestTagged(tree, level, delta, "")
		if err != nil {
			return nil, err
		}
	}
	if res.ETag != "" {
		if data, err := json.Marshal(cachedForest{ETag: res.ETag, ContentType: res.ContentType, Body: res.Body}); err == nil {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					log.Printf("forest cache write failed: %v", err)
				}
			}
		}
	}
	return res.Forest, nil
}

// dialCluster resolves -peers: it builds the same consistent-hash ring
// the servers run (member names hash identically when the flag value
// matches their -cluster-peers), walks this uid's failover sequence owner
// first, and binds to the first node that answers a tree fetch. A node
// that is down is skipped with a log line; the one that answers is
// surfaced so the user knows where their session lives. Wrong-node
// fallback is still correct — the server forwards one hop — it just adds
// that hop's latency.
func dialCluster(spec, region string, uid int64, v1 bool) (*proto.Client, string, *loctree.Tree, *proto.TreeResponse, error) {
	peers, err := cluster.ParsePeers(spec)
	if err != nil {
		return nil, "", nil, nil, err
	}
	byName := make(map[string]cluster.Peer, len(peers))
	for _, p := range peers {
		if p.HTTPURL == "" {
			// A bare entry names an HTTP endpoint directly.
			p.HTTPURL = "http://" + p.StreamAddr
		}
		byName[p.Name] = p
	}
	ring, err := cluster.RingOf(peers)
	if err != nil {
		return nil, "", nil, nil, err
	}
	seq := ring.Sequence(uid)
	var lastErr error
	for i, name := range seq {
		p := byName[name]
		c := proto.NewRegionClient(p.HTTPURL, region)
		c.ForceV1 = v1
		tree, info, err := c.FetchTree()
		if err != nil {
			lastErr = err
			log.Printf("cluster: node %s (%s) unreachable, trying next ring node: %v", name, p.HTTPURL, err)
			continue
		}
		role := "owner"
		if i > 0 {
			role = fmt.Sprintf("failover #%d for owner %s", i, seq[0])
		}
		log.Printf("cluster: node %s (%s) answered — %s for uid %d", name, p.HTTPURL, role, uid)
		return c, p.HTTPURL, tree, info, nil
	}
	return nil, "", nil, nil, fmt.Errorf("all %d cluster nodes unreachable, last error: %w", len(seq), lastErr)
}

func main() {
	server := flag.String("server", "http://127.0.0.1:8080", "corgi-server base URL")
	region := flag.String("region", "", "region name on a multi-region server (empty: server default)")
	lat := flag.Float64("lat", 37.765, "real latitude")
	lng := flag.Float64("lng", -122.435, "real longitude")
	privacy := flag.Int("privacy", 1, "privacy level (obfuscation range)")
	precision := flag.Int("precision", 0, "precision level of the report")
	reports := flag.Int("reports", 1, "number of obfuscated reports to draw")
	seed := flag.Int64("seed", 0, "sampling seed (0: time-based)")
	remote := flag.Bool("remote", false, "draw via the server-side report pipeline (POST /v1/report)")
	localDraw := flag.Bool("local-draw", false, "lease the distribution once (POST /v1/lease) and draw on-device")
	uid := flag.Int64("uid", 0, "user id for remote metadata attributes and session state")
	v1 := flag.Bool("v1", false, "request the dense v1 forest encoding instead of compact v2")
	noCache := flag.Bool("no-cache", false, "disable the on-disk forest cache")
	cacheDir := flag.String("cache-dir", "", "forest cache directory (default: user cache dir)")
	peersFlag := flag.String("peers", "",
		"cluster member list, comma-separated addr[=httpURL] entries (pass the servers' -cluster-peers value for exact owner affinity): the client contacts this uid's owner node first and fails over to the next ring node when one is down (overrides -server)")
	var prefs prefList
	flag.Var(&prefs, "pref", "preference predicate, e.g. 'home != true' (repeatable)")
	flag.Parse()

	var (
		c    *proto.Client
		tree *loctree.Tree
		info *proto.TreeResponse
		err  error
	)
	serverURL := *server
	if *peersFlag != "" {
		c, serverURL, tree, info, err = dialCluster(*peersFlag, *region, *uid, *v1)
		if err != nil {
			log.Fatalf("cluster: %v", err)
		}
	} else {
		c = proto.NewRegionClient(*server, *region)
		c.ForceV1 = *v1
		tree, info, err = c.FetchTree()
		if err != nil {
			// The server's 404 for an unknown region already lists the
			// available names; surface it verbatim.
			log.Fatalf("fetching tree: %v", err)
		}
	}
	which := *region
	if which == "" {
		which = "server default"
	}
	log.Printf("region %s: tree height %d, %d leaves, eps=%g", which, info.Height, tree.NumLeaves(), info.Epsilon)

	pol := policy.Policy{PrivacyLevel: *privacy, PrecisionLevel: *precision}
	for _, s := range prefs {
		pred, err := policy.ParsePredicate(s)
		if err != nil {
			log.Fatalf("predicate %q: %v", s, err)
		}
		pol.Preferences = append(pol.Preferences, pred)
	}
	if err := pol.Validate(tree.Height()); err != nil {
		log.Fatalf("policy: %v", err)
	}
	real := geo.LatLng{Lat: *lat, Lng: *lng}
	leaf, ok := tree.Locate(real, 0)
	if !ok {
		log.Fatalf("location outside the service region")
	}

	s := *seed
	if s == 0 {
		s = time.Now().UnixNano()
	}

	if *localDraw {
		log.Printf("draw lease: cell (%d,%d) uid %d seed %d cap %d (cell and policy cross the wire once; draws stay on-device)",
			leaf.Coord.Q, leaf.Coord.R, *uid, s, *reports)
		lr, err := c.Lease(proto.LeaseRequest{
			Request: proto.ReportRequest{
				Cell:   [2]int{leaf.Coord.Q, leaf.Coord.R},
				UID:    *uid,
				Policy: pol,
				Seed:   s,
			},
			Draws: *reports,
		})
		if err != nil {
			log.Fatalf("lease: %v", err)
		}
		lease, err := clientdraw.Open(tree, lr.Bundle, lr.Token)
		if err != nil {
			log.Fatalf("opening lease: %v", err)
		}
		if lr.Budgeted {
			log.Printf("lease granted: %d draws pre-paid (eps %.4g spent, %.4g remaining), expires %s",
				lr.DrawCap, lr.EpsSpent, lr.EpsRemaining,
				time.UnixMilli(lr.ExpiresUnixMs).Format(time.RFC3339))
		} else {
			log.Printf("lease granted: %d draws, expires %s",
				lr.DrawCap, time.UnixMilli(lr.ExpiresUnixMs).Format(time.RFC3339))
		}
		for i := 0; i < *reports; i++ {
			reported, err := lease.DrawCell(leaf)
			if err != nil {
				log.Fatalf("local draw: %v", err)
			}
			center := tree.Center(reported)
			fmt.Printf("report %d: node %v center %.6f,%.6f (moved %.3f km, pruned %d)\n",
				i+1, reported, center.Lat, center.Lng,
				geo.Haversine(real, center), lr.Pruned)
		}
		return
	}

	if *remote {
		log.Printf("remote report: cell (%d,%d) uid %d seed %d count %d (cell and policy cross the wire)",
			leaf.Coord.Q, leaf.Coord.R, *uid, s, *reports)
		resp, err := c.Report(proto.ReportRequest{
			Cell:   [2]int{leaf.Coord.Q, leaf.Coord.R},
			UID:    *uid,
			Policy: pol,
			Seed:   s,
			Count:  *reports,
		})
		if err != nil {
			log.Fatalf("remote report: %v", err)
		}
		for i, rep := range resp.Reports {
			center := geo.LatLng{Lat: rep.Lat, Lng: rep.Lng}
			fmt.Printf("report %d: node L%d(%d,%d) center %.6f,%.6f (moved %.3f km, pruned %d)\n",
				i+1, resp.PrecisionLevel, rep.Q, rep.R, rep.Lat, rep.Lng,
				geo.Haversine(real, center), resp.Pruned)
		}
		return
	}

	// Only the local sampling path needs the public priors (precision
	// reduction, Equ. 17); the remote path above never fetches them.
	priors, err := c.FetchPriors(tree)
	if err != nil {
		log.Fatalf("fetching priors: %v", err)
	}

	// Local attributes for preference evaluation: derived from the
	// synthetic corpus (a real deployment would use the user's own data —
	// it stays on-device either way).
	var attrs map[loctree.NodeID]policy.Attributes
	if len(pol.Preferences) > 0 {
		ds, err := gowalla.Generate(gowalla.GenConfig{Seed: 1})
		if err != nil {
			log.Fatalf("attributes: %v", err)
		}
		md, err := gowalla.BuildMetadata(ds.CheckIns, tree, 0.2)
		if err != nil {
			log.Fatalf("attributes: %v", err)
		}
		attrs = md.Annotate(0, real)
	}

	// Count the prune set first so only |S| is requested from the server.
	delta := 0
	if len(pol.Preferences) > 0 {
		root, _ := tree.AncestorAt(leaf, pol.PrivacyLevel)
		pruned, err := mechanism.EvalPreferences(tree.LeavesUnder(root), pol, attrs)
		if err != nil {
			log.Fatalf("preferences: %v", err)
		}
		delta = len(pruned)
	}
	log.Printf("requesting forest: privacy_l=%d delta=|S|=%d", pol.PrivacyLevel, delta)
	forest, err := fetchForestCached(c, tree, pol.PrivacyLevel, delta, forestCacheConfig{
		disabled: *noCache,
		dir:      *cacheDir,
		server:   serverURL,
		region:   *region,
		v1:       *v1,
	})
	if err != nil {
		log.Fatalf("fetching forest: %v", err)
	}

	// Bind one local report session to the fetched forest: the pruned,
	// renormalized row and its alias sampler derive once, and every draw
	// after the first is O(1) — no per-report re-customization.
	root, ok := tree.AncestorAt(leaf, pol.PrivacyLevel)
	if !ok {
		log.Fatalf("no ancestor at privacy level %d", pol.PrivacyLevel)
	}
	entry, ok := forest.Entries[root]
	if !ok {
		log.Fatalf("forest has no entry for subtree %v", root)
	}
	sess, err := session.New(session.Config{
		Tree:   tree,
		Entry:  entry,
		Delta:  forest.Delta,
		Policy: pol,
		Attrs:  attrs,
		Priors: priors,
		Seed:   s,
	})
	if err != nil {
		log.Fatalf("session: %v", err)
	}
	for i := 0; i < *reports; i++ {
		reported, err := sess.DrawCell(leaf)
		if err != nil {
			log.Fatalf("obfuscating: %v", err)
		}
		center := tree.Center(reported)
		fmt.Printf("report %d: node %v center %.6f,%.6f (moved %.3f km, pruned %d)\n",
			i+1, reported, center.Lat, center.Lng,
			geo.Haversine(real, center), len(sess.Pruned()))
	}
}
