package device

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/gowalla"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/session"
)

// Attributes are the user's own attributes of leaves, as seen from the
// cell they stand in ("distance" is relative to it). Preference evaluation
// asks for the leaves of one privacy subtree at a time. They never leave
// the device.
type Attributes func(cell loctree.NodeID, leaves []loctree.NodeID) (map[loctree.NodeID]policy.Attributes, error)

// Forest is Algorithm 4 on the device: the mechanism runs where the true
// location is, which is the setting Geo-Ind is stated for. The priors are
// fetched once and each (privacy_l, |S|) forest once; preferences are
// evaluated here against Attrs and only the prune set's size is sent. Each
// (uid, seed, policy) has one session.Session for its whole trajectory:
// when the cell leaves the bound subtree, or a preference-bearing user
// leaves the cell their preferences were evaluated at, the session rebinds
// and its RNG stream runs on, exactly as the server's does — so a Forest
// whose forests crossed the wire losslessly (v1) draws what the server
// would have drawn.
//
// A Forest serves one device, one report at a time: it is not safe for
// concurrent use. The request's Region is not read (the Conn is bound to
// one) and neither is ctx (the forest routes' client takes none).
type Forest struct {
	Conn *Conn
	// Attrs may be nil for a user whose policies carry no preferences.
	Attrs Attributes
	// NoCache turns the on-disk forest cache off; CacheDir moves it from
	// the user cache directory.
	NoCache  bool
	CacheDir string

	priors   *loctree.Priors
	forests  map[[2]int]*core.Forest
	sessions map[session.Key]*session.Session
}

// InHand is a Forest over forests the caller already holds: Algorithm 4
// with no server behind it, for a tree whose forests were built with
// epsilon eps. Nil priors mean uniform ones (only precision reduction reads
// them). It draws exactly what a Forest that had fetched the same forests
// draws; a (privacy_l, |S|) it was not given is refused, not fetched.
func InHand(tree *loctree.Tree, eps float64, priors *loctree.Priors, forests ...*core.Forest) *Forest {
	if priors == nil {
		priors = loctree.UniformPriors(tree)
	}
	f := &Forest{Conn: &Conn{Tree: tree, Info: &proto.TreeResponse{Epsilon: eps}}, NoCache: true,
		priors: priors, forests: make(map[[2]int]*core.Forest, len(forests))}
	for _, forest := range forests {
		f.forests[[2]int{forest.PrivacyLevel, forest.Delta}] = forest
	}
	return f
}

// CorpusAttrs stands in for the user's own data: user 0's attributes in
// the synthetic check-in corpus, with distances measured from real. The
// corpus is generated and summarized on the first call and kept for the
// later ones; a call whose build fails keeps nothing, so the next one
// tries again. Each call annotates only the leaves it is asked about.
func (c *Conn) CorpusAttrs(real geo.LatLng) Attributes {
	var (
		mu sync.Mutex
		md *gowalla.Metadata
	)
	return func(_ loctree.NodeID, leaves []loctree.NodeID) (map[loctree.NodeID]policy.Attributes, error) {
		mu.Lock()
		defer mu.Unlock()
		if md == nil {
			ds, err := gowalla.Generate(gowalla.GenConfig{Seed: 1})
			if err != nil {
				return nil, err
			}
			md = gowalla.BuildMetadata(ds.CheckIns, c.Tree)
		}
		return md.AnnotateLeaves(0, real, leaves), nil
	}
}

// Report implements Reporter.
func (f *Forest) Report(_ context.Context, req registry.ReportRequest) (*registry.ReportResult, error) {
	tree, pol := f.Conn.Tree, req.Policy
	leaf := loctree.NodeID{Coord: req.Cell}
	root, ok := tree.AncestorAt(leaf, pol.PrivacyLevel)
	if !ok {
		return nil, fmt.Errorf("no ancestor at privacy level %d", pol.PrivacyLevel)
	}
	key := session.Key{UID: req.UID, Seed: req.Seed, Policy: session.PolicyFingerprint(pol)}
	sess := f.sessions[key]
	moved := sess != nil && sess.Bound().Moved(root, leaf, pol)
	if sess == nil || moved {
		to, err := f.plan(root, leaf, pol)
		if err != nil {
			return nil, err
		}
		if sess != nil {
			err = sess.Rebind(to)
		} else {
			sess, err = session.New(session.Config{
				Tree: tree, Entry: to.Entry, Delta: to.Delta,
				Policy: pol, Pruned: to.Pruned, Anchor: to.Anchor,
				Priors: f.priors, Seed: req.Seed, Epsilon: f.Conn.Info.Epsilon,
			})
		}
		if err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
		if f.sessions == nil {
			f.sessions = map[session.Key]*session.Session{}
		}
		f.sessions[key] = sess
	}
	res := newResult(req.Count)
	from, err := sess.DrawCellNBound(leaf, res.Reports)
	if err != nil {
		return nil, fmt.Errorf("obfuscating: %w", err)
	}
	return res.done(tree, registry.Facts{Region: req.Region, SubtreeRoot: root, PrecisionLevel: pol.PrecisionLevel,
		Pruned: from.Pruned, Reanchored: moved, Degraded: from.Degraded}), nil
}

// plan is what a session standing at leaf must be bound to: the
// preferences evaluated there, and the forest entry for root that absorbs
// the resulting prune set. |S| is all the server is told of it.
func (f *Forest) plan(root, leaf loctree.NodeID, pol policy.Policy) (session.Rebind, error) {
	tree := f.Conn.Tree
	if f.priors == nil {
		// Precision reduction (Equ. 17) needs the public priors; only this
		// path does.
		priors, err := f.Conn.Client.FetchPriors(tree)
		if err != nil {
			return session.Rebind{}, fmt.Errorf("fetching priors: %w", err)
		}
		f.priors = priors
	}
	var to session.Rebind
	if len(pol.Preferences) > 0 {
		if f.Attrs == nil {
			return to, errors.New("attributes: the policy has preferences and the device has no attributes")
		}
		leaves := tree.LeavesUnder(root)
		attrs, err := f.Attrs(leaf, leaves)
		if err != nil {
			return to, fmt.Errorf("attributes: %w", err)
		}
		if to.Pruned, err = mechanism.EvalPreferences(leaves, pol, attrs); err != nil {
			return to, fmt.Errorf("preferences: %w", err)
		}
		to.Anchor = leaf
	}
	forest, err := f.forest(pol.PrivacyLevel, len(to.Pruned))
	if err != nil {
		return to, fmt.Errorf("fetching forest: %w", err)
	}
	entry, ok := forest.Entries[root]
	if !ok {
		return to, fmt.Errorf("forest has no entry for subtree %v", root)
	}
	to.Entry, to.Delta = entry, forest.Delta
	return to, nil
}

// result is a report as a device builds it. With one report, the result,
// its report and that report's center are this one object, as the stream
// client's decoded response is.
type result struct {
	registry.ReportResult
	report [1]loctree.NodeID
	center [1]geo.LatLng
}

// newResult allocates the result of a count-report ask, its Reports sized
// for the draws to be written into and its Centers for done to fill.
func newResult(count int) *result {
	res := &result{}
	if n := registry.DrawCount(count); n > len(res.report) {
		res.Reports, res.Centers = make([]loctree.NodeID, n), make([]geo.LatLng, n)
	} else {
		res.Reports, res.Centers = res.report[:], res.center[:]
	}
	return res
}

// done completes a result whose Reports are drawn: it sets the facts and
// looks up each report's center, index-aligned.
func (res *result) done(tree *loctree.Tree, facts registry.Facts) *registry.ReportResult {
	res.Facts = facts
	for i, n := range res.Reports {
		res.Centers[i] = tree.Center(n)
	}
	return &res.ReportResult
}

// cachedForest is one cached forest response: the tag to revalidate with
// and the raw body to re-decode after a 304.
type cachedForest struct {
	ETag        string `json:"etag"`
	ContentType string `json:"content_type"`
	Body        []byte `json:"body"`
}

// cachePath names one (server, region, level, delta, encoding) slot.
func (f *Forest) cachePath(level, delta int) (string, error) {
	dir := f.CacheDir
	if dir == "" {
		base, err := os.UserCacheDir()
		if err != nil {
			return "", err
		}
		dir = filepath.Join(base, "corgi-client")
	}
	wire := "v2"
	if f.Conn.Client.ForceV1 {
		wire = "v1"
	}
	key := fmt.Sprintf("%s|%s|%d|%d|%s", f.Conn.URL, f.Conn.Region, level, delta, wire)
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:12])+".json"), nil
}

// forest returns the (level, delta) forest, fetching it on first use
// through the on-disk cache: the cached copy's ETag rides as If-None-Match,
// a 304 reuses the cached bytes, and a fresh body replaces them. Any cache
// trouble (unreadable dir, stale or undecodable entry) silently degrades to
// an unconditional fetch: the cache is an optimization, never a requirement.
func (f *Forest) forest(level, delta int) (*core.Forest, error) {
	if forest, ok := f.forests[[2]int{level, delta}]; ok {
		return forest, nil
	}
	if f.Conn.Client == nil {
		return nil, fmt.Errorf("no privacy_l=%d delta=|S|=%d forest in hand and no server to ask", level, delta)
	}
	log.Printf("requesting forest: privacy_l=%d delta=|S|=%d", level, delta)
	forest, err := f.fetch(level, delta)
	if err != nil {
		return nil, err
	}
	if f.forests == nil {
		f.forests = map[[2]int]*core.Forest{}
	}
	f.forests[[2]int{level, delta}] = forest
	return forest, nil
}

func (f *Forest) fetch(level, delta int) (*core.Forest, error) {
	c, tree := f.Conn.Client, f.Conn.Tree
	path, err := f.cachePath(level, delta)
	if f.NoCache || err != nil {
		return c.FetchForest(tree, level, delta)
	}
	var cached cachedForest
	if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, &cached) != nil {
		cached = cachedForest{}
	}
	res, err := c.FetchForestTagged(tree, level, delta, cached.ETag)
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
		if res, err = c.FetchForestTagged(tree, level, delta, ""); err != nil {
			return nil, err
		}
	}
	if res.ETag != "" {
		data, err := json.Marshal(cachedForest{ETag: res.ETag, ContentType: res.ContentType, Body: res.Body})
		if err == nil && os.MkdirAll(filepath.Dir(path), 0o755) == nil {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				log.Printf("forest cache write failed: %v", err)
			}
		}
	}
	return res.Forest, nil
}
