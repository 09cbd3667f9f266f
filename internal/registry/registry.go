// Package registry is the multi-region sharding layer: it owns a set of
// named regions, each with its own location tree, priors, service targets,
// and concurrent generation engine (a core.Server shard), and bootstraps
// them lazily on first use.
//
// Real deployments of geo-indistinguishability mechanisms span many metro
// areas with heterogeneous priors, and per-region optimal mechanisms must
// be computed and cached independently — which maps directly onto one
// engine shard per region. The registry guarantees each region bootstraps
// exactly once even under a stampede of concurrent first requests
// (per-region singleflight), optionally warms a shard's cache right after
// bootstrap, and folds per-shard engine counters into an aggregate view.
package registry

import (
	"cmp"
	"context"
	cryptorand "crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"corgi/internal/budget"
	"corgi/internal/core"
	"corgi/internal/flight"
	"corgi/internal/geo"
	"corgi/internal/gowalla"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/session"
	"corgi/internal/store"
)

// Spec declares one region: where it is, how its tree is built, and how
// its matrices are generated. The zero value of every field except Name
// and the center is completed by defaults (see withDefaults), so a config
// file only needs to name what it wants to override.
type Spec struct {
	// Name addresses the region on the wire (?region=...). Required,
	// unique within a registry.
	Name string `json:"name"`
	// CenterLat/CenterLng anchor the region's location tree. Required.
	CenterLat float64 `json:"center_lat"`
	CenterLng float64 `json:"center_lng"`
	// LeafSpacingKm is the leaf cell center spacing. Default 0.1.
	LeafSpacingKm float64 `json:"leaf_spacing_km,omitempty"`
	// Height is the location-tree height (2 -> 49 leaves, 3 -> 343).
	// Default 2.
	Height int `json:"height,omitempty"`
	// Epsilon is the Geo-Ind budget in km^-1. Default 15.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Iterations is the Algorithm-1 robustness round count. Default 5.
	Iterations int `json:"iterations,omitempty"`
	// Targets is how many service target locations to spread over the
	// leaves. Default 20. It may not exceed the tree's 7^Height leaves, so
	// a height-1 region (7 leaves) must set it.
	Targets int `json:"targets,omitempty"`
	// Seed drives the synthetic check-in sample that builds the priors.
	// Default: a stable hash of Name, so distinct regions get distinct
	// priors deterministically.
	Seed int64 `json:"seed,omitempty"`
	// CheckinsPath optionally points at a real Gowalla check-in file;
	// check-ins outside the region's bounding box are dropped.
	CheckinsPath string `json:"checkins_path,omitempty"`
	// SyntheticCheckIns sizes the synthetic sample when CheckinsPath is
	// empty. Default 38523 (the paper's SF sample); must be at least 500.
	SyntheticCheckIns int `json:"synthetic_checkins,omitempty"`
	// UniformPriors skips check-in data for the priors and uses the
	// uniform leaf distribution (fast bootstrap; useful for tests and load
	// rigs). The policy metadata of a preference-bearing report still
	// derives from the check-in source, so SyntheticCheckIns still has to
	// be at least 500 when CheckinsPath is empty.
	UniformPriors bool `json:"uniform_priors,omitempty"`
}

// Center returns the region's anchor point.
func (s Spec) Center() geo.LatLng { return geo.LatLng{Lat: s.CenterLat, Lng: s.CenterLng} }

// specDefaults is what a spec's zero generation fields mean (Seed's zero
// means a hash of the region's name instead). The region flags default to
// the same values, so a spec completed from flags and one completed here
// hash alike.
var specDefaults = Spec{LeafSpacingKm: 0.1, Height: 2, Epsilon: 15, Iterations: 5, Targets: 20, SyntheticCheckIns: 38523}

// fill completes s's zero generation fields from d's.
func (s *Spec) fill(d Spec) {
	s.LeafSpacingKm = cmp.Or(s.LeafSpacingKm, d.LeafSpacingKm)
	s.Height = cmp.Or(s.Height, d.Height)
	s.Epsilon = cmp.Or(s.Epsilon, d.Epsilon)
	s.Iterations = cmp.Or(s.Iterations, d.Iterations)
	s.Targets = cmp.Or(s.Targets, d.Targets)
	s.Seed = cmp.Or(s.Seed, d.Seed)
	s.SyntheticCheckIns = cmp.Or(s.SyntheticCheckIns, d.SyntheticCheckIns)
}

func (s Spec) withDefaults() Spec {
	s.fill(specDefaults)
	s.Seed = cmp.Or(s.Seed, nameSeed(s.Name))
	return s
}

func (s Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("registry: region spec needs a name")
	}
	if strings.ContainsAny(s.Name, " ,?&=/") {
		return fmt.Errorf("registry: region name %q contains reserved characters", s.Name)
	}
	if s.CenterLat == 0 && s.CenterLng == 0 {
		// (0,0) is open ocean; a zero center is always a missing or
		// misspelled center_lat/center_lng in a config file.
		return fmt.Errorf("registry: region %q needs center_lat and center_lng", s.Name)
	}
	if !s.Center().Valid() {
		return fmt.Errorf("registry: region %q center %v invalid", s.Name, s.Center())
	}
	// NaN and ±Inf pass every comparison below and make Hash's JSON
	// encoding fail.
	if math.IsNaN(s.LeafSpacingKm) || math.IsInf(s.LeafSpacingKm, 0) ||
		math.IsNaN(s.Epsilon) || math.IsInf(s.Epsilon, 0) {
		return fmt.Errorf("registry: region %q needs a finite leaf_spacing_km and epsilon", s.Name)
	}
	if s.LeafSpacingKm < 0 || s.Height < 0 || s.Epsilon < 0 || s.Iterations < 0 || s.Targets < 0 {
		return fmt.Errorf("registry: region %q has negative parameters", s.Name)
	}
	// An aperture-7 height-h tree has 7^h leaves, so a bad target count
	// can be rejected at registration instead of at (lazy) bootstrap.
	leaves := 1
	for i := 0; i < s.Height; i++ {
		leaves *= 7
	}
	if s.Targets > leaves {
		return fmt.Errorf("registry: region %q asks for %d targets from %d leaves: set targets to at most %d (7^height)",
			s.Name, s.Targets, leaves, leaves)
	}
	// gowalla.Each rejects fewer check-ins than its 500 synthetic users;
	// surface that at registration instead of at (lazy) bootstrap or at
	// the first preference-bearing report, whose metadata a uniform-priors
	// region still synthesizes.
	if s.CheckinsPath == "" && s.SyntheticCheckIns < 500 {
		return fmt.Errorf("registry: region %q synthetic_checkins %d below the generator minimum 500",
			s.Name, s.SyntheticCheckIns)
	}
	return nil
}

// specHashVersion stamps the hash input so a future change to generation
// semantics (not just spec fields) can invalidate every existing snapshot
// at once by bumping it.
const specHashVersion = "corgi-spec-v1"

// Hash fingerprints the full set of generation inputs this spec implies:
// the canonical JSON of the spec with defaults applied, prefixed by a
// format-version tag, hashed with SHA-256. It keys the persistent forest
// store (internal/store) — any change to a region's priors, tree shape, or
// generation parameters changes the hash, so stale snapshots are never
// addressed again, let alone served. Note the hash covers CheckinsPath's
// value, not the file's contents; republishing changed check-in data under
// the same path requires a new path (or clearing the store).
func (s Spec) Hash() string {
	canon, err := json.Marshal(s.withDefaults())
	if err != nil {
		// Spec is a plain struct of scalars; Marshal cannot fail on it.
		panic(fmt.Sprintf("registry: marshaling spec: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(specHashVersion))
	h.Write([]byte{0})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil))
}

// nameSeed derives a stable positive seed from a region name.
func nameSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & (1<<63 - 1))
}

// ParseSpecs decodes a JSON array of region specs (the -region-config file
// format of cmd/corgi-server).
func ParseSpecs(data []byte) ([]Spec, error) {
	var specs []Spec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("registry: parsing region config: %w", err)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("registry: region config is empty")
	}
	return specs, nil
}

// LoadSpecsFile reads a JSON region-config file.
func LoadSpecsFile(path string) ([]Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSpecs(data)
}

// builtinMetros are the region names cmd/corgi-server accepts without a
// config file. "sf" matches the paper's evaluation region; the rest are
// metro centers for multi-region scale runs.
var builtinMetros = []Spec{
	{Name: "sf", CenterLat: 37.765, CenterLng: -122.435},
	{Name: "nyc", CenterLat: 40.7128, CenterLng: -74.0060},
	{Name: "la", CenterLat: 34.0522, CenterLng: -118.2437},
	{Name: "chicago", CenterLat: 41.8781, CenterLng: -87.6298},
	{Name: "seattle", CenterLat: 47.6062, CenterLng: -122.3321},
	{Name: "boston", CenterLat: 42.3601, CenterLng: -71.0589},
	{Name: "austin", CenterLat: 30.2672, CenterLng: -97.7431},
	{Name: "london", CenterLat: 51.5074, CenterLng: -0.1278},
	{Name: "paris", CenterLat: 48.8566, CenterLng: 2.3522},
	{Name: "tokyo", CenterLat: 35.6762, CenterLng: 139.6503},
}

// BuiltinSpec returns the builtin spec for a metro name.
func BuiltinSpec(name string) (Spec, bool) {
	for _, s := range builtinMetros {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// BuiltinNames lists the builtin metro names in declaration order.
func BuiltinNames() []string {
	names := make([]string, len(builtinMetros))
	for i, s := range builtinMetros {
		names[i] = s.Name
	}
	return names
}

// Options tunes every shard in a registry.
type Options struct {
	// Engine is the per-shard engine tuning (workers, cache bytes). Each
	// shard gets its own worker pool and cache of this shape. Engine.Store
	// is overridden per shard when Store is set.
	Engine core.EngineOptions
	// WarmupDelta >= 0 precomputes every (level, delta <= WarmupDelta)
	// forest right after a shard bootstraps; negative disables warmup.
	WarmupDelta int
	// Store, when non-nil, is the persistent forest store shared by every
	// shard: each bootstrap attaches a per-region view keyed by the spec's
	// hash, hydrates the shard's cache from existing snapshots (so a
	// restarted or -eager server serves precomputed forests with zero LP
	// solves), and newly solved forests write back asynchronously. A spec
	// change changes the hash, invalidating that region's old snapshots.
	Store *store.Store
	// SessionCap bounds each shard's live report-session LRU. <= 0 uses
	// session.DefaultCap.
	SessionCap int
	// Budget, when Budget.LimitEps > 0, attaches a per-shard sliding-window
	// epsilon accountant: every report draw charges the region's epsilon
	// against the requesting user's window cap (linear composition), and a
	// user over cap is rejected with budget.ErrBudgetExhausted until spend
	// slides out of the window. The zero value disables accounting.
	// Budget.Now is the registry's clock with accounting on or off: lease
	// tokens are stamped and their expiry checked against it.
	Budget budget.Config
	// LeaseSecret is the master secret the HMAC lease-token keyring derives
	// per-user signing keys from (see internal/budget.Keyring). Empty
	// generates a random per-process secret: leases still work, but tokens
	// do not survive a restart and cannot be verified by a peer node.
	LeaseSecret []byte
	// LeaseTTL bounds draw-lease lifetime; <= 0 uses DefaultLeaseTTL.
	LeaseTTL time.Duration
	// MaxReportCount caps the draws one Report — or one Lease — may ask
	// for, on every entry (in-process, cluster-forwarded, HTTP, stream);
	// <= 0 uses DefaultMaxReportCount. MaxBatch caps the items of one
	// batch request; <= 0 uses DefaultMaxBatch. See limits.go.
	MaxReportCount int
	MaxBatch       int
}

// Shard is one bootstrapped region: its spec, its serving engine, and its
// report-session cache. The tree and priors are reachable through
// Server.Tree and Server.Priors.
type Shard struct {
	Spec   Spec
	Server *core.Server
	// Sessions is the shard's bounded LRU of live report sessions; the
	// report path reuses a resident session's alias rows and RNG stream
	// across a user's repeat reports, re-anchoring it when the user moves.
	Sessions *session.Manager
	// Budget is the shard's per-user epsilon accountant; nil when
	// Options.Budget left accounting disabled.
	Budget *budget.Accountant

	// meta is the region's policy-attribute metadata (home / office /
	// outlier / popular heuristics, Sec. 6.1), derived from the same
	// check-in source as the priors. Only the report path needs it, and
	// only for policies with preferences, so no bootstrap pays for it up
	// front: Metadata builds it on first use, joining concurrent first
	// callers onto one build in metaBuild, and keeps only a success.
	meta      atomic.Pointer[gowalla.Metadata]
	metaBuild flight.Group[struct{}, *gowalla.Metadata]
}

// Metadata returns the shard's policy metadata, building it on first use.
// Regions configured with UniformPriors still derive metadata from their
// check-in source (a seeded synthetic sample unless CheckinsPath is set),
// so preference-bearing report requests work against fast-bootstrap
// regions too. A synthetic sample streams from gowalla.Each into the
// builder and is never stored. A failed build is not kept: the next call
// tries again, so a check-in file that appears later is picked up.
func (sh *Shard) Metadata() (*gowalla.Metadata, error) {
	if md := sh.meta.Load(); md != nil {
		return md, nil
	}
	return sh.metaBuild.Do(context.Background(), struct{}{}, func() (*gowalla.Metadata, error) {
		// A build that finished after the load above published before it
		// freed the key.
		if md := sh.meta.Load(); md != nil {
			return md, nil
		}
		tree := sh.Server.Tree()
		b := gowalla.NewMetadataBuilder(tree)
		if err := eachRegionCheckIn(sh.Spec, tree, b.Add); err != nil {
			return nil, fmt.Errorf("registry: region %q metadata: %w", sh.Spec.Name, err)
		}
		md := b.Build()
		sh.meta.Store(md)
		return md, nil
	})
}

// Attrs builds the attribute map one user's preference evaluation sees
// over the given leaves, anchored at refLoc (the "distance" attribute is
// relative to it). Callers pass the privacy subtree's leaves, so only
// those are annotated.
func (sh *Shard) Attrs(uid int, refLoc geo.LatLng, leaves []loctree.NodeID) (map[loctree.NodeID]policy.Attributes, error) {
	md, err := sh.Metadata()
	if err != nil {
		return nil, err
	}
	return md.AnnotateLeaves(uid, refLoc, leaves), nil
}

// ErrUnknownRegion marks lookups of regions the registry was not
// configured with; the wrapped message lists the available names.
var ErrUnknownRegion = errors.New("unknown region")

// ReportHandler is the serving surface the transports (internal/proto,
// internal/stream) call instead of the registry directly. *Registry
// implements it by serving locally; the cluster router (internal/cluster)
// implements it by forwarding non-owned users to their owner node and
// delegating owned ones to the embedded registry — so clustering slots in
// without either transport knowing whether it runs on a 1-node or N-node
// deployment.
type ReportHandler interface {
	Report(ctx context.Context, req ReportRequest) (*ReportResult, error)
	Lease(ctx context.Context, req LeaseRequest) (*LeaseGrant, error)
}

// Registry owns the region set and their lazily-bootstrapped shards.
type Registry struct {
	opts  Options
	order []string
	specs map[string]Spec

	mu     sync.Mutex
	shards map[string]*Shard
	// booting joins concurrent first requests for a region onto one
	// bootstrap.
	booting flight.Group[string, *Shard]

	bootstraps atomic.Uint64

	// keyring signs and verifies draw-lease tokens (registry-level: a
	// lease token names its region, one key hierarchy covers all shards);
	// lease holds the lease counters.
	keyring *budget.Keyring
	lease   leaseCounters
}

// New validates the specs (defaults applied) and returns a registry with
// no shards bootstrapped yet. The first spec is the default region.
func New(specs []Spec, opts Options) (*Registry, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("registry: at least one region spec required")
	}
	if opts.Engine.Store != nil {
		// A raw engine store has no region namespacing: every shard would
		// read and write the same bare (level, delta) keys, cross-serving
		// forests between regions. The registry only supports the
		// spec-hash-keyed path.
		return nil, fmt.Errorf("registry: set Options.Store (per-region, spec-hash keyed) instead of Options.Engine.Store")
	}
	if opts.WarmupDelta < 0 {
		opts.WarmupDelta = -1
	}
	if opts.Budget.LimitEps > 0 {
		// Construct-and-discard validates the config once at registration
		// instead of failing every lazy bootstrap.
		if _, err := budget.NewAccountant(opts.Budget); err != nil {
			return nil, fmt.Errorf("registry: budget config: %w", err)
		}
	} else if opts.Budget.LimitEps < 0 {
		return nil, fmt.Errorf("registry: budget limit %v is negative (0 disables accounting)", opts.Budget.LimitEps)
	}
	secret := opts.LeaseSecret
	if len(secret) == 0 {
		secret = make([]byte, 32)
		if _, err := cryptorand.Read(secret); err != nil {
			return nil, fmt.Errorf("registry: generating lease secret: %w", err)
		}
	}
	keyring, err := budget.NewKeyring(secret)
	if err != nil {
		return nil, fmt.Errorf("registry: lease keyring: %w", err)
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.Budget.Now == nil {
		opts.Budget.Now = time.Now
	}
	if opts.MaxReportCount <= 0 {
		opts.MaxReportCount = DefaultMaxReportCount
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	r := &Registry{
		opts:    opts,
		specs:   make(map[string]Spec, len(specs)),
		shards:  make(map[string]*Shard, len(specs)),
		keyring: keyring,
	}
	for _, s := range specs {
		s = s.withDefaults()
		if err := s.validate(); err != nil {
			return nil, err
		}
		if _, dup := r.specs[s.Name]; dup {
			return nil, fmt.Errorf("registry: duplicate region %q", s.Name)
		}
		r.specs[s.Name] = s
		r.order = append(r.order, s.Name)
	}
	return r, nil
}

// Names returns the configured region names in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.order...) }

// DefaultRegion is the first configured region, used when a request names
// no region.
func (r *Registry) DefaultRegion() string { return r.order[0] }

// Spec returns the (defaulted) spec for a region.
func (r *Registry) Spec(name string) (Spec, bool) {
	s, ok := r.specs[name]
	return s, ok
}

// Ready reports whether a region's shard has bootstrapped.
func (r *Registry) Ready(name string) bool {
	_, ok := r.ShardIfReady(name)
	return ok
}

// ShardIfReady returns a region's shard only if it has already
// bootstrapped — never triggering a bootstrap. The cluster router uses it
// to export budget handoffs: a region this node never served has no local
// spend to hand off, so there is nothing to bootstrap for. An empty name
// resolves to the default region, mirroring Shard.
func (r *Registry) ShardIfReady(name string) (*Shard, bool) {
	if name == "" {
		name = r.DefaultRegion()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sh, ok := r.shards[name]
	return sh, ok
}

// Bootstraps counts completed shard bootstraps (lazy-init observability:
// under any concurrency it never exceeds the region count).
func (r *Registry) Bootstraps() uint64 { return r.bootstraps.Load() }

// Shard returns the serving shard for a region, bootstrapping it on first
// use. Concurrent first requests for the same region join one bootstrap
// (per-region singleflight); requests for distinct regions bootstrap in
// parallel. A waiter whose context expires abandons the wait — the
// bootstrap itself completes for the remaining waiters and the registry.
func (r *Registry) Shard(ctx context.Context, name string) (*Shard, error) {
	if name == "" {
		name = r.DefaultRegion()
	}
	spec, ok := r.specs[name]
	if !ok {
		return nil, fmt.Errorf("%w %q; available regions: %s",
			ErrUnknownRegion, name, strings.Join(r.order, ", "))
	}
	if sh, ok := r.ShardIfReady(name); ok {
		// A ready shard costs nothing to hand out, so an expired context
		// only matters on the wait/bootstrap paths below (the caller's
		// own generation will still see the expiry).
		return sh, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.booting.Do(ctx, name, func() (*Shard, error) {
		// A bootstrap that finished after the lookup above published its
		// shard before it freed name.
		if sh, ok := r.ShardIfReady(name); ok {
			return sh, nil
		}
		// Bootstrap with a background-rooted context: the shard outlives
		// the triggering request, so one impatient client must not abort
		// it for everyone queued behind.
		sh, err := r.bootstrap(context.WithoutCancel(ctx), spec)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.shards[name] = sh
		r.mu.Unlock()
		r.bootstraps.Add(1)
		return sh, nil
	})
}

// BootstrapAll eagerly bootstraps every configured region, side by side
// but at most GOMAXPROCS at a time: a bootstrap is CPU-bound, and the
// region list may be long. The first failure cancels the regions not yet
// started and is returned wrapped with its region's name; BootstrapAll
// returns only once every bootstrap it started has.
func (r *Registry) BootstrapAll(ctx context.Context) error {
	return flight.FanOut(ctx, len(r.order), runtime.GOMAXPROCS(0), func(ctx context.Context, i int) error {
		if _, err := r.Shard(ctx, r.order[i]); err != nil {
			return fmt.Errorf("registry: bootstrapping %q: %w", r.order[i], err)
		}
		return nil
	})
}

// bootstrap builds one region's tree, priors, targets, and engine shard.
func (r *Registry) bootstrap(ctx context.Context, spec Spec) (*Shard, error) {
	sys, err := hexgrid.NewSystem(spec.Center(), spec.LeafSpacingKm)
	if err != nil {
		return nil, fmt.Errorf("registry: region %q hex system: %w", spec.Name, err)
	}
	tree, err := loctree.NewAt(sys, spec.Center(), spec.Height)
	if err != nil {
		return nil, fmt.Errorf("registry: region %q tree: %w", spec.Name, err)
	}
	priors, err := buildPriors(spec, tree)
	if err != nil {
		return nil, fmt.Errorf("registry: region %q priors: %w", spec.Name, err)
	}
	targets, probs, err := spreadTargets(tree, spec.Targets)
	if err != nil {
		return nil, fmt.Errorf("registry: region %q: %w", spec.Name, err)
	}
	engineOpts := r.opts.Engine
	if r.opts.Store != nil {
		fs, err := store.NewForestStore(r.opts.Store, spec.Hash(), tree)
		if err != nil {
			return nil, fmt.Errorf("registry: region %q store: %w", spec.Name, err)
		}
		engineOpts.Store = fs
	}
	srv, err := core.NewServerWithOptions(tree, priors, targets, probs, core.Params{
		Epsilon:    spec.Epsilon,
		Iterations: spec.Iterations,
	}, engineOpts)
	if err != nil {
		return nil, fmt.Errorf("registry: region %q server: %w", spec.Name, err)
	}
	if r.opts.Store != nil {
		// Best-effort warm restart: snapshots for this spec hash preload
		// the cache so precomputed forests serve with zero LP solves.
		// Hydration failures (unreadable store) degrade to computing —
		// corrupt individual snapshots are already skipped one level down.
		if _, err := srv.HydrateFromStore(ctx); err == nil {
			_ = r.opts.Store.WriteSpecNote(spec.Hash(), spec)
		}
	}
	if r.opts.WarmupDelta >= 0 {
		if err := srv.Warmup(ctx, r.opts.WarmupDelta); err != nil {
			return nil, fmt.Errorf("registry: region %q warmup: %w", spec.Name, err)
		}
	}
	sh := &Shard{Spec: spec, Server: srv, Sessions: session.NewManager(r.opts.SessionCap)}
	if r.opts.Budget.LimitEps > 0 {
		acct, err := budget.NewAccountant(r.opts.Budget)
		if err != nil {
			return nil, fmt.Errorf("registry: region %q budget: %w", spec.Name, err)
		}
		sh.Budget = acct
	}
	return sh, nil
}

// eachRegionCheckIn hands fn a region's check-in sample, one check-in at
// a time: the configured real Gowalla file clipped to the region's
// bounding box, or the deterministic synthetic sample seeded by the spec,
// streamed from gowalla.Each without being stored. Priors and policy
// metadata both derive from it, so the two views of a region always agree.
func eachRegionCheckIn(spec Spec, tree *loctree.Tree, fn func(gowalla.CheckIn)) error {
	bbox := treeBBox(tree, spec.LeafSpacingKm)
	if spec.CheckinsPath != "" {
		all, err := gowalla.LoadFile(spec.CheckinsPath)
		if err != nil {
			return err
		}
		for _, c := range gowalla.FilterBBox(all, bbox) {
			fn(c)
		}
		return nil
	}
	return gowalla.Each(gowalla.GenConfig{
		Seed:        spec.Seed,
		NumCheckIns: spec.SyntheticCheckIns,
		BBox:        bbox,
	}, fn)
}

// buildPriors derives the region's public leaf priors: uniform, or
// Laplace-smoothed check-in counts from the region's sample
// (eachRegionCheckIn). A synthetic sample is counted as it streams: the
// bootstrap allocates the leaf counts and the generator's venue and user
// tables, never the check-ins.
func buildPriors(spec Spec, tree *loctree.Tree) (*loctree.Priors, error) {
	if spec.UniformPriors {
		return loctree.UniformPriors(tree), nil
	}
	pc := gowalla.NewPriorCounter(tree)
	if err := eachRegionCheckIn(spec, tree, pc.Add); err != nil {
		return nil, err
	}
	return loctree.NewPriors(tree, pc.Weights())
}

// treeBBox bounds the tree's leaf centers, padded by one leaf spacing so
// boundary cells still attract check-ins.
func treeBBox(tree *loctree.Tree, spacingKm float64) geo.BoundingBox {
	padDeg := spacingKm / 111.0 // ~1 degree latitude per 111 km
	b := geo.BoundingBox{MinLat: 90, MinLng: 180, MaxLat: -90, MaxLng: -180}
	for _, leaf := range tree.LevelNodes(0) {
		c := tree.Center(leaf)
		if c.Lat < b.MinLat {
			b.MinLat = c.Lat
		}
		if c.Lat > b.MaxLat {
			b.MaxLat = c.Lat
		}
		if c.Lng < b.MinLng {
			b.MinLng = c.Lng
		}
		if c.Lng > b.MaxLng {
			b.MaxLng = c.Lng
		}
	}
	b.MinLat -= padDeg
	b.MaxLat += padDeg
	b.MinLng -= padDeg
	b.MaxLng += padDeg
	return b
}

// spreadTargets picks n service targets evenly over the leaves (the even
// spread formerly private to cmd/corgi-server). n beyond the leaf count
// is an error rather than a silent under-delivery.
func spreadTargets(tree *loctree.Tree, n int) ([]geo.LatLng, []float64, error) {
	leaves := tree.LevelNodes(0)
	if n < 1 || n > len(leaves) {
		return nil, nil, fmt.Errorf("target count must be in [1, %d], got %d", len(leaves), n)
	}
	targets := make([]geo.LatLng, 0, n)
	probs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		targets = append(targets, tree.Center(leaves[i*len(leaves)/n]))
		probs = append(probs, 1)
	}
	return targets, probs, nil
}

// bootstrapped snapshots the shards that exist right now, by region, so a
// walk over them (stats, flushing) runs without the registry lock.
func (r *Registry) bootstrapped() map[string]*Shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	return maps.Clone(r.shards)
}

// FlushStores blocks until every bootstrapped shard's pending store
// write-backs have finished. Call before process exit so freshly solved
// forests are durable; without a configured store it is a no-op.
func (r *Registry) FlushStores() {
	for _, sh := range r.bootstrapped() {
		sh.Server.FlushStore()
	}
}

// Stats snapshots every bootstrapped shard's engine counters by region.
func (r *Registry) Stats() map[string]core.EngineStats {
	out := map[string]core.EngineStats{}
	for name, sh := range r.bootstrapped() {
		out[name] = sh.Server.Stats()
	}
	return out
}

// Total folds per-region counters into their fleet-wide sum.
func Total[S any, P interface {
	*S
	Merge(S)
}](byRegion map[string]S) (sum S) {
	for _, s := range byRegion {
		P(&sum).Merge(s)
	}
	return sum
}

// AggregateStats folds all shard counters into one fleet-wide snapshot.
func (r *Registry) AggregateStats() core.EngineStats { return Total(r.Stats()) }

// SessionStats snapshots every bootstrapped shard's report-session
// counters by region.
func (r *Registry) SessionStats() map[string]session.Stats {
	out := map[string]session.Stats{}
	for name, sh := range r.bootstrapped() {
		out[name] = sh.Sessions.Stats()
	}
	return out
}

// AggregateSessionStats folds all shard session counters into one
// fleet-wide snapshot.
func (r *Registry) AggregateSessionStats() session.Stats { return Total(r.SessionStats()) }

// BudgetStats snapshots every bootstrapped shard's epsilon-budget counters
// by region. Regions without accounting (or not yet bootstrapped) are
// absent.
func (r *Registry) BudgetStats() map[string]budget.Stats {
	out := map[string]budget.Stats{}
	for name, sh := range r.bootstrapped() {
		if sh.Budget != nil {
			out[name] = sh.Budget.Stats()
		}
	}
	return out
}

// AggregateBudgetStats folds all shard budget counters into one fleet-wide
// snapshot.
func (r *Registry) AggregateBudgetStats() budget.Stats { return Total(r.BudgetStats()) }
