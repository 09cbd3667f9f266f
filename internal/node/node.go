// Package node assembles one CORGI serving process: the region registry,
// the optional forest store, the HTTP routes, the optional corgi-stream
// listener and, in cluster mode, the consistent-hash router. It is the one
// place the parts are hooked together and the one place they are taken
// down, so cmd/corgi-server is flags over this package and the cluster
// tests exercise the assembly the binary runs.
//
// A node comes up in two steps because a cluster's peer list names
// addresses: Listen builds the registry and binds both listeners, after
// which the addresses are known (a test listens on 127.0.0.1:0); Start
// reads Config.ClusterPeers and Config.ClusterSelf, installs the hooks and
// begins serving. Shutdown drains in the one order: stream, then HTTP,
// then the router's peer connections, then upgrade solves, then pending
// store writes.
package node

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"corgi/internal/budget"
	"corgi/internal/cluster"
	"corgi/internal/core"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/store"
	"corgi/internal/stream"
)

// Config is corgi-server's flags, one field each, and the node's clock;
// Bind gives every flag's name, default and meaning.
type Config struct {
	Addr, StreamAddr string
	Spec             registry.SpecDefaults
	ListRegions      bool

	Workers int
	CacheMB int64
	Warmup  int
	Store   string
	Eager   bool

	MaxBatch, MaxSessions, MaxReportCount int
	BudgetEps                             float64
	BudgetWindow                          time.Duration
	BudgetUsers                           int
	LeaseSecret                           string
	LeaseTTL                              time.Duration
	DegradedServing                       bool

	ReadTimeout, WriteTimeout, IdleTimeout, RequestTimeout time.Duration

	ClusterPeers, ClusterSelf string

	// Now is the node's clock, the one field that is not a flag (nil:
	// time.Now): budget windows, lease-token expiry and the router's
	// reconnect breakers read it.
	Now func() time.Time
}

// Bind declares corgi-server's flags on fs, parsing into c.
func (c *Config) Bind(fs *flag.FlagSet) {
	fs.StringVar(&c.Addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.StreamAddr, "stream-addr", "", "corgi-stream binary transport listen address (empty: disabled)")
	c.Spec.Bind(fs, "bootstrap")
	fs.BoolVar(&c.ListRegions, "list-regions", false, "print builtin region names and exit")
	fs.IntVar(&c.Workers, "workers", 0, "parallel subtree solves per region shard (0: GOMAXPROCS)")
	fs.Int64Var(&c.CacheMB, "cache-mb", 256, "per-shard generated-entry cache bound in MiB")
	fs.IntVar(&c.Warmup, "warmup", -1, "precompute all levels for deltas 0..N at shard bootstrap (-1: off)")
	fs.StringVar(&c.Store, "store", "", "persistent forest store directory (populate offline with corgi-gen)")
	fs.BoolVar(&c.Eager, "eager", false, "bootstrap every region at startup instead of on first request")
	fs.IntVar(&c.MaxBatch, "max-batch", registry.DefaultMaxBatch, "max items per report batch (/v1/reports, REPORTS frames)")
	fs.IntVar(&c.MaxSessions, "max-sessions", 0, "live report sessions per region shard (0: default 4096)")
	fs.IntVar(&c.MaxReportCount, "max-report-count", registry.DefaultMaxReportCount, "max draws per report request or lease, on every transport")
	fs.Float64Var(&c.BudgetEps, "budget-eps", 0, "per-user epsilon budget per sliding window (0: accounting off)")
	fs.DurationVar(&c.BudgetWindow, "budget-window", time.Hour, "sliding epsilon-budget window")
	fs.IntVar(&c.BudgetUsers, "budget-users", 0, "tracked users per region budget accountant (0: default 65536)")
	fs.StringVar(&c.LeaseSecret, "lease-secret", "", "hex key for lease-token signing (empty: random per-process key)")
	fs.DurationVar(&c.LeaseTTL, "lease-ttl", registry.DefaultLeaseTTL, "draw-lease token lifetime")
	fs.DurationVar(&c.ReadTimeout, "read-timeout", 30*time.Second, "HTTP server read timeout")
	fs.DurationVar(&c.WriteTimeout, "write-timeout", 10*time.Minute, "HTTP server write timeout")
	fs.DurationVar(&c.IdleTimeout, "idle-timeout", 2*time.Minute, "HTTP server idle timeout")
	fs.DurationVar(&c.RequestTimeout, "request-timeout", 5*time.Minute, "per-request generation timeout (0: none)")
	fs.BoolVar(&c.DegradedServing, "degraded-serving", false,
		"serve cold report requests immediately from a planar-Laplace fallback (same epsilon bound, lower utility) while the LP solve runs in the background")
	fs.StringVar(&c.ClusterPeers, "cluster-peers", "",
		"full cluster member list, comma-separated streamAddr[=httpURL] entries (identical on every node); empty: single-node mode")
	fs.StringVar(&c.ClusterSelf, "cluster-self", "",
		"this node's own entry in -cluster-peers (its stream address); required with -cluster-peers")
}

// Node is one serving process's parts, exported so that a caller reaches
// the part it means (a node's accountants through Registry, one transport
// through Stream or HTTP) instead of through an option made for it. Stream
// and StreamListener are nil without -stream-addr, Store without -store,
// Router outside cluster mode; all but Registry, Store and the listeners
// are nil until Start.
type Node struct {
	// Config is what Listen was given; Start reads the peer list from it.
	Config Config

	Registry *registry.Registry
	Store    *store.Store
	Handler  *proto.MultiHandler
	Router   *cluster.Router

	HTTP           *http.Server
	HTTPListener   net.Listener
	Stream         *stream.Server
	StreamListener net.Listener

	// served carries each accept loop's return, one per listener serving.
	served   chan error
	serving  int
	shutdown sync.Once
	// fresh holds the HTTP connections in http.StateNew; it is nil once
	// Shutdown has begun the HTTP drain.
	freshMu sync.Mutex
	fresh   map[net.Conn]struct{}
}

// Listen builds the node's registry (and opens its store) from cfg and
// binds its listeners. Nothing is served until Start; Shutdown releases a
// node that never starts.
func Listen(cfg Config) (*Node, error) {
	if cfg.Spec.Targets < 1 {
		return nil, fmt.Errorf("targets: count must be >= 1, got %d", cfg.Spec.Targets)
	}
	specs, err := registry.BuildSpecs(cfg.Spec)
	if err != nil {
		return nil, fmt.Errorf("regions: %w", err)
	}
	n := &Node{Config: cfg, served: make(chan error, 2)}
	if cfg.Store != "" {
		if n.Store, err = store.Open(cfg.Store); err != nil {
			return nil, err
		}
	}
	secret, err := hex.DecodeString(cfg.LeaseSecret)
	if err != nil {
		return nil, fmt.Errorf("lease-secret: %w", err)
	}
	n.Registry, err = registry.New(specs, registry.Options{
		Engine: core.EngineOptions{
			Workers:         cfg.Workers,
			CacheBytes:      cfg.CacheMB << 20,
			DegradedServing: cfg.DegradedServing,
		},
		WarmupDelta: cfg.Warmup,
		Store:       n.Store,
		SessionCap:  cfg.MaxSessions,
		Budget: budget.Config{
			LimitEps: cfg.BudgetEps,
			Window:   cfg.BudgetWindow,
			MaxUsers: cfg.BudgetUsers,
			Now:      cfg.Now,
		},
		LeaseSecret:    secret,
		LeaseTTL:       cfg.LeaseTTL,
		MaxReportCount: cfg.MaxReportCount,
		MaxBatch:       cfg.MaxBatch,
	})
	if err != nil {
		return nil, err
	}
	if n.HTTPListener, err = net.Listen("tcp", cfg.Addr); err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	if cfg.StreamAddr != "" {
		if n.StreamListener, err = net.Listen("tcp", cfg.StreamAddr); err != nil {
			n.HTTPListener.Close()
			return nil, fmt.Errorf("stream listen: %w", err)
		}
	}
	return n, nil
}

// Start hooks the parts together and begins serving on both listeners.
// ctx bounds the -eager bootstrap only. A node whose Start failed is
// released by Shutdown.
func (n *Node) Start(ctx context.Context) error {
	cfg, reg := n.Config, n.Registry
	if cfg.Eager {
		start := time.Now()
		if err := reg.BootstrapAll(ctx); err != nil {
			return fmt.Errorf("eager bootstrap: %w", err)
		}
		agg := reg.AggregateStats()
		log.Printf("bootstrapped %d regions: %d solves, %d entries hydrated from store, %d cached entries (%.1f MiB) in %v",
			reg.Bootstraps(), agg.Solves, agg.StoreHydrated, agg.CacheEntries, float64(agg.CacheBytes)/(1<<20),
			time.Since(start).Round(time.Millisecond))
	}
	h, err := proto.NewMultiHandler(reg)
	if err != nil {
		return err
	}
	h.Timeout = cfg.RequestTimeout
	n.Handler = h
	// The stream server answers from the registry the HTTP routes answer
	// from, and its counters surface through their GET /v1/stats.
	if n.StreamListener != nil {
		if n.Stream, err = stream.NewServer(reg, stream.Config{Timeout: cfg.RequestTimeout}); err != nil {
			return err
		}
		h.Stream = n.Stream
	}
	// The snapshot route serves raw store files to cluster peers; it is
	// harmless (read-only, checksummed payloads) in single-node mode too.
	h.Store = n.Store

	// Cluster mode: every node embeds the consistent-hash router. Requests
	// for users this node owns serve locally; everything else forwards one
	// hop to the owner over corgi-stream, carrying the epsilon budget
	// handoff so a rebalance or failover never re-opens a window. Both
	// transports enter through the router, and a store miss asks the peers
	// before it solves.
	if cfg.ClusterPeers != "" {
		if cfg.ClusterSelf == "" {
			return fmt.Errorf("cluster: -cluster-self is required with -cluster-peers")
		}
		if n.Stream == nil {
			return fmt.Errorf("cluster: -stream-addr is required with -cluster-peers (peers forward over corgi-stream)")
		}
		members, err := cluster.ParsePeers(cfg.ClusterPeers)
		if err != nil {
			return err
		}
		router, err := cluster.NewRouter(reg, cfg.ClusterSelf, members, cluster.RouterConfig{Now: cfg.Now})
		if err != nil {
			return err
		}
		n.Router = router
		h.Handler = router
		h.Cluster = func() any { return router.Stats() }
		n.Stream.SetHandler(router)
		if n.Store != nil {
			n.Store.SetPeerFetch(router.FetchSnapshot)
		}
		log.Printf("cluster mode: %d members, self %s, owning %.1f%% of the keyspace",
			len(members), cfg.ClusterSelf, router.Ring().Shares()[cfg.ClusterSelf]*100)
	}

	n.fresh = map[net.Conn]struct{}{}
	n.HTTP = &http.Server{
		Handler:      h.Mux(),
		ReadTimeout:  cfg.ReadTimeout,
		WriteTimeout: cfg.WriteTimeout,
		IdleTimeout:  cfg.IdleTimeout,
		ConnState: func(c net.Conn, state http.ConnState) {
			n.freshMu.Lock()
			defer n.freshMu.Unlock()
			switch {
			case state != http.StateNew:
				delete(n.fresh, c)
			case n.fresh == nil:
				c.Close() // accepted after the drain began
			default:
				n.fresh[c] = struct{}{}
			}
		},
	}
	n.serving = 1
	go func() { n.served <- n.HTTP.Serve(n.HTTPListener) }()
	if n.Stream != nil {
		n.serving = 2
		go func() { n.served <- n.Stream.Serve(n.StreamListener) }()
		log.Printf("corgi-stream transport on %s", n.StreamListener.Addr())
	}
	storeDesc := "no store"
	if n.Store != nil {
		storeDesc = "store " + n.Store.Dir()
	}
	budgetDesc := "no budget accounting"
	if cfg.BudgetEps > 0 {
		budgetDesc = fmt.Sprintf("budget %.4g eps per %v", cfg.BudgetEps, cfg.BudgetWindow)
	}
	log.Printf("CORGI server on %s: regions [%s] (default %s), %d MiB cache per shard, warmup %d, %s, %s, %s bootstrap",
		n.HTTPListener.Addr(), strings.Join(reg.Names(), ", "), reg.DefaultRegion(), cfg.CacheMB, cfg.Warmup, storeDesc, budgetDesc,
		map[bool]string{true: "eager", false: "lazy"}[cfg.Eager])
	return nil
}

// Served delivers what a listener's accept loop returned. Before Shutdown
// that is the node failing: the listener stopped on its own.
func (n *Node) Served() <-chan error { return n.served }

// Shutdown takes the node down in the one order. The stream drains first:
// clients get GOODBYE frames, in-flight report frames finish writing, then
// connections close. HTTP drains second by the same rule: begun requests
// are answered, and a connection with none closes at once. Then the router
// drops its peer connections (a draining request may still forward), the
// upgrade solves finish, and last the store flushes its write-backs for the
// next start to hydrate. ctx bounds the two drains and the upgrade wait, not
// the router close or the flush. The first call does the work and reports
// what went wrong; later calls return nil.
func (n *Node) Shutdown(ctx context.Context) (err error) {
	n.shutdown.Do(func() {
		var errs []error
		if n.Stream != nil {
			errs = append(errs, n.Stream.Shutdown(ctx))
		}
		if n.HTTP != nil {
			// http.Server.Shutdown keeps a StateNew connection open up to 5 s
			// (Go issue 22682). net/http leaves StateNew only once it has read
			// a whole request header, so such a connection holds at most part
			// of one (or, for an instant, a whole one). Closing it fails that
			// request unretried, as the connection is fresh: as a dial after
			// the listener closes fails, and as Shutdown fails an idle
			// connection holding part of its next header.
			n.freshMu.Lock()
			for c := range n.fresh {
				c.Close()
			}
			n.fresh = nil
			n.freshMu.Unlock()
			errs = append(errs, n.HTTP.Shutdown(ctx))
		}
		// A listener no server took over is still open.
		n.HTTPListener.Close()
		if n.StreamListener != nil {
			n.StreamListener.Close()
		}
		if n.Router != nil {
			n.Router.Close()
		}
		errs = append(errs, n.waitUpgrades(ctx))
		n.Registry.FlushStores()
		for ; n.serving > 0; n.serving-- {
			if serveErr := <-n.served; !errors.Is(serveErr, http.ErrServerClosed) && !errors.Is(serveErr, stream.ErrServerClosed) {
				errs = append(errs, serveErr)
			}
		}
		err = errors.Join(errs...)
	})
	return err
}

// waitUpgrades waits, at most until ctx ends, for the degraded-serving
// upgrade solves of every bootstrapped shard: they run detached from any
// request, and a finished one writes its forest back to the store.
func (n *Node) waitUpgrades(ctx context.Context) error {
	done := make(chan struct{})
	// The wait ends when the solves do, also after ctx has ended.
	go func() {
		defer close(done)
		for _, name := range n.Registry.Names() {
			if sh, ok := n.Registry.ShardIfReady(name); ok {
				sh.Server.WaitUpgrades()
			}
		}
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
