// Command corgi-server runs the CORGI cloud side (Sec. 5.1) as a
// multi-region sharded service: each named region owns its own location
// tree, public priors, service targets, and concurrent generation engine,
// bootstrapped lazily on first request (or eagerly with -eager). Users
// never send locations or preference contents — only a region name, the
// privacy level, and a prune allowance.
//
// Regions come from -regions (comma-separated builtin metro names; see
// -list-regions) or -region-config (a JSON array of region specs, each
// overriding only what it needs). Omitting ?region= on the wire addresses
// the first configured region, so pre-sharding clients keep working.
//
// Generation runs on one engine shard per region (see ARCHITECTURE.md):
// -workers bounds parallel subtree LP solves per shard, -cache-mb bounds
// each shard's LRU cache, and -warmup N precomputes every (level,
// delta<=N) forest at bootstrap time. -store DIR attaches the persistent
// forest store: shards hydrate from snapshots at bootstrap (a restart or
// a corgi-gen precompute means zero LP solves for covered forests) and
// newly solved forests write back asynchronously. /healthz reports
// liveness, /v1/regions the region set, and /v1/stats per-region plus
// aggregate engine counters (including store hit/miss/write counts and
// report-session/alias-table counters). SIGINT/SIGTERM drain in-flight
// requests gracefully and flush pending store writes.
//
// Beyond forest distribution, the server runs the report pipeline: POST
// /v1/report (and batch /v1/reports) evaluates an inline policy, prunes,
// and draws obfuscated reports server-side from per-user sessions with
// O(1) alias-table sampling. Sessions are mobility-aware: a user whose
// reports leave their bound subtree re-anchor the resident session (same
// RNG stream, fresh subtree binding) instead of fragmenting into one
// session per subtree. -max-sessions bounds each region's live session
// LRU; -max-report-count caps draws per request.
//
// -budget-eps EPS enables per-user epsilon-budget accounting: each report
// draw charges the region's epsilon against the user's sliding -budget-
// window cap (linear composition, the sequential-composition leakage of
// repeated location reports), and a user over cap gets 429 Too Many
// Requests until spend slides out of the window. budget_* counters appear
// in /v1/stats.
//
// -degraded-serving kills the cold-path latency cliff: a report request
// whose forest entry misses both the cache and the store is answered
// immediately from a discretized planar-Laplace fallback — same epsilon
// guarantee, lower utility — while the real LP solve runs in the
// background; the optimal entry atomically replaces the fallback, resident
// sessions upgrade without resetting their RNG streams, and responses
// carry a "degraded" flag until then. degraded_* counters appear in
// /v1/stats.
//
// POST /v1/lease (and the stream transport's LEASE frame) issues
// client-side draw leases: one request pre-pays n draws' epsilon in a
// single budget charge, and the response carries the user's customized
// distribution rows plus an HMAC-signed token (user, subtree, draw cap,
// RNG position, expiry) so the device draws locally at memory speed and
// renews when the cap runs out — see internal/clientdraw. -lease-secret
// fixes the token-signing key (hex; default: a random per-process key,
// meaning leases do not survive a restart) and -lease-ttl bounds token
// lifetime. lease_* counters appear in /v1/stats.
//
// -stream-addr ADDR additionally serves the report pipeline over the
// corgi-stream binary transport (internal/stream): length-prefixed frames
// on persistent TCP connections, answering from the same registry —
// sessions, budgets, and error classes identical to HTTP — at a fraction
// of the per-report cost. Stream counters merge into /v1/stats, and
// shutdown drains stream connections (GOODBYE frames) alongside HTTP.
//
// The binary is flags over internal/node, which declares them, assembles
// the parts and owns the shutdown order. corgi-server -h lists every flag
// with its default; README's Binaries table names them all, and a test
// holds both to the binary.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"corgi/internal/node"
	"corgi/internal/registry"
)

func main() {
	var cfg node.Config
	cfg.Bind(flag.CommandLine)
	flag.Parse()
	if cfg.ListRegions {
		fmt.Println(strings.Join(registry.BuiltinNames(), "\n"))
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	n, err := node.Listen(cfg)
	if err == nil {
		err = n.Start(ctx)
	}
	if err != nil {
		log.Fatal(err)
	}

	select {
	case err := <-n.Served():
		log.Fatalf("listen: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down (draining in-flight requests)")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := n.Shutdown(shutCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	log.Printf("bye")
}
