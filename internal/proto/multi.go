package proto

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"corgi/internal/budget"
	"corgi/internal/core"
	"corgi/internal/registry"
	"corgi/internal/session"
	"corgi/internal/store"
	"corgi/internal/stream"
)

// RegionInfo describes one configured region for /v1/regions. Everything
// here comes from the spec, so listing regions never forces a bootstrap;
// Ready reports whether the shard has bootstrapped yet.
type RegionInfo struct {
	Name          string  `json:"name"`
	CenterLat     float64 `json:"center_lat"`
	CenterLng     float64 `json:"center_lng"`
	LeafSpacingKm float64 `json:"leaf_spacing_km"`
	Height        int     `json:"height"`
	Epsilon       float64 `json:"epsilon"`
	Ready         bool    `json:"ready"`
}

// RegionsResponse lists the serving regions and which one requests
// without a ?region= parameter resolve to.
type RegionsResponse struct {
	Default string       `json:"default"`
	Regions []RegionInfo `json:"regions"`
}

// MultiStatsResponse reports per-region engine counters plus the
// fleet-wide aggregate, and the same split for report-session and
// epsilon-budget counters. Only bootstrapped regions appear under the
// per-region maps; the budget maps are empty when accounting is disabled,
// and Stream only appears when a corgi-stream listener is attached.
type MultiStatsResponse struct {
	Regions       map[string]core.EngineStats `json:"regions"`
	Total         core.EngineStats            `json:"total"`
	Bootstraps    uint64                      `json:"bootstraps"`
	Sessions      map[string]session.Stats    `json:"sessions,omitempty"`
	SessionsTotal session.Stats               `json:"sessions_total"`
	Budget        map[string]budget.Stats     `json:"budget,omitempty"`
	BudgetTotal   *budget.Stats               `json:"budget_total,omitempty"`
	Stream        *stream.Stats               `json:"stream,omitempty"`
	// Cluster reports the consistent-hash router's counters (owner-served
	// vs forwarded traffic, failovers, budget handoffs, peer store
	// fetches; a cluster.Stats); only present when the node runs in
	// cluster mode.
	Cluster any `json:"cluster,omitempty"`
	// Lease reports the draw-lease counters (issued/renewed/denied and
	// pre-paid draws), registry-wide.
	Lease registry.LeaseStats `json:"lease"`
}

// MultiHandler serves the region-addressed CORGI API over a registry of
// engine shards:
//
//	GET  /healthz                   -> "ok" (liveness)
//	GET  /v1/regions                -> RegionsResponse
//	GET  /v1/stats                  -> MultiStatsResponse
//	GET  /v1/tree?region=R          -> TreeResponse
//	GET  /v1/priors?region=R        -> PriorsResponse
//	GET  /v1/forest?region=R&privacy_l=L&delta=D
//	                                -> ForestResponse (v1/v2 negotiated, ETag, 304)
//	POST /v1/report                 -> ReportResponse (server-side draws)
//	POST /v1/reports                -> BatchReportResponse
//	POST /v1/lease                  -> LeaseResponse (client-side draw lease)
//
// Omitting ?region= addresses the registry's default region, so a
// pre-sharding client keeps working against a multi-region server.
// Unknown regions return 404 with a body listing the available names.
type MultiHandler struct {
	reg *registry.Registry

	// Timeout bounds each request's generation work; zero leaves the
	// request context alone in charge.
	Timeout time.Duration
	// Stream, when set, merges the binary stream transport's counters
	// into GET /v1/stats so both transports report through one endpoint.
	Stream *stream.Server
	// Handler is the report/lease pipeline entry: the registry, until
	// cluster mode points it at the router so HTTP requests for non-owned
	// users forward to their owner node.
	Handler registry.ReportHandler
	// Cluster, when set, supplies the router's counter section of
	// GET /v1/stats (cluster.Router.Stats). A func, not the router: the
	// router forwards through this package's Client, so proto cannot import
	// internal/cluster.
	Cluster func() any
	// Store, when set, exposes GET /v1/store/snapshot — raw snapshot
	// bytes (checksummed CRGF files) for peer hydration. The fetching
	// node re-validates the checksum, so a stale or corrupt byte stream
	// degrades to a local solve, never a bad forest.
	Store *store.Store
}

// NewMultiHandler wires a region registry into an http.Handler.
func NewMultiHandler(reg *registry.Registry) (*MultiHandler, error) {
	if reg == nil {
		return nil, fmt.Errorf("proto: nil registry")
	}
	return &MultiHandler{reg: reg, Handler: reg}, nil
}

// Mux returns the routed handler.
func (h *MultiHandler) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", only(http.MethodGet, h.handleHealthz))
	mux.HandleFunc("/v1/regions", only(http.MethodGet, h.handleRegions))
	mux.HandleFunc("/v1/stats", only(http.MethodGet, h.handleStats))
	mux.HandleFunc("/v1/tree", only(http.MethodGet, h.handleTree))
	mux.HandleFunc("/v1/priors", only(http.MethodGet, h.handlePriors))
	mux.HandleFunc("/v1/forest", only(http.MethodGet, h.handleForest))
	mux.HandleFunc("/v1/report", h.handleReport)
	mux.HandleFunc("/v1/reports", h.handleReports)
	mux.HandleFunc("/v1/lease", h.handleLease)
	mux.HandleFunc("/v1/store/snapshot", only(http.MethodGet, h.handleStoreSnapshot))
	return mux
}

// only answers 405 to every method but the one named.
func only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			http.Error(w, method+" only", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// handleStoreSnapshot serves GET /v1/store/snapshot?spec=H&level=L&delta=D:
// the raw CRGF snapshot file for one forest key, so cluster peers can
// hydrate from a node that already solved instead of re-running the LP.
// The payload is the on-disk checksummed format; the peer validates it
// with the same decode pipeline as a local read.
func (h *MultiHandler) handleStoreSnapshot(w http.ResponseWriter, r *http.Request) {
	if h.Store == nil {
		http.Error(w, "snapshot store not enabled", http.StatusNotFound)
		return
	}
	level, err := queryInt(r, "level", 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	delta, err := queryInt(r, "delta", 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	k := store.Key{SpecHash: r.URL.Query().Get("spec"), Level: level, Delta: delta}
	raw, err := h.Store.LoadRaw(k)
	if err != nil {
		if store.IsNotFound(err) {
			http.Error(w, "snapshot not found", http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(raw)
}

func (h *MultiHandler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// shardErrStatus classifies a failed shard resolution: an unknown region
// is the caller's fault, an interrupted wait is 503, and any other
// bootstrap failure is a server fault.
func shardErrStatus(err error) (int, string) {
	switch {
	case errors.Is(err, registry.ErrUnknownRegion):
		return http.StatusNotFound, err.Error()
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "region bootstrap interrupted: " + err.Error()
	default:
		return http.StatusInternalServerError, "region bootstrap failed: " + err.Error()
	}
}

// shard resolves the request's ?region= to a bootstrapped shard, writing
// the error response (404 listing available regions for unknown names)
// itself when resolution fails.
func (h *MultiHandler) shard(ctx context.Context, w http.ResponseWriter, r *http.Request) (*registry.Shard, bool) {
	sh, err := h.reg.Shard(ctx, r.URL.Query().Get("region"))
	if err != nil {
		status, msg := shardErrStatus(err)
		http.Error(w, msg, status)
		return nil, false
	}
	return sh, true
}

// requestCtx applies the handler timeout to the request context. With none
// configured the request's own context is in charge: net/http cancels it
// when the handler returns, so no second cancel context is built.
func (h *MultiHandler) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if h.Timeout > 0 {
		return context.WithTimeout(r.Context(), h.Timeout)
	}
	return r.Context(), func() {}
}

func (h *MultiHandler) handleRegions(w http.ResponseWriter, r *http.Request) {
	resp := RegionsResponse{Default: h.reg.DefaultRegion()}
	for _, name := range h.reg.Names() {
		spec, _ := h.reg.Spec(name)
		resp.Regions = append(resp.Regions, RegionInfo{
			Name:          spec.Name,
			CenterLat:     spec.CenterLat,
			CenterLng:     spec.CenterLng,
			LeafSpacingKm: spec.LeafSpacingKm,
			Height:        spec.Height,
			Epsilon:       spec.Epsilon,
			Ready:         h.reg.Ready(name),
		})
	}
	writeJSONAs(w, r, "application/json", resp)
}

func (h *MultiHandler) handleStats(w http.ResponseWriter, r *http.Request) {
	// One snapshot feeds both views so Total always equals the sum of
	// Regions, even under live traffic.
	resp := MultiStatsResponse{
		Regions:    h.reg.Stats(),
		Bootstraps: h.reg.Bootstraps(),
		Sessions:   h.reg.SessionStats(),
	}
	resp.Total = registry.Total(resp.Regions)
	resp.SessionsTotal = registry.Total(resp.Sessions)
	if bs := h.reg.BudgetStats(); len(bs) > 0 {
		total := registry.Total(bs)
		resp.Budget, resp.BudgetTotal = bs, &total
	}
	if h.Stream != nil {
		ss := h.Stream.Stats()
		resp.Stream = &ss
	}
	if h.Cluster != nil {
		resp.Cluster = h.Cluster()
	}
	resp.Lease = h.reg.LeaseStats()
	writeJSON(w, resp)
}

func (h *MultiHandler) handleTree(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := h.requestCtx(r)
	defer cancel()
	sh, ok := h.shard(ctx, w, r)
	if !ok {
		return
	}
	writeJSON(w, treeResponse(sh.Server.Tree(), sh.Spec.LeafSpacingKm, sh.Spec.Epsilon))
}

func (h *MultiHandler) handlePriors(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := h.requestCtx(r)
	defer cancel()
	sh, ok := h.shard(ctx, w, r)
	if !ok {
		return
	}
	writeJSON(w, priorsResponse(sh.Server.Tree(), sh.Server.Priors()))
}

// handleForest serves one region's forest for the privacy_l and delta in
// the query string: the only two numbers that cross the trust boundary
// (Sec. 5.2 step 4), as a cacheable GET.
func (h *MultiHandler) handleForest(w http.ResponseWriter, r *http.Request) {
	level, err := queryInt(r, "privacy_l", 1)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	delta, err := queryInt(r, "delta", 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := h.requestCtx(r)
	defer cancel()
	sh, ok := h.shard(ctx, w, r)
	if !ok {
		return
	}
	forest, err := sh.Server.GenerateForestCtx(ctx, level, delta)
	if err != nil {
		status, msg := generateErrStatus(err)
		http.Error(w, msg, status)
		return
	}
	writeForestNegotiated(w, r, sh.Server.Tree(), forest)
}

// queryInt parses an optional integer query parameter.
func queryInt(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, s)
	}
	return v, nil
}
