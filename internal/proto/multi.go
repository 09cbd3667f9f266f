package proto

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
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

// BatchItem is one (region, privacy level, delta) forest request inside a
// batch.
type BatchItem struct {
	Region       string `json:"region"`
	PrivacyLevel int    `json:"privacy_l"`
	Delta        int    `json:"delta"`
}

// BatchForestRequest asks for many forests in one round trip.
type BatchForestRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchItemResult carries one item's outcome. Items fail independently:
// Status is the per-item HTTP-equivalent code, and exactly one of Forest
// (v1) or ForestV2 is set on success, matching the batch's negotiated
// encoding.
type BatchItemResult struct {
	Region       string            `json:"region"`
	PrivacyLevel int               `json:"privacy_l"`
	Delta        int               `json:"delta"`
	Status       int               `json:"status"`
	Error        string            `json:"error,omitempty"`
	Forest       *ForestResponse   `json:"forest,omitempty"`
	ForestV2     *ForestResponseV2 `json:"forest_v2,omitempty"`
}

// BatchForestResponse is the batch envelope. The HTTP status is 200 as
// long as the batch itself was well-formed; per-item failures live in
// Items[i].Status / Items[i].Error.
type BatchForestResponse struct {
	Items []BatchItemResult `json:"items"`
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
//	GET|POST /v1/forest?region=R    -> ForestResponse (v1/v2 negotiated)
//	POST /v1/matrices?region=R      -> same (v1-era path, kept for old clients)
//	POST /v1/forests                -> BatchForestResponse
//	POST /v1/report                 -> ReportResponse (server-side draws)
//	POST /v1/reports                -> BatchReportResponse
//	POST /v1/lease                  -> LeaseResponse (client-side draw lease)
//
// Omitting ?region= addresses the registry's default region, so a
// pre-sharding client keeps working against a multi-region server.
// Unknown regions return 404 with a body listing the available names.
type MultiHandler struct {
	reg *registry.Registry

	// Timeout bounds each request's generation work (the whole batch for
	// /v1/forests); zero leaves the request context alone in charge.
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
	mux.HandleFunc("/v1/forest", h.handleForest)
	// The v1-era route keeps its POST-only contract; GET probing belongs
	// to /v1/forest.
	mux.HandleFunc("/v1/matrices", only(http.MethodPost, h.handleForest))
	mux.HandleFunc("/v1/forests", h.handleBatch)
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

// handleForest serves one region's forest. POST carries a MatrixRequest
// body (the v1-era protocol); GET reads privacy_l and delta from the
// query string for curl-friendly probing.
func (h *MultiHandler) handleForest(w http.ResponseWriter, r *http.Request) {
	var req MatrixRequest
	switch r.Method {
	case http.MethodPost:
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
	case http.MethodGet:
		var err error
		if req.PrivacyLevel, err = queryInt(r, "privacy_l", 1); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Delta, err = queryInt(r, "delta", 0); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx, cancel := h.requestCtx(r)
	defer cancel()
	sh, ok := h.shard(ctx, w, r)
	if !ok {
		return
	}
	forest, err := sh.Server.GenerateForestCtx(ctx, req.PrivacyLevel, req.Delta)
	if err != nil {
		status, msg := generateErrStatus(err)
		http.Error(w, msg, status)
		return
	}
	writeForestNegotiated(w, r, sh.Server.Tree(), forest)
}

// handleBatch resolves many (region, level, delta) requests in one round
// trip. Items fan out concurrently — each shard's engine still bounds its
// own LP concurrency and deduplicates identical in-flight keys — and fail
// independently: one bad region or level never poisons its neighbors.
func (h *MultiHandler) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchForestRequest
	if !decodePost(w, r, 4<<20, &req) {
		return
	}
	if rej := h.reg.CheckBatch(len(req.Items)); rej != nil {
		reject(w, *rej)
		return
	}
	ctx, cancel := h.requestCtx(r)
	defer cancel()
	wantV2 := wantsForestV2(r)

	resp := BatchForestResponse{Items: make([]BatchItemResult, len(req.Items))}
	var wg sync.WaitGroup
	for i, item := range req.Items {
		wg.Add(1)
		go func(i int, item BatchItem) {
			defer wg.Done()
			resp.Items[i] = h.resolveItem(ctx, item, wantV2)
		}(i, item)
	}
	wg.Wait()
	writeJSONAs(w, r, "application/json", resp)
}

// resolveItem generates and encodes one batch item's forest.
func (h *MultiHandler) resolveItem(ctx context.Context, item BatchItem, wantV2 bool) BatchItemResult {
	res := BatchItemResult{Region: item.Region, PrivacyLevel: item.PrivacyLevel, Delta: item.Delta}
	fail := func(status int, msg string) BatchItemResult {
		res.Status = status
		res.Error = msg
		return res
	}
	sh, err := h.reg.Shard(ctx, item.Region)
	if err != nil {
		return fail(shardErrStatus(err))
	}
	if res.Region == "" {
		res.Region = sh.Spec.Name
	}
	forest, err := sh.Server.GenerateForestCtx(ctx, item.PrivacyLevel, item.Delta)
	if err != nil {
		status, msg := generateErrStatus(err)
		return fail(status, msg)
	}
	enc, _, err := encodeForest(sh.Server.Tree(), forest, wantV2)
	if err != nil {
		return fail(http.StatusInternalServerError, err.Error())
	}
	res.Forest, _ = enc.(*ForestResponse)
	res.ForestV2, _ = enc.(*ForestResponseV2)
	res.Status = http.StatusOK
	return res
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
