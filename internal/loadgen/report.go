package loadgen

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// RunConfig echoes the run parameters into the report.
type RunConfig struct {
	Server      string   `json:"server"`
	Workload    string   `json:"workload"`
	Transport   string   `json:"transport,omitempty"`
	Regions     []string `json:"regions"`
	DurationS   float64  `json:"duration_s"`
	Concurrency int      `json:"concurrency"`
	RateRPS     float64  `json:"rate_rps"`
	Batch       int      `json:"batch"`
	Mix         string   `json:"mix"`
	CellMix     string   `json:"cell_mix,omitempty"`
	ReportCount int      `json:"report_count,omitempty"`
	// LeaseDraws is the pre-paid cap per lease (-transport lease only).
	LeaseDraws  int    `json:"lease_draws,omitempty"`
	TraceSource string `json:"trace_source"`
}

// LatencySummary is the quantile block of the report, in milliseconds.
type LatencySummary struct {
	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
	P95  float64 `json:"p95_ms"`
	P99  float64 `json:"p99_ms"`
	Mean float64 `json:"mean_ms"`
	Max  float64 `json:"max_ms"`
}

// HistBucket is one log-scaled latency histogram bin.
type HistBucket struct {
	UpToMs float64 `json:"up_to_ms"`
	Count  int64   `json:"count"`
}

// RegionReport is one region's slice of the run.
type RegionReport struct {
	Requests int64           `json:"requests"`
	Errors   int64           `json:"errors"`
	Latency  *LatencySummary `json:"latency,omitempty"`
}

// Report is the JSON output. Latency splits three ways: the overall
// distribution, the cold slice (first request per cold key — absorbs lazy
// bootstraps and first solves), and the warm slice (everything else — the
// steady-state serving latency). Without the split, a handful of
// multi-second bootstraps pollute p99/max of a run whose steady state sits
// at single-digit milliseconds.
type Report struct {
	Config          RunConfig `json:"config"`
	ElapsedS        float64   `json:"elapsed_s"`
	Requests        int64     `json:"requests"`
	Errors          int64     `json:"errors"`
	DroppedArrivals int64     `json:"dropped_arrivals"`
	ItemsOK         int64     `json:"items_ok"`
	ItemsErr        int64     `json:"items_err"`
	ThroughputRPS   float64   `json:"throughput_rps"`
	ItemsPerSec     float64   `json:"items_per_sec"`
	ReportsPerSec   float64   `json:"reports_per_sec,omitempty"`
	BytesReceived   int64     `json:"bytes_received"`
	// StreamDials/StreamRetries appear on -transport stream runs: how many
	// TCP connections the pooled client opened and how many exchanges it
	// replayed on a fresh connection after a pooled one failed.
	StreamDials   int64 `json:"stream_dials,omitempty"`
	StreamRetries int64 `json:"stream_retries,omitempty"`
	ColdRequests  int64 `json:"cold_requests"`
	// Reanchors counts mobility responses whose server-side session moved
	// onto a new subtree; ReanchorRate is Reanchors over successful
	// requests. BudgetRejections counts 429s (the user's sliding-window
	// epsilon budget was spent); BudgetRejectionRate is over all requests.
	Reanchors           int64   `json:"reanchors,omitempty"`
	ReanchorRate        float64 `json:"reanchor_rate,omitempty"`
	BudgetRejections    int64   `json:"budget_rejections,omitempty"`
	BudgetRejectionRate float64 `json:"budget_rejection_rate,omitempty"`
	// DegradedReports counts responses served from a planar-Laplace
	// fallback entry (-degraded-serving servers); DegradedRate is over
	// successful requests. LatencyDegraded slices their latency out, so a
	// cold-region run shows the degraded-vs-optimal serving split
	// directly: degraded responses arrive in milliseconds while the LP
	// optimum is still solving in the background.
	DegradedReports int64           `json:"degraded_reports,omitempty"`
	DegradedRate    float64         `json:"degraded_rate,omitempty"`
	LatencyDegraded *LatencySummary `json:"latency_degraded,omitempty"`
	Latency         LatencySummary  `json:"latency"`
	LatencyCold     *LatencySummary `json:"latency_cold,omitempty"`
	LatencyWarm     *LatencySummary `json:"latency_warm,omitempty"`
	// LatencyReanchor slices out the mobility middle tier: requests that
	// re-anchored a session (preference re-evaluation + entry lookup, but
	// no cold session build). Warm then means steady-state O(1) draws.
	LatencyReanchor *LatencySummary         `json:"latency_reanchor,omitempty"`
	Histogram       []HistBucket            `json:"latency_histogram"`
	StatusCounts    map[string]int64        `json:"status_counts"`
	PerRegion       map[string]RegionReport `json:"per_region"`
	// PerNode is the -cluster request distribution: how many requests the
	// ring routed to each member node.
	PerNode map[string]int64 `json:"per_node,omitempty"`
}

func summarize(workers []*worker, elapsed time.Duration, cfg RunConfig) *Report {
	rep := &Report{
		Config:       cfg,
		ElapsedS:     elapsed.Seconds(),
		StatusCounts: map[string]int64{},
		PerRegion:    map[string]RegionReport{},
	}
	var all, coldMs, warmMs, reanchorMs, degradedMs []float64
	perRegion := map[string][]float64{}
	var okRequests int64
	for _, w := range workers {
		rep.ItemsOK += w.itemsOK
		rep.ItemsErr += w.itemsErr
		for _, s := range w.samples {
			rep.Requests++
			rep.BytesReceived += s.bytes
			ms := float64(s.latency) / float64(time.Millisecond)
			all = append(all, ms)
			switch {
			case s.budgetRejected:
				// 429s draw nothing: their near-instant round trips belong
				// in the rejection rate, not in any latency temperature.
				rep.BudgetRejections++
			case s.cold:
				rep.ColdRequests++
				coldMs = append(coldMs, ms)
			case s.reanchored:
				reanchorMs = append(reanchorMs, ms)
			default:
				warmMs = append(warmMs, ms)
			}
			if s.reanchored {
				rep.Reanchors++
			}
			if s.degraded {
				rep.DegradedReports++
				degradedMs = append(degradedMs, ms)
			}
			if !s.err && !s.budgetRejected {
				okRequests++
			}
			key := "transport_error"
			if s.status != 0 {
				key = strconv.Itoa(s.status)
			}
			rep.StatusCounts[key]++
			if s.err {
				rep.Errors++
			}
			if s.region != "" {
				rr := rep.PerRegion[s.region]
				rr.Requests++
				if s.err {
					rr.Errors++
				}
				rep.PerRegion[s.region] = rr
				perRegion[s.region] = append(perRegion[s.region], ms)
			}
		}
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / elapsed.Seconds()
		rep.ItemsPerSec = float64(rep.ItemsOK+rep.ItemsErr) / elapsed.Seconds()
		if cfg.Workload == "report" || cfg.Workload == "mobility" {
			rep.ReportsPerSec = float64(rep.ItemsOK*int64(max(cfg.ReportCount, 1))) / elapsed.Seconds()
		}
	}
	rep.Latency = quantiles(all)
	rep.Histogram = histogram(all)
	// An empty slice is left out of the report rather than shown as zeros.
	slice := func(ms []float64) *LatencySummary {
		if len(ms) == 0 {
			return nil
		}
		q := quantiles(ms)
		return &q
	}
	rep.LatencyCold = slice(coldMs)
	rep.LatencyWarm = slice(warmMs)
	rep.LatencyReanchor = slice(reanchorMs)
	rep.LatencyDegraded = slice(degradedMs)
	if okRequests > 0 {
		rep.ReanchorRate = round4(float64(rep.Reanchors) / float64(okRequests))
		rep.DegradedRate = round4(float64(rep.DegradedReports) / float64(okRequests))
	}
	if rep.Requests > 0 {
		rep.BudgetRejectionRate = round4(float64(rep.BudgetRejections) / float64(rep.Requests))
	}
	for name, ms := range perRegion {
		rr := rep.PerRegion[name]
		rr.Latency = slice(ms)
		rep.PerRegion[name] = rr
	}
	return rep
}

func quantiles(ms []float64) LatencySummary {
	if len(ms) == 0 {
		return LatencySummary{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	// Nearest-rank (ceil) quantiles: P(q) is the smallest sample with at
	// least a q fraction of the distribution at or below it. The previous
	// int(q*(n-1)) truncation rounded the rank down, biasing p90/p95/p99
	// low on small samples (with 10 samples it reported p99 as the 9th
	// largest instead of the maximum).
	at := func(q float64) float64 {
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		return round2(sorted[idx])
	}
	mean := 0.0
	for _, v := range sorted {
		mean += v
	}
	mean /= float64(len(sorted))
	return LatencySummary{
		P50:  at(0.50),
		P90:  at(0.90),
		P95:  at(0.95),
		P99:  at(0.99),
		Mean: round2(mean),
		Max:  round2(sorted[len(sorted)-1]),
	}
}

// histogram buckets latencies into half-decade log bins from 1 ms up to
// the 10-minute client timeout (the final bucket absorbs anything above).
func histogram(ms []float64) []HistBucket {
	if len(ms) == 0 {
		return nil
	}
	bounds := []float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000, 600000}
	buckets := make([]HistBucket, len(bounds))
	for i, b := range bounds {
		buckets[i].UpToMs = b
	}
	for _, v := range ms {
		i := sort.SearchFloat64s(bounds, v)
		if i == len(bounds) {
			i--
		}
		buckets[i].Count++
	}
	// Trim empty tail buckets.
	last := 0
	for i, b := range buckets {
		if b.Count > 0 {
			last = i
		}
	}
	return buckets[:last+1]
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

func round4(v float64) float64 { return math.Round(v*10000) / 10000 }
