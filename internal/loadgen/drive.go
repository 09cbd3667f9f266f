package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"corgi/internal/hexgrid"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
)

// sample is one measured round trip.
type sample struct {
	latency time.Duration
	status  int
	bytes   int64
	region  string // "" for batch requests (they span regions)
	err     bool
	// cold marks the first request touching its cold key (any key in the
	// batch, for batch requests).
	cold bool
	// reanchored marks a mobility-workload response whose server-side
	// session re-anchored onto a new subtree.
	reanchored bool
	// budgetRejected marks a 429: the user's sliding-window epsilon budget
	// was spent. Reported as a rate rather than an error.
	budgetRejected bool
	// degraded marks a response served from a planar-Laplace fallback
	// entry: same epsilon bound, utility below the LP optimum until the
	// background solve lands. For batch requests it means at least one
	// item in the batch was degraded.
	degraded bool
}

// coldTracker decides request temperature: the first request per cold key
// across all workers is cold, everything after is warm, and a released
// claim (forget) makes the key's next request the first again.
type coldTracker struct{ seen sync.Map }

func (t *coldTracker) first(r request) bool {
	_, loaded := t.seen.LoadOrStore(r.ColdKey, struct{}{})
	return !loaded
}

func (t *coldTracker) forget(r request) { t.seen.Delete(r.ColdKey) }

// item is one entry's outcome within a round trip.
type item struct{ err, reanchored, degraded bool }

// outcome is what a target saw come back: the HTTP-equivalent status (0
// when no answer arrived at all), the body bytes it read itself, and one
// item per entry sent. Nil items mean the round trip failed as a whole and
// every entry with it.
type outcome struct {
	status int
	bytes  int64
	items  []item
}

// target carries one round trip's entries to the server.
type target func(ctx context.Context, entries []request) outcome

// drive resolves entries in one round trip through tgt, timed from from,
// and accounts it as the package comment says: cold claims taken here and
// released for every failed entry, 429 a budget rejection, any other
// non-200 an error. An answer with the wrong number of items is a failed
// round trip. A batch is one sample whose status is the envelope's; its
// items count individually in items_ok / items_err.
func drive(ctx context.Context, tgt target, entries []request, cold *coldTracker, from time.Time) (sample, int64, int64) {
	claimed := make([]bool, len(entries))
	var s sample
	for i, entry := range entries {
		claimed[i] = cold.first(entry)
		s.cold = s.cold || claimed[i]
	}
	if len(entries) == 1 {
		s.region = entries[0].Region
	}
	out := tgt(ctx, entries)
	s.latency = time.Since(from)
	s.status, s.bytes = out.status, out.bytes
	if len(out.items) != len(entries) {
		out.items = nil
	}
	var ok, bad int64
	for i, entry := range entries {
		if out.items == nil || out.items[i].err {
			bad++
			if claimed[i] {
				cold.forget(entry)
			}
			continue
		}
		ok++
		s.reanchored = s.reanchored || out.items[i].reanchored
		s.degraded = s.degraded || out.items[i].degraded
	}
	switch {
	case s.status == http.StatusTooManyRequests:
		s.budgetRejected, s.cold = true, false
	case s.status != http.StatusOK || out.items == nil:
		s.err = true
	}
	return s, ok, bad
}

// entriesAt returns the n consecutive trace entries of issue index idx
// (cycling).
func entriesAt(trace []request, idx int64, n int) []request {
	entries := make([]request, n)
	for i := range entries {
		entries[i] = trace[int(idx*int64(n)+int64(i))%len(trace)]
	}
	return entries
}

// forestTarget issues one forest request per round trip, built as
// proto.Client builds its own (proto.NewForestRequest) and sent over the
// same keep-alive pool, gzip-negotiated explicitly so the body is counted
// compressed, read to completion and discarded undecoded.
func forestTarget(server string) target {
	client := proto.NewHTTPClient(10 * time.Minute)
	return func(ctx context.Context, entries []request) outcome {
		e := entries[0]
		req, err := proto.NewForestRequest(ctx, server, e.Region, e.Level, e.Delta, false)
		if err != nil {
			return outcome{}
		}
		req.Header.Set("Accept-Encoding", "gzip")
		resp, err := client.Do(req)
		if err != nil {
			return outcome{}
		}
		defer resp.Body.Close()
		n, _ := io.Copy(io.Discard, resp.Body)
		out := outcome{status: resp.StatusCode, bytes: n}
		if out.status == http.StatusOK {
			out.items = []item{{}}
		}
		return out
	}
}

// reportTarget resolves entries through h, whichever handler the flags
// picked: a Report for one entry, a ReportBatch for several.
func reportTarget(h registry.ReportHandler, precision, count int) target {
	return func(ctx context.Context, entries []request) outcome {
		reqs := make([]registry.ReportRequest, len(entries))
		for i, entry := range entries {
			reqs[i] = registry.ReportRequest{
				Region: entry.Region,
				Cell:   hexgrid.Coord{Q: entry.Cell[0], R: entry.Cell[1]},
				UID:    entry.UID,
				Policy: policy.Policy{PrivacyLevel: entry.Level, PrecisionLevel: precision},
				Seed:   entry.Seed,
				Count:  count,
			}
		}
		var (
			results []registry.BatchOutcome
			err     error
		)
		if len(reqs) == 1 {
			var res *registry.ReportResult
			res, err = h.Report(ctx, reqs[0])
			results = []registry.BatchOutcome{{Result: res}}
		} else if b, ok := h.(batcher); ok {
			results, err = b.ReportBatch(ctx, reqs)
		} else {
			err = fmt.Errorf("%T cannot batch", h)
		}
		if err != nil {
			return outcome{status: statusOf(err)}
		}
		out := outcome{status: http.StatusOK, items: make([]item, len(results))}
		for i, r := range results {
			if r.Result == nil {
				out.items[i].err = true
				continue
			}
			out.items[i] = item{reanchored: r.Result.Reanchored, degraded: r.Result.Degraded}
		}
		return out
	}
}

// batcher is what a handler must add to carry -batch round trips; both
// remote clients' handler views (stream.Remote, proto.Remote) do.
type batcher interface {
	ReportBatch(context.Context, []registry.ReportRequest) ([]registry.BatchOutcome, error)
}

// statusOf is the HTTP-equivalent status a handler answered with: 200 for
// a result, the server's classification for a rejection, and 0 when no
// answer arrived at all (a transport fault).
func statusOf(err error) int {
	var rej *registry.Rejection
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &rej):
		return rej.Status
	}
	return 0
}
