package registry

import (
	"fmt"
	"net/http"
)

// This file holds the serving contract's two size limits. Under linear
// composition the draw count of an ask is an epsilon quantity, so how many
// draws one ask may pre-pay — and how many asks one batch may carry — are
// registry options, decided once in New and enforced below the transports:
// admit refuses an over-cap Report or Lease, CheckBatch a batch envelope.
// The HTTP routes (internal/proto) and the stream frames (internal/stream)
// hold no copy of either number; they encode the registry's answer.

// DefaultMaxReportCount is Options.MaxReportCount's default: the draws one
// report request — or one lease — may ask for.
const DefaultMaxReportCount = 1000

// DefaultMaxBatch is Options.MaxBatch's default: the item count of one
// report batch, over POST /v1/reports or a REPORTS frame.
const DefaultMaxBatch = 64

// Limits returns the batch-size and draw-count caps this registry
// enforces, for the stream handshake to advertise.
func (r *Registry) Limits() (maxBatch, maxReportCount int) {
	return r.opts.MaxBatch, r.opts.MaxReportCount
}

// CheckBatch answers the envelope of an n-item report batch: nil when it
// may be served, otherwise the rejection POST /v1/reports and the REPORTS
// frame both answer whole (400 for an empty batch, 413 for one over
// Options.MaxBatch).
func (r *Registry) CheckBatch(n int) *Rejection {
	switch {
	case n == 0:
		return &Rejection{Status: http.StatusBadRequest, Msg: "batch has no items"}
	case n > r.opts.MaxBatch:
		return &Rejection{Status: http.StatusRequestEntityTooLarge,
			Msg: fmt.Sprintf("batch of %d items exceeds limit %d", n, r.opts.MaxBatch)}
	}
	return nil
}
