package stream_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"corgi/internal/budget"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

// batchHandler is the contract both remote views add ReportBatch to.
type batchHandler interface {
	registry.ReportHandler
	ReportBatch(context.Context, []registry.ReportRequest) ([]stream.BatchResult, error)
}

// TestRemoteViewsMatchRegistry drives the two clients' registry.ReportHandler
// views — stream.Remote and proto.Remote — with the requests an in-process
// registry gets, each against its own fresh server, and checks they answer
// like the registry does: the same draws, subtree, flags and budget facts
// from Report, the same lease window from Lease, per-item outcomes from
// ReportBatch, and every rejection as the one *stream.StatusError carrying
// the server's classification.
func TestRemoteViewsMatchRegistry(t *testing.T) {
	ctx := context.Background()
	secret := bytes.Repeat([]byte{0x42}, 32)
	opts := registry.Options{
		Budget:      budget.Config{LimitEps: 15 * 20, Window: time.Hour},
		LeaseSecret: secret,
	}
	local := newRegistry(t, opts, "ra")
	tree, _ := leaves(t, local, "ra")
	roots := tree.LevelNodes(1)
	leafA, leafB := tree.LeavesUnder(roots[0])[0], tree.LeavesUnder(roots[1])[0]

	sreg := newRegistry(t, opts, "ra")
	_, addr := startStream(t, sreg)
	sc := stream.NewClient(addr, stream.ClientConfig{Timeout: 10 * time.Second})
	defer sc.Close()

	hreg := newRegistry(t, opts, "ra")
	mh, err := proto.NewMultiHandler(hreg)
	if err != nil {
		t.Fatal(err)
	}
	hsrv := httptest.NewServer(mh.Mux())
	defer hsrv.Close()

	remotes := map[string]batchHandler{
		"stream": sc.Remote(),
		"http":   proto.NewClient(hsrv.URL).Remote(),
	}
	req := registry.ReportRequest{
		Region: "ra", Cell: leafA.Coord, UID: 3,
		Policy: policy.Policy{PrivacyLevel: 1}, Seed: 11, Count: 3,
	}
	moved := req
	moved.Cell = leafB.Coord
	bad := req
	bad.Policy.PrivacyLevel = 9

	// The reference answers, in the order every remote is asked.
	want1, err := local.Report(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := local.Report(ctx, moved)
	if err != nil {
		t.Fatal(err)
	}
	if !want2.Reanchored || !want1.Budgeted {
		t.Fatalf("reference run is not the scenario: reanchored %v budgeted %v", want2.Reanchored, want1.Budgeted)
	}
	wantGrant, err := local.Lease(ctx, registry.LeaseRequest{
		Region: "ra", Cell: leafB.Coord, UID: 3, Policy: req.Policy, Seed: 11, Draws: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	sameReport := func(name string, got, want *registry.ReportResult) {
		t.Helper()
		if got.Region != want.Region || got.SubtreeRoot != want.SubtreeRoot ||
			got.PrecisionLevel != want.PrecisionLevel || got.Pruned != want.Pruned ||
			got.Reanchored != want.Reanchored || got.Degraded != want.Degraded ||
			got.Budgeted != want.Budgeted || got.EpsSpent != want.EpsSpent || got.EpsRemaining != want.EpsRemaining {
			t.Fatalf("%s: facts %+v, registry %+v", name, got, want)
		}
		if !reflect.DeepEqual(got.Reports, want.Reports) {
			t.Fatalf("%s: draws %v, registry %v", name, got.Reports, want.Reports)
		}
		for i, c := range got.Centers {
			// The stream wire quantizes centers to ~5 mm.
			if d := c.Lat - want.Centers[i].Lat; d > 1e-6 || d < -1e-6 {
				t.Fatalf("%s: center %d %v, registry %v", name, i, c, want.Centers[i])
			}
		}
	}
	for name, h := range remotes {
		got, err := h.Report(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameReport(name, got, want1)
		if got, err = h.Report(ctx, moved); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameReport(name+" moved", got, want2)

		grant, err := h.Lease(ctx, registry.LeaseRequest{
			Region: "ra", Cell: leafB.Coord, UID: 3, Policy: req.Policy, Seed: 11, Draws: 4,
		})
		if err != nil {
			t.Fatalf("%s lease: %v", name, err)
		}
		if grant.SubtreeRoot != wantGrant.SubtreeRoot || grant.RNGPos != wantGrant.RNGPos ||
			grant.DrawCap != wantGrant.DrawCap || grant.EpsSpent != wantGrant.EpsSpent ||
			grant.EpsRemaining != wantGrant.EpsRemaining || grant.Budgeted != wantGrant.Budgeted ||
			!bytes.Equal(grant.Bundle, wantGrant.Bundle) || len(grant.Token) == 0 || grant.ExpiresAt == 0 {
			t.Fatalf("%s lease: grant %+v, registry %+v", name, grant, wantGrant)
		}

		// A rejection is a *StatusError with the server's classification,
		// single or per batch item; the batch's good item still answers.
		var se *stream.StatusError
		if _, err := h.Report(ctx, bad); !errors.As(err, &se) || se.Status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: bad policy answered %v, want a 422 StatusError", name, err)
		}
		unknown := req
		unknown.Region = "atlantis"
		items, err := h.ReportBatch(ctx, []registry.ReportRequest{moved, bad, unknown})
		if err != nil || len(items) != 3 {
			t.Fatalf("%s batch: %d items, %v", name, len(items), err)
		}
		if items[0].Err != nil || items[0].Result.SubtreeRoot != want2.SubtreeRoot || len(items[0].Result.Reports) != 3 {
			t.Fatalf("%s batch item 0: %+v", name, items[0])
		}
		for i, status := range map[int]int{1: http.StatusUnprocessableEntity, 2: http.StatusNotFound} {
			if !errors.As(items[i].Err, &se) || se.Status != status || items[i].Result != nil {
				t.Fatalf("%s batch item %d: %+v, want a %d StatusError", name, i, items[i], status)
			}
		}
	}

	// A spent budget is a 429 carrying the live headroom, on both views.
	for name, h := range remotes {
		spend := req
		spend.UID, spend.Count = 8, 20
		if _, err := h.Report(ctx, spend); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err := h.Lease(ctx, registry.LeaseRequest{
			Region: "ra", Cell: leafA.Coord, UID: 8, Policy: req.Policy, Seed: 11, Draws: 1,
		})
		var se *stream.StatusError
		if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests || !se.HasEpsRemaining || se.EpsRemaining != 0 {
			t.Fatalf("%s: over-cap lease answered %v, want a 429 StatusError with zero headroom", name, err)
		}
		if rej := registry.Classify(err); rej.Status != se.Status || !rej.HasEps || rej.EpsRemaining != 0 {
			t.Fatalf("%s: Classify(%v) = %+v", name, err, rej)
		}
	}
}
