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
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

// batchHandler is the contract both remote views add ReportBatch to.
type batchHandler interface {
	registry.ReportHandler
	ReportBatch(context.Context, []registry.ReportRequest) ([]registry.BatchOutcome, error)
}

// TestRemoteViewsMatchRegistry drives the two clients' registry.ReportHandler
// views — stream.Remote and proto.Remote — with the requests an in-process
// registry gets, each against its own fresh server, and checks they answer
// like the registry does: the same draws, subtree, flags and budget facts
// from Report, the same lease window from Lease, per-item outcomes from
// ReportBatch, and every rejection as the one *registry.Rejection carrying
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
		if got.Facts != want.Facts {
			t.Fatalf("%s: facts %+v, registry %+v", name, got.Facts, want.Facts)
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

		// A rejection is a *registry.Rejection with the server's
		// classification, single or per batch item; the batch's good item
		// still answers.
		var rej *registry.Rejection
		if _, err := h.Report(ctx, bad); !errors.As(err, &rej) || rej.Status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: bad policy answered %v, want a 422 Rejection", name, err)
		}
		unknown := req
		unknown.Region = "atlantis"
		items, err := h.ReportBatch(ctx, []registry.ReportRequest{moved, bad, unknown})
		if err != nil || len(items) != 3 {
			t.Fatalf("%s batch: %d items, %v", name, len(items), err)
		}
		if items[0].Status != http.StatusOK || items[0].Result.SubtreeRoot != want2.SubtreeRoot || len(items[0].Result.Reports) != 3 {
			t.Fatalf("%s batch item 0: %+v", name, items[0])
		}
		for i, status := range map[int]int{1: http.StatusUnprocessableEntity, 2: http.StatusNotFound} {
			if items[i].Status != status || items[i].Result != nil {
				t.Fatalf("%s batch item %d: %+v, want a %d Rejection", name, i, items[i], status)
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
		var rej *registry.Rejection
		if !errors.As(err, &rej) || rej.Status != http.StatusTooManyRequests || !rej.HasEps || rej.EpsRemaining != 0 {
			t.Fatalf("%s: over-cap lease answered %v, want a 429 Rejection with zero headroom", name, err)
		}
		if got := registry.Classify(err); got != *rej {
			t.Fatalf("%s: Classify(%v) = %+v", name, err, got)
		}
	}
}

// factsHandler answers every ask with the same facts.
type factsHandler struct{ facts registry.Facts }

func (h factsHandler) Report(context.Context, registry.ReportRequest) (*registry.ReportResult, error) {
	return &registry.ReportResult{Facts: h.facts,
		Reports: []loctree.NodeID{{Level: h.facts.PrecisionLevel, Coord: hexgrid.Coord{Q: 1, R: -1}}},
		Centers: []geo.LatLng{{Lat: 37.77, Lng: -122.42}}}, nil
}

func (h factsHandler) Lease(context.Context, registry.LeaseRequest) (*registry.LeaseGrant, error) {
	return &registry.LeaseGrant{Facts: h.facts, DrawCap: 4, Token: []byte("token"), Bundle: []byte("bundle")}, nil
}

// servedBy starts a stream server and a JSON server that answer every ask
// through h, and returns a client's handler view of each.
func servedBy(t *testing.T, h registry.ReportHandler) (stream.Remote, proto.Remote) {
	t.Helper()
	srv, addr := startStream(t, newRegistry(t, registry.Options{}, "ra"))
	srv.SetHandler(h)
	sc := stream.NewClient(addr, stream.ClientConfig{Timeout: 10 * time.Second})
	t.Cleanup(func() { sc.Close() })
	mh, err := proto.NewMultiHandler(newRegistry(t, registry.Options{}, "ra"))
	if err != nil {
		t.Fatal(err)
	}
	mh.Handler = h
	hsrv := httptest.NewServer(mh.Mux())
	t.Cleanup(hsrv.Close)
	return sc.Remote(), proto.NewClient(hsrv.URL).Remote()
}

// TestFactsSurviveEveryWire: facts with every field set come back from a
// report and from a lease unchanged, over the JSON routes and over the
// REPORT_OK and LEASE_GRANT frames, so no converter and no codec drops or
// garbles one of them.
func TestFactsSurviveEveryWire(t *testing.T) {
	want := registry.Facts{
		Region:         "ra",
		SubtreeRoot:    loctree.NodeID{Level: 2, Coord: hexgrid.Coord{Q: -1, R: 3}},
		PrecisionLevel: 1,
		Pruned:         4,
		Reanchored:     true,
		Budgeted:       true,
		EpsSpent:       1.5,
		EpsRemaining:   6.25,
		Degraded:       true,
	}
	for i, v := 0, reflect.ValueOf(want); i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("fact %s is zero: a wire that dropped it would pass", v.Type().Field(i).Name)
		}
	}
	sr, hr := servedBy(t, factsHandler{want})
	ctx := context.Background()
	// The wires carry the subtree root's coordinate; its level is the ask's.
	pol := policy.Policy{PrivacyLevel: want.SubtreeRoot.Level, PrecisionLevel: want.PrecisionLevel}
	report := func(h registry.ReportHandler) (registry.Facts, error) {
		res, err := h.Report(ctx, registry.ReportRequest{Region: "ra", Policy: pol})
		if err != nil {
			return registry.Facts{}, err
		}
		return res.Facts, nil
	}
	lease := func(h registry.ReportHandler) (registry.Facts, error) {
		grant, err := h.Lease(ctx, registry.LeaseRequest{Region: "ra", Policy: pol, Draws: 4})
		if err != nil {
			return registry.Facts{}, err
		}
		return grant.Facts, nil
	}
	for _, tc := range []struct {
		name string
		ask  func(registry.ReportHandler) (registry.Facts, error)
		via  registry.ReportHandler
	}{
		{"JSON report", report, hr},
		{"JSON lease", lease, hr},
		{"REPORT_OK", report, sr},
		{"LEASE_GRANT", lease, sr},
	} {
		got, err := tc.ask(tc.via)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != want {
			t.Errorf("%s: facts came back as\n  %+v\nsent\n  %+v", tc.name, got, want)
		}
	}
}

// refusingHandler refuses every ask with the same rejection.
type refusingHandler struct{ rej registry.Rejection }

func (h refusingHandler) Report(context.Context, registry.ReportRequest) (*registry.ReportResult, error) {
	rej := h.rej
	return nil, &rej
}

func (h refusingHandler) Lease(context.Context, registry.LeaseRequest) (*registry.LeaseGrant, error) {
	rej := h.rej
	return nil, &rej
}

// TestRefusalSurvivesEveryWire is TestFactsSurviveEveryWire for a refused
// ask: a handler's *registry.Rejection comes back equal to itself — status,
// message and headroom, a headroom of exactly 0 included — over the JSON
// report, lease and batch item, the ERROR frame after a REPORT and after a
// LEASE, and the REPORTS_OK item; and both views' ReportBatch answer the
// same outcome.
func TestRefusalSurvivesEveryWire(t *testing.T) {
	ctx := context.Background()
	ask := registry.ReportRequest{Region: "ra", Policy: policy.Policy{PrivacyLevel: 1}}
	for _, want := range []registry.Rejection{
		{Status: http.StatusTooManyRequests, Msg: "budget exhausted: 0.75 eps left", EpsRemaining: 0.75, HasEps: true},
		{Status: http.StatusTooManyRequests, Msg: "budget exhausted", EpsRemaining: 0, HasEps: true},
	} {
		sr, hr := servedBy(t, refusingHandler{want})
		refusal := func(_ any, err error) registry.Rejection {
			var rej *registry.Rejection
			if !errors.As(err, &rej) {
				t.Fatalf("answer %v (%T), want a *registry.Rejection", err, err)
			}
			return *rej
		}
		batch := func(h batchHandler) registry.BatchOutcome {
			outs, err := h.ReportBatch(ctx, []registry.ReportRequest{ask})
			if err != nil || len(outs) != 1 {
				t.Fatalf("batch: %d outcomes, %v", len(outs), err)
			}
			return outs[0]
		}
		lease := registry.LeaseRequest{Region: "ra", Policy: ask.Policy, Draws: 4}
		httpItem, streamItem := batch(hr), batch(sr)
		for _, tc := range []struct {
			name string
			got  registry.Rejection
		}{
			{"JSON report", refusal(hr.Report(ctx, ask))},
			{"JSON lease", refusal(hr.Lease(ctx, lease))},
			{"JSON batch item", httpItem.Rejection},
			{"ERROR after REPORT", refusal(sr.Report(ctx, ask))},
			{"ERROR after LEASE", refusal(sr.Lease(ctx, lease))},
			{"REPORTS_OK item", streamItem.Rejection},
		} {
			if tc.got != want {
				t.Errorf("%s: refusal came back as\n  %+v\nsent\n  %+v", tc.name, tc.got, want)
			}
		}
		if httpItem != streamItem || httpItem.Result != nil {
			t.Errorf("batch outcomes differ: JSON %+v, stream %+v", httpItem, streamItem)
		}
	}
}
