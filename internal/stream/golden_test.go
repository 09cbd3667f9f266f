package stream

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"corgi/internal/budget"
	"corgi/internal/codec"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/registry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens")

// goldenRequest carries every optional part of a request: all three
// predicate kinds, the forwarded flag and a handoff trailer.
func goldenRequest() Request {
	return Request{
		Region: "ra",
		Cell:   [2]int{-3, 7},
		UID:    42,
		Policy: policy.Policy{
			PrivacyLevel:   2,
			PrecisionLevel: 1,
			Preferences: []policy.Predicate{
				{Var: "home", Op: policy.OpNe, Val: policy.Bool(true)},
				{Var: "distance", Op: policy.OpLe, Val: policy.Number(5.5)},
				{Var: "kind", Op: policy.OpEq, Val: policy.String("bar")},
			},
		},
		Seed:      -9,
		Count:     3,
		Forwarded: true,
		Handoff: &budget.Handoff{Source: "node-b", Seq: 7, Events: []budget.HandoffEvent{
			{AtUnixNano: 1700000000000000000, Eps: 0.5},
			{AtUnixNano: 1700000001000000000, Eps: 1.25},
		}},
	}
}

func goldenResult() *registry.ReportResult {
	return &registry.ReportResult{
		Facts: registry.Facts{
			Region:         "ra",
			SubtreeRoot:    loctree.NodeID{Level: 2, Coord: hexgrid.Coord{Q: -1, R: 3}},
			PrecisionLevel: 1,
			Pruned:         4,
			Reanchored:     true,
			Budgeted:       true,
			EpsSpent:       1.6,
			EpsRemaining:   6.4,
		},
		Reports: []loctree.NodeID{
			{Level: 1, Coord: hexgrid.Coord{Q: 0, R: 2}},
			{Level: 1, Coord: hexgrid.Coord{Q: -2, R: 5}},
		},
		Centers: []geo.LatLng{{Lat: 37.765, Lng: -122.435}, {Lat: 37.8, Lng: -122.41}},
	}
}

// goldenFrames builds one payload of each request and answer frame (the
// bytes after the type byte) from the encoders.
func goldenFrames() map[string][]byte {
	req := goldenRequest()
	plain := Request{Region: "rb", Cell: [2]int{1, -1}, Policy: policy.Policy{PrivacyLevel: 1}, Seed: 5, Count: 1}
	reports := codec.AppendUvarints(codec.AppendU32(nil, 8), 2)
	reports = appendRequest(reports, &plain)
	reports = appendRequest(reports, &req)

	reportsOK := codec.AppendUvarints(codec.AppendU32(nil, 8), 2)
	reportsOK = appendResult(codec.AppendU16(reportsOK, statusOK), goldenResult())
	reportsOK = appendRejection(reportsOK, registry.Rejection{Status: 429, Msg: "budget exhausted", EpsRemaining: 0.75, HasEps: true})

	grant := &registry.LeaseGrant{
		Facts: registry.Facts{
			Region:         "ra",
			SubtreeRoot:    loctree.NodeID{Level: 2, Coord: hexgrid.Coord{Q: -1, R: 3}},
			PrecisionLevel: 0,
			Pruned:         2,
			Budgeted:       true,
			EpsSpent:       3.2,
			EpsRemaining:   4.8,
			Degraded:       true,
		},
		DrawCap:   32,
		RNGPos:    1024,
		ExpiresAt: 1700000060000,
		Renewed:   true,
		Token:     []byte("CGT1 opaque token bytes"),
		Bundle:    []byte("CGL1 opaque bundle bytes"),
	}
	return map[string][]byte{
		"report":      appendRequest(codec.AppendU32(nil, 7), &req),
		"reports":     reports,
		"report_ok":   appendResult(codec.AppendU32(nil, 7), goldenResult()),
		"reports_ok":  reportsOK,
		"error":       appendRejection(codec.AppendU32(nil, 9), registry.Rejection{Status: 403, Msg: "budget: invalid lease token"}),
		"lease":       appendLeaseReq(codec.AppendU32(nil, 10), &req, 32, []byte("CGT1 renewal token")),
		"lease_grant": appendLeaseGrant(codec.AppendU32(nil, 10), grant),
	}
}

// reencode decodes a golden payload with the decoder its receiver runs and
// encodes the decoded value again.
func reencode(t *testing.T, name string, payload []byte) []byte {
	t.Helper()
	d := codec.NewCursor(payload, name)
	b := codec.AppendU32(nil, d.U32())
	var err error
	switch name {
	case "report":
		var req Request
		if req, err = decodeRequest(&d, nil); err == nil {
			b = appendRequest(b, &req)
		}
	case "reports":
		n := d.Count(minRequestLen)
		b = codec.AppendUvarints(b, uint64(n))
		for i := 0; i < n && err == nil; i++ {
			var req Request
			if req, err = decodeRequest(&d, nil); err == nil {
				b = appendRequest(b, &req)
			}
		}
	case "lease":
		req, draws, token, derr := decodeLeaseReq(&d, nil)
		if err = derr; err == nil {
			b = appendLeaseReq(b, &req, draws, token)
		}
	case "report_ok":
		var resp *Response
		if resp, err = decodeResponse(&d, "ra", nil); err == nil {
			b = appendResult(b, resp.Result(0))
		}
	case "reports_ok":
		n := d.Count(minItemLen)
		b = codec.AppendUvarints(b, uint64(n))
		for i := 0; i < n && err == nil; i++ {
			var it ItemResult
			if it, err = decodeItem(&d, "ra", nil); err != nil {
				break
			}
			if it.Report != nil {
				b = appendResult(codec.AppendU16(b, uint16(it.Status)), it.Report.Result(0))
				continue
			}
			b = appendRejection(b, it.Rejection)
		}
	case "error":
		var rej *registry.Rejection
		if err := decodeErrorFrame(payload); !errors.As(err, &rej) {
			t.Fatalf("ERROR golden: %v", err)
		}
		return appendRejection(b, *rej)
	case "lease_grant":
		var g registry.LeaseGrant
		if err = decodeLeaseGrant(&d, "ra", &g, nil); err == nil {
			b = appendLeaseGrant(b, &g)
		}
	default:
		t.Fatalf("no decoder for golden %q", name)
	}
	if err == nil {
		err = d.Done()
	}
	if err != nil {
		t.Fatalf("%s golden does not decode: %v", name, err)
	}
	return b
}

// TestFrameGoldens pins the bytes of every request and answer frame body to
// files the encoders wrote before the decoders moved onto internal/codec's
// cursor: encoding reproduces each golden, and decoding a golden and
// encoding the result gives it back byte for byte.
func TestFrameGoldens(t *testing.T) {
	for name, got := range goldenFrames() {
		path := filepath.Join("testdata", name+".hex")
		if *updateGolden {
			if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoder wrote\n %x\nwant\n %x", name, got, want)
		}
		if again := reencode(t, name, want); !bytes.Equal(again, want) {
			t.Errorf("%s: decode+encode gave\n %x\nwant\n %x", name, again, want)
		}
	}
}
