package stream_test

import (
	"context"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"corgi/internal/hexgrid"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

// benchTarget is one (region, cell) the closed loop cycles through.
type benchTarget struct {
	region string
	cell   [2]int
}

// benchSetup bootstraps the three-region registry both transports share
// in spirit (each caller builds its own so sessions replay identically)
// and returns its warm targets.
func benchSetup(tb testing.TB) (*registry.Registry, []benchTarget) {
	tb.Helper()
	specs := streamSpecs("bench-a", "bench-b", "bench-c")
	reg, err := registry.New(specs, registry.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	if err := reg.BootstrapAll(ctx); err != nil {
		tb.Fatal(err)
	}
	var targets []benchTarget
	for _, spec := range specs {
		sh, err := reg.Shard(ctx, spec.Name)
		if err != nil {
			tb.Fatal(err)
		}
		for _, leaf := range sh.Server.Tree().LevelNodes(0)[:8] {
			targets = append(targets, benchTarget{spec.Name, [2]int{leaf.Coord.Q, leaf.Coord.R}})
		}
	}
	// Warm every (region, subtree) entry so measurement is steady state,
	// not LP solves.
	for i, tg := range targets {
		if _, err := reg.Report(ctx, registry.ReportRequest{
			Region: tg.region,
			Cell:   hexgrid.Coord{Q: tg.cell[0], R: tg.cell[1]},
			UID:    int64(i % 32),
			Policy: policy.Policy{PrivacyLevel: 1},
			Seed:   int64(i % 32),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return reg, targets
}

const benchReportCount = 16 // draws per request, both transports

// BenchmarkReportHTTP measures one POST /v1/report round trip — JSON
// encode, HTTP framing, handler, JSON response — on a warm server.
func BenchmarkReportHTTP(b *testing.B) {
	reg, targets := benchSetup(b)
	h, err := proto.NewMultiHandler(reg)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()
	c := proto.NewClient(srv.URL)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg := targets[i%len(targets)]
		if _, err := c.Report(proto.ReportRequest{
			Region: tg.region, Cell: tg.cell, UID: int64(i % 32),
			Policy: policy.Policy{PrivacyLevel: 1}, Seed: int64(i % 32),
			Count: benchReportCount,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReportStream measures the same request as one REPORT frame
// exchange on a persistent corgi-stream connection.
func BenchmarkReportStream(b *testing.B) {
	reg, targets := benchSetup(b)
	_, addr := startStreamB(b, reg)
	c := stream.NewClient(addr, stream.ClientConfig{Timeout: 30 * time.Second})
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg := targets[i%len(targets)]
		if _, err := c.Report(stream.Request{
			Region: tg.region, Cell: tg.cell, UID: int64(i % 32),
			Policy: policy.Policy{PrivacyLevel: 1}, Seed: int64(i % 32),
			Count: benchReportCount,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// startStreamB is startStream for benchmarks (testing.TB has no Cleanup
// ordering guarantee worth relying on mid-benchmark).
func startStreamB(tb testing.TB, reg *registry.Registry) (*stream.Server, string) {
	tb.Helper()
	srv, err := stream.NewServer(reg, stream.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(lis)
	tb.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}
