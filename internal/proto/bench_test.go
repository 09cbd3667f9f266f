package proto

import (
	"net/http/httptest"
	"testing"

	"corgi/internal/policy"
	"corgi/internal/registry"
)

// BenchmarkReportEndpoint measures the full /v1/report wire path — HTTP,
// policy validation, session lookup, alias draw, JSON response — against
// an in-process server with a warm shard.
func BenchmarkReportEndpoint(b *testing.B) {
	reg, err := registry.New(reportSpecs("bench-report"), registry.Options{})
	if err != nil {
		b.Fatal(err)
	}
	h, err := NewMultiHandler(reg)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()
	c := NewClient(srv.URL)
	tree, _, err := c.FetchTree()
	if err != nil {
		b.Fatal(err)
	}
	leaf := tree.LevelNodes(0)[0]
	req := ReportRequest{
		Region: "bench-report",
		Cell:   [2]int{leaf.Coord.Q, leaf.Coord.R},
		Policy: policy.Policy{PrivacyLevel: 1},
		Seed:   1,
	}
	if _, err := c.Report(req); err != nil { // absorb bootstrap + first solve
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Report(req); err != nil {
			b.Fatal(err)
		}
	}
}
