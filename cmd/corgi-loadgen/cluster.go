package main

// Cluster-mode target routing: -cluster gives the loadgen the same member
// list the servers run with, and each request routes to its user's owner
// node over the identical consistent-hash ring — the client half of
// session affinity. A request that lands on the wrong node still succeeds
// (the server forwards one hop), so the ring here is an optimization the
// per-node counters make visible, not a correctness requirement.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"corgi/internal/cluster"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

// clusterTargets is the whole cluster seen as one report handler: each
// ask goes to the handler of its uid's owner node, and the per-node
// distribution is counted for the report.
type clusterTargets struct {
	ring    *cluster.Ring
	nodes   map[string]registry.ReportHandler
	streams []*stream.Client
	https   []*proto.Client

	mu     sync.Mutex
	counts map[string]int64
}

// newClusterTargets parses the member list and opens one pooled client per
// node on the chosen transport.
func newClusterTargets(spec, transport string, concurrency int) (*clusterTargets, error) {
	peers, err := cluster.ParsePeers(spec)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(peers))
	for i, p := range peers {
		names[i] = p.Name
	}
	ring, err := cluster.NewRing(names, 0, 0)
	if err != nil {
		return nil, err
	}
	ct := &clusterTargets{
		ring:   ring,
		nodes:  make(map[string]registry.ReportHandler, len(peers)),
		counts: make(map[string]int64, len(peers)),
	}
	for _, p := range peers {
		switch transport {
		case "http":
			if p.HTTPURL == "" {
				return nil, fmt.Errorf("cluster: peer %s needs an =httpURL entry with -transport http", p.Name)
			}
			c := proto.NewClient(p.HTTPURL)
			ct.https = append(ct.https, c)
			ct.nodes[p.Name] = c.Remote()
		case "stream":
			c := stream.NewClient(p.StreamAddr, stream.ClientConfig{
				Timeout:      10 * time.Minute,
				MaxIdleConns: concurrency,
			})
			ct.streams = append(ct.streams, c)
			ct.nodes[p.Name] = c.Remote()
		}
	}
	return ct, nil
}

// owner resolves a uid's owner node's handler and counts the hit.
func (ct *clusterTargets) owner(uid int64) registry.ReportHandler {
	n := ct.ring.Owner(uid)
	ct.mu.Lock()
	ct.counts[n]++
	ct.mu.Unlock()
	return ct.nodes[n]
}

// Report implements registry.ReportHandler on the uid's owner node.
func (ct *clusterTargets) Report(ctx context.Context, req registry.ReportRequest) (*registry.ReportResult, error) {
	return ct.owner(req.UID).Report(ctx, req)
}

// Lease implements registry.ReportHandler on the uid's owner node.
func (ct *clusterTargets) Lease(ctx context.Context, req registry.LeaseRequest) (*registry.LeaseGrant, error) {
	return ct.owner(req.UID).Lease(ctx, req)
}

// nodeCounts snapshots the per-node request distribution.
func (ct *clusterTargets) nodeCounts() map[string]int64 {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	out := make(map[string]int64, len(ct.counts))
	for k, v := range ct.counts {
		out[k] = v
	}
	return out
}

// stats sums dial/retry/byte counters across the per-node clients.
func (ct *clusterTargets) stats() stream.ClientStats {
	var total stream.ClientStats
	for _, c := range ct.streams {
		s := c.Stats()
		total.Dials += s.Dials
		total.Retries += s.Retries
		total.BytesIn += s.BytesIn
		total.BytesOut += s.BytesOut
	}
	for _, c := range ct.https {
		total.BytesIn += uint64(c.BytesIn())
	}
	return total
}

func (ct *clusterTargets) Close() {
	for _, c := range ct.streams {
		c.Close()
	}
}
