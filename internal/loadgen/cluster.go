package loadgen

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"time"

	"corgi/internal/cluster"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

// clients are the pooled report clients a run opened — one for a plain
// run, one per member node under -cluster — and account their own
// transfer.
type clients struct {
	streams []*stream.Client
	https   []*proto.Client
}

// open adds one node's client on the chosen transport and returns its
// handler view. Leases travel over HTTP.
func (c *clients) open(transport, streamAddr, httpURL string, concurrency int) registry.ReportHandler {
	if transport == "stream" {
		// The stream client pools persistent connections; every worker
		// shares it, and each in-flight exchange checks out its own.
		sc := stream.NewClient(streamAddr, stream.ClientConfig{
			Timeout:      10 * time.Minute,
			MaxIdleConns: concurrency,
		})
		c.streams = append(c.streams, sc)
		return sc.Remote()
	}
	hc := proto.NewClient(httpURL)
	c.https = append(c.https, hc)
	return hc.Remote()
}

// stats sums dial/retry/byte counters across the clients.
func (c *clients) stats() stream.ClientStats {
	var total stream.ClientStats
	for _, sc := range c.streams {
		s := sc.Stats()
		total.Dials += s.Dials
		total.Retries += s.Retries
		total.BytesIn += s.BytesIn
	}
	for _, hc := range c.https {
		total.BytesIn += uint64(hc.BytesIn())
	}
	return total
}

func (c *clients) Close() {
	for _, sc := range c.streams {
		sc.Close()
	}
}

// clusterTargets is the whole cluster seen as one report handler: -cluster
// gives the loadgen the same member list the servers run with, and each
// ask goes to the handler of its uid's owner node over the identical
// consistent-hash ring — the client half of session affinity. A request
// that lands on the wrong node still succeeds (the server forwards one
// hop), so the ring here is an optimization the per-node counters make
// visible, not a correctness requirement.
type clusterTargets struct {
	ring  *cluster.Ring
	nodes map[string]registry.ReportHandler

	mu     sync.Mutex
	counts map[string]int64
}

// newClusterTargets parses the member list and opens one pooled client per
// node on the chosen transport.
func newClusterTargets(cl *clients, spec, transport string, concurrency int) (*clusterTargets, error) {
	peers, err := cluster.ParsePeers(spec)
	if err != nil {
		return nil, err
	}
	ring, err := cluster.RingOf(peers)
	if err != nil {
		return nil, err
	}
	ct := &clusterTargets{
		ring:   ring,
		nodes:  make(map[string]registry.ReportHandler, len(peers)),
		counts: make(map[string]int64, len(peers)),
	}
	for _, p := range peers {
		if transport == "http" && p.HTTPURL == "" {
			return nil, fmt.Errorf("cluster: peer %s needs an =httpURL entry with -transport http", p.Name)
		}
		ct.nodes[p.Name] = cl.open(transport, p.StreamAddr, p.HTTPURL, concurrency)
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
	return maps.Clone(ct.counts)
}
