// Package device is the user's side of CORGI (Sec. 5.2) as the rest of the
// tree sees a report source: something with
//
//	Report(ctx, registry.ReportRequest) (*registry.ReportResult, error)
//
// A user has three ways to an obfuscated report, and they differ only in
// what crosses the wire:
//
//   - Forest is the paper's path (Algorithm 4). The device downloads the
//     tree, the priors and one privacy forest, evaluates the preferences
//     against its own attributes, and sends the server nothing but
//     (privacy_l, |S|). The cell, the policy and the draws stay here.
//   - Leased reveals the cell and the policy once per lease (POST
//     /v1/lease), pre-pays a window of draws in one budget charge, and
//     draws on the device from the customized rows that come back
//     (internal/clientdraw).
//   - proto.Client.Remote (and stream.Remote) reveal the cell and the policy
//     on every ask and let the server draw.
//
// For one (seed, policy) and one sequence of cells all of them draw the
// same nodes: TestEveryPathDrawsTheSame holds the three next to an
// in-process registry and the stream transport. corgi-client is flags over
// this package; corgi-loadgen's lease transport is Leased; and the frontier's
// trajectory adversary (internal/eval) attacks what InHand, a Forest over
// forests already in hand, draws.
package device

import (
	"context"
	"errors"
	"fmt"
	"log"

	"corgi/internal/cluster"
	"corgi/internal/geo"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
)

// Reporter is what every path to a report implements.
type Reporter interface {
	Report(ctx context.Context, req registry.ReportRequest) (*registry.ReportResult, error)
}

// Conn is the device bound to one serving node and one of its regions.
type Conn struct {
	Client *proto.Client
	// URL is the node's base URL; Region the region as the user named it
	// (empty: the server's default).
	URL, Region string
	// Tree is the region's location tree, rebuilt from Info.
	Tree *loctree.Tree
	Info *proto.TreeResponse
}

// Dial binds the device to a serving node by fetching the region's tree
// from it; v1 asks for dense v1 forests instead of compact v2. With no
// peers the node is server. An unknown region fails with the server's 404,
// whose message lists the regions there are.
//
// A peers list (the servers' -cluster-peers value) overrides server: Dial
// builds the same consistent-hash ring the servers run (member names hash
// identically when the list matches theirs), walks uid's failover sequence
// owner first, and binds to the first node that answers. A node that is
// down is skipped with a log line; the one that answers is logged so the
// user knows where their session lives. Binding to the wrong node is still
// correct (the server forwards one hop); it only adds that hop's latency.
func Dial(server, peers, region string, uid int64, v1 bool) (*Conn, error) {
	fetch := func(url string) (*Conn, error) {
		c := proto.NewRegionClient(url, region)
		c.ForceV1 = v1
		tree, info, err := c.FetchTree()
		if err != nil {
			return nil, err
		}
		return &Conn{Client: c, URL: url, Region: region, Tree: tree, Info: info}, nil
	}
	if peers == "" {
		conn, err := fetch(server)
		if err != nil {
			return nil, fmt.Errorf("fetching tree: %w", err)
		}
		return conn, nil
	}
	members, err := cluster.ParsePeers(peers)
	if err != nil {
		return nil, err
	}
	ring, err := cluster.RingOf(members)
	if err != nil {
		return nil, err
	}
	urls := make(map[string]string, len(members))
	for _, p := range members {
		if urls[p.Name] = p.HTTPURL; p.HTTPURL == "" {
			// A bare entry names an HTTP endpoint directly.
			urls[p.Name] = "http://" + p.StreamAddr
		}
	}
	seq := ring.Sequence(uid)
	for i, name := range seq {
		conn, ferr := fetch(urls[name])
		if ferr != nil {
			err = ferr
			log.Printf("cluster: node %s (%s) unreachable, trying next ring node: %v", name, urls[name], err)
			continue
		}
		role := "owner"
		if i > 0 {
			role = fmt.Sprintf("failover #%d for owner %s", i, seq[0])
		}
		log.Printf("cluster: node %s (%s) answered — %s for uid %d", name, urls[name], role, uid)
		return conn, nil
	}
	return nil, fmt.Errorf("cluster: all %d cluster nodes unreachable, last error: %w", len(seq), err)
}

// Ask spells "count reports for uid standing at real" as the request every
// Reporter takes: the policy is checked against the tree's height and real
// is resolved to its leaf cell. The region stays as the user named it; an
// empty one is the bound client's.
func (c *Conn) Ask(real geo.LatLng, uid int64, pol policy.Policy, seed int64, count int) (registry.ReportRequest, error) {
	if err := pol.Validate(c.Tree.Height()); err != nil {
		return registry.ReportRequest{}, fmt.Errorf("policy: %w", err)
	}
	leaf, ok := c.Tree.Locate(real, 0)
	if !ok {
		return registry.ReportRequest{}, errors.New("location outside the service region")
	}
	return registry.ReportRequest{Region: c.Region, Cell: leaf.Coord, UID: uid, Policy: pol, Seed: seed, Count: count}, nil
}

// TreeOf is the tree source of a Leased over this connection: it is bound
// to one region, so whatever name a request spells it by, the tree is Tree.
func (c *Conn) TreeOf(string) (*loctree.Tree, error) { return c.Tree, nil }
