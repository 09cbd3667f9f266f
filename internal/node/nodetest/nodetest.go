// Package nodetest is the tests' one N-node bring-up: corgi-server nodes
// in one process, started from its flags the way its processes come up,
// on one manual clock.
package nodetest

import (
	"context"
	"flag"
	"io"
	"strings"
	"testing"

	"corgi/internal/clock"
	"corgi/internal/node"
)

// Cluster is n nodes started with one member list. Nodes[i] is the node
// serving member i now, and every node reads Clock.
type Cluster struct {
	Nodes []*node.Node
	Clock *clock.Manual
	t     testing.TB
}

// Start brings up n nodes, node i from the corgi-server flags args(i) on
// top of loopback listeners on free ports. Every node listens first, since
// the stream addresses are the ring's member names; then every node starts
// with the one -cluster-peers list of streamAddr=httpURL entries.
func Start(t testing.TB, n int, args func(i int) []string) *Cluster {
	t.Helper()
	c := &Cluster{Clock: clock.NewManual(), t: t}
	var peers []string
	for i := 0; i < n; i++ {
		var cfg node.Config
		fs := flag.NewFlagSet("corgi-server", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg.Bind(fs)
		if err := fs.Parse(append([]string{"-addr", "127.0.0.1:0", "-stream-addr", "127.0.0.1:0"}, args(i)...)); err != nil {
			t.Fatal(err)
		}
		cfg.Now = c.Clock.Now
		nd := c.listen(cfg)
		c.Nodes = append(c.Nodes, nd)
		peers = append(peers, nd.StreamListener.Addr().String()+"=http://"+nd.HTTPListener.Addr().String())
	}
	for _, nd := range c.Nodes {
		nd.Config.ClusterPeers, nd.Config.ClusterSelf = strings.Join(peers, ","), nd.StreamListener.Addr().String()
		if err := nd.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// Restart shuts node i down, unless it is already, and starts a new node
// on its HTTP and stream addresses with its flags, member list and clock.
// The new node keeps only what its -store holds: sessions and budget
// windows start empty.
func (c *Cluster) Restart(i int) *node.Node {
	c.t.Helper()
	old := c.Nodes[i]
	if err := old.Shutdown(context.Background()); err != nil {
		c.t.Fatal(err)
	}
	cfg := old.Config
	cfg.Addr, cfg.StreamAddr = old.HTTPListener.Addr().String(), old.StreamListener.Addr().String()
	c.Nodes[i] = c.listen(cfg)
	if err := c.Nodes[i].Start(context.Background()); err != nil {
		c.t.Fatal(err)
	}
	return c.Nodes[i]
}

// listen binds a node for cfg. The test's cleanup shuts it down, before it
// removes a -store directory made earlier.
func (c *Cluster) listen(cfg node.Config) *node.Node {
	nd, err := node.Listen(cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(func() { nd.Shutdown(context.Background()) })
	return nd
}
