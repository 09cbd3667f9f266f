package cluster_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"corgi/internal/budget"
	"corgi/internal/loctree"
	"corgi/internal/registry"
)

// TestClusterKillAndRestart replays the trace against three nodes. A third
// of the way in, the node that owns the most requests is shut down; two
// thirds in it is restarted on its old addresses, and the nodes' clock is
// advanced once past the reconnect backoff. Its users enter at the two
// survivors in turn, everyone else round-robin at the nodes that are up.
// Every request must be served by the node the ring names for that
// moment: the owner, or, while the killed node is down and until the
// clock moves after its restart, the next member of its users' ring
// sequence. Every budget handoff a node exports is imported exactly once
// or rolled back, each survivor finds the restarted node with exactly one
// probe, and the users the survivors own draw what they draw on a single
// node that nobody killed.
//
// The restarted node starts with empty budget windows: the spend its
// users had on it before the kill is forgotten (ROADMAP item 3), and
// nothing here asserts over that.
func TestClusterKillAndRestart(t *testing.T) {
	ctx := context.Background()
	trace, _ := replayTrace(t)
	c, nodes := nodesOf(t, 3, "-budget-eps", "1e9")
	ring := nodes[0].Router.Ring()
	kill, restart := len(trace)/3, 2*len(trace)/3

	// Member names are free ports, so who owns whom differs run to run.
	owned := map[string]int{}
	for _, req := range trace {
		owned[ring.Owner(req.UID)]++
	}
	k := 0
	for i, n := range nodes {
		if owned[n.name] > owned[nodes[k].name] {
			k = i
		}
	}
	killed := nodes[k].name
	var survivors []*testNode
	for i, n := range nodes {
		if i != k {
			survivors = append(survivors, n)
		}
	}
	// Each survivor forwards three of the killed node's requests while it
	// is down (two failed dials open its breaker, the third fails fast),
	// and after the restart one is held and each survivor then probes.
	var asksDown, asksAfter int
	for i, req := range trace {
		if ring.Owner(req.UID) == killed {
			if i >= kill && i < restart {
				asksDown++
			} else if i >= restart {
				asksAfter++
			}
		}
	}
	if asksDown < 6 || asksAfter < 3 {
		t.Fatalf("the killed node's users ask %d times while it is down and %d after; the test needs 6 and 3", asksDown, asksAfter)
	}

	single, err := registry.New(clusterSpec(), registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64][]loctree.NodeID{}
	for i, req := range trace {
		res, err := single.Report(ctx, req)
		if err != nil {
			t.Fatalf("single node, request %d: %v", i, err)
		}
		want[req.UID] = append(want[req.UID], res.Reports...)
	}

	// Every request bumps exactly one of owner_served, forwarded_in and
	// failover_local, on the node that drew it.
	served := func() []uint64 {
		out := make([]uint64, len(nodes))
		for i, n := range nodes {
			s := n.Router.Stats()
			out[i] = s.OwnerServed + s.ForwardedIn + s.FailoverLocal
		}
		return out
	}
	// Each export is resolved once: imported by the peer that answered,
	// or rolled back after a transport failure. exited holds the counts of
	// the node instance that was shut down.
	var exited budget.Stats
	handoffs := func(phase string) (rolledBack, imported uint64) {
		t.Helper()
		all := exited
		for _, n := range nodes {
			all.Merge(n.shard(t).Budget.Stats())
		}
		if all.HandoffsExported != all.HandoffsRolledBack+all.HandoffsImported || all.HandoffDupes != 0 {
			t.Fatalf("%s: %d handoffs exported, %d rolled back, %d imported, %d duplicates",
				phase, all.HandoffsExported, all.HandoffsRolledBack, all.HandoffsImported, all.HandoffDupes)
		}
		return all.HandoffsRolledBack, all.HandoffsImported
	}

	down, held, asks := false, false, 0
	got := map[int64][]loctree.NodeID{}
	for i, req := range trace {
		switch i {
		case kill:
			if err := nodes[k].Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			down = true
		case restart:
			for _, n := range survivors {
				if st := n.Router.Stats().Nodes[killed]; st.Healthy || st.Stream.FailFast == 0 {
					t.Fatalf("node %s never opened its breaker on the dead node: %+v", n.name, st)
				}
			}
			if rolledBack, _ := handoffs("node down"); rolledBack == 0 {
				t.Fatal("no export to the dead node was rolled back; the downtime is vacuous")
			}
			exited = nodes[k].shard(t).Budget.Stats()
			nodes[k] = &testNode{Node: c.Restart(k), name: killed}
			down, held = false, true
		}
		var entry *testNode
		switch {
		case ring.Owner(req.UID) == killed:
			entry = survivors[asks%2]
			asks++
		case down:
			entry = survivors[i%2]
		default:
			entry = nodes[i%3]
		}
		seq := ring.Sequence(req.UID)
		wantServer := seq[0]
		if seq[0] == killed && (down || held) {
			wantServer = seq[1]
		}
		before := served()
		res, err := entry.Router.Report(ctx, req)
		if err != nil {
			t.Fatalf("request %d entering at %s: %v", i, entry.name, err)
		}
		after := served()
		server := ""
		for j := range after {
			if after[j] == before[j]+1 && server == "" {
				server = nodes[j].name
			} else if after[j] != before[j] {
				server = "more than one node"
				break
			}
		}
		if server != wantServer {
			t.Fatalf("request %d for uid %d entering at %s (ring sequence %v, %s down %v, held %v): served by %q, want %s",
				i, req.UID, entry.name, seq, killed, down, held, server, wantServer)
		}
		if wantServer == seq[1] && held {
			// The restarted node's first user stayed with the stand-in:
			// the breakers hold until the clock passes the backoff.
			c.Clock.Advance(time.Minute)
			held = false
		}
		got[req.UID] = append(got[req.UID], res.Reports...)
	}
	if held {
		t.Fatal("no request after the restart tested the held breaker")
	}

	if fin := nodes[k].Router.Stats().ForwardedIn; fin == 0 {
		t.Fatal("traffic never returned to the restarted node")
	}
	for _, n := range survivors {
		if st := n.Router.Stats().Nodes[killed]; !st.Healthy || st.Stream.Probes != 1 {
			t.Errorf("node %s found the restarted node with %d probes (healthy %v), want exactly one",
				n.name, st.Stream.Probes, st.Healthy)
		}
	}
	if _, imported := handoffs("after the restart"); imported == 0 {
		t.Error("no handoff reached the restarted node: its users' spend stayed with the stand-ins")
	}

	compared := 0
	for uid, draws := range got {
		if ring.Owner(uid) == killed {
			continue
		}
		compared++
		if !reflect.DeepEqual(draws, want[uid]) {
			t.Errorf("uid %d, owned by survivor %s, drew a sequence the single node did not", uid, ring.Owner(uid))
		}
	}
	if compared == 0 {
		t.Fatal("no user is owned by a survivor; the comparison is vacuous")
	}
}
