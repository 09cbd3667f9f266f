package stream

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"corgi/internal/clientdraw"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/registry"
)

// TestKeptPreferencesOnOneConnection drives distinct preference lists,
// short ones and ones longer than a connection keeps, through REPORT,
// REPORTS and LEASE frames on one connection, interleaved so that lists
// come back after another replaced them. Every draw equals what an
// in-process registry, fed the same asks, draws. The connection keeps the
// last short list it decoded and nothing else: long lists, valid or
// refused, leave it as it was, and what it retains stays within a few
// hundred bytes however many long lists arrive. A session built from a
// list the connection kept, before all of that, still draws what the
// in-process registry draws at the end, its list unchanged.
func TestKeptPreferencesOnOneConnection(t *testing.T) {
	reg, ref := frameTestRegistry(t, "ra"), frameTestRegistry(t, "ra")
	srv, err := NewServer(reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	c := NewClient(lis.Addr().String(), ClientConfig{Timeout: 10 * time.Second})
	defer c.Close()
	sh, err := ref.Shard(context.Background(), "ra")
	if err != nil {
		t.Fatal(err)
	}
	tree := sh.Server.Tree()
	cells := tree.LevelNodes(0)

	// lists[i] is distinct for every i; odd lists add 24 predicates, which
	// encode past maxKeptPreferencesLen.
	const n = 24
	lists := make([][]policy.Predicate, n)
	for i := range lists {
		lists[i] = []policy.Predicate{{Var: "distance", Op: policy.OpLe, Val: policy.Number(0.1 + 0.002*float64(i+1))}}
		for range 24 * (i % 2) {
			lists[i] = append(lists[i], policy.Predicate{Var: "checkins", Op: policy.OpGt, Val: policy.Number(-1)})
		}
	}
	short := func(ps []policy.Predicate) bool { return len(ps) == 1 }
	ask := func(uid int64, cell loctree.NodeID, prefs []policy.Predicate) Request {
		return Request{Region: "ra", Cell: [2]int{cell.Coord.Q, cell.Coord.R}, UID: uid, Seed: uid,
			Policy: policy.Policy{PrivacyLevel: 1, Preferences: prefs}, Count: 3}
	}
	// kept reads what the connection keeps once the round trip that wrote
	// it has answered: the answer is written under wmu, after the decode.
	// It fails the test when the kept bytes outgrow their bound.
	kept := func(step string) []policy.Predicate {
		t.Helper()
		srv.mu.Lock()
		defer srv.mu.Unlock()
		if len(srv.conns) != 1 {
			t.Fatalf("%d server connections, want the client's one", len(srv.conns))
		}
		for sc := range srv.conns {
			sc.wmu.Lock()
			defer sc.wmu.Unlock()
			if len(sc.in.raw) > maxKeptPreferencesLen || cap(sc.in.raw) > 2*maxKeptPreferencesLen {
				t.Fatalf("%s: connection keeps %d encoded bytes (capacity %d), bound %d",
					step, len(sc.in.raw), cap(sc.in.raw), maxKeptPreferencesLen)
			}
			return sc.in.prefs
		}
		return nil
	}
	report := func(step string, req Request) {
		t.Helper()
		got, err := c.Report(req)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if want := refDraws(t, ref, req); !reflect.DeepEqual(cellsOf(got), want) {
			t.Fatalf("%s: stream drew %v, in-process %v", step, cellsOf(got), want)
		}
	}

	// The held user's list is the first the connection keeps.
	held := ask(1000, cells[0], []policy.Predicate{{Var: "home", Op: policy.OpEq, Val: policy.Bool(false)}})
	report("held user, first report", held)
	shared := kept("held user")
	if !reflect.DeepEqual(shared, held.Preferences) {
		t.Fatalf("connection keeps %+v after the held user's report, want %+v", shared, held.Preferences)
	}
	snapshot := slices.Clone(shared)

	want := shared
	for k := range 4 * n {
		uid := int64(1 + k%5)
		cell := cells[(3*k)%len(cells)]
		req := ask(uid, cell, lists[(5*k)%n])
		sent := []Request{req}
		step := fmt.Sprintf("step %d", k)
		switch k % 3 {
		case 0:
			report(step+" REPORT", req)
		case 1:
			// Two users, so the batch's concurrent items touch no session
			// twice.
			other := ask(uid+10, cells[(3*k+1)%len(cells)], lists[(5*k+1)%n])
			sent = append(sent, other)
			items, err := c.ReportBatch(sent)
			if err != nil {
				t.Fatalf("%s REPORTS: %v", step, err)
			}
			for i, r := range sent {
				if items[i].Report == nil {
					t.Fatalf("%s REPORTS item %d: %d %s", step, i, items[i].Status, items[i].Error)
				}
				if want := refDraws(t, ref, r); !reflect.DeepEqual(cellsOf(items[i].Report), want) {
					t.Fatalf("%s REPORTS item %d: stream drew %v, in-process %v", step, i, cellsOf(items[i].Report), want)
				}
			}
		default:
			grant, err := c.Lease(req, 4, nil)
			if err != nil {
				t.Fatalf("%s LEASE: %v", step, err)
			}
			want, err := ref.Lease(context.Background(), req.LeaseAsk(4, nil))
			if err != nil {
				t.Fatalf("%s in-process lease: %v", step, err)
			}
			if got, want := leaseDraws(t, tree, grant, cell), leaseDraws(t, tree, want, cell); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s LEASE: stream grant draws %v, in-process %v", step, got, want)
			}
		}
		for _, r := range sent {
			if short(r.Preferences) {
				want = r.Preferences
			}
		}
		if got := kept(step); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: connection keeps %+v, want the last short list %+v", step, got, want)
		}
	}

	// Long lists the server refuses, far more of them than any table would
	// hold, each a predicate on a variable no region defines: none is kept.
	long := ask(2000, cells[1], []policy.Predicate{{Var: "v", Op: policy.OpEq, Val: policy.Bool(true)}})
	want = kept("before the refused lists")
	for k := range 80 {
		long.Preferences[0].Var = fmt.Sprintf("%064d", k) + strings.Repeat("v", 16<<10)
		if _, err := c.Report(long); err == nil {
			t.Fatalf("refused list %d: report succeeded, want an unknown-variable refusal", k)
		}
		if got := kept(fmt.Sprintf("refused list %d", k)); !reflect.DeepEqual(got, want) {
			t.Fatalf("refused list %d replaced the kept list: %+v, want %+v", k, got, want)
		}
	}

	report("held user, after every other list", held)
	if !reflect.DeepEqual(shared, snapshot) {
		t.Fatalf("the list a session holds changed under later frames: %+v, was %+v", shared, snapshot)
	}
}

// refDraws is what the in-process registry draws for req.
func refDraws(t *testing.T, ref *registry.Registry, req Request) []hexgrid.Coord {
	t.Helper()
	res, err := ref.Report(context.Background(), req.Ask())
	if err != nil {
		t.Fatalf("in-process report: %v", err)
	}
	defer res.Release()
	out := make([]hexgrid.Coord, len(res.Reports))
	for i, n := range res.Reports {
		out[i] = n.Coord
	}
	return out
}

// cellsOf is a decoded response's drawn cells.
func cellsOf(resp *Response) []hexgrid.Coord {
	out := make([]hexgrid.Coord, len(resp.Reports))
	for i, r := range resp.Reports {
		out[i] = hexgrid.Coord{Q: r.Q, R: r.R}
	}
	return out
}

// leaseDraws opens a grant on the device and draws its whole cap at cell.
func leaseDraws(t *testing.T, tree *loctree.Tree, g *registry.LeaseGrant, cell loctree.NodeID) []loctree.NodeID {
	t.Helper()
	l, err := clientdraw.Open(tree, g.Bundle, g.Token)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]loctree.NodeID, g.DrawCap)
	if err := l.DrawCellNInto(cell, out); err != nil {
		t.Fatal(err)
	}
	return out
}
