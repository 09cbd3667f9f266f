// Clientserver: the full untrusted-server architecture of Sec. 5 running
// in one process over real HTTP on localhost. The "cloud" half owns the
// tree and solves the LPs; the "device" half reveals only (privacy level,
// |S|), rebuilds the forest from the wire format, and customizes locally.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"

	"corgi/internal/device"
	"corgi/internal/geo"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// ---- cloud side ----
	// A single region is a registry of one: the spec names where the tree
	// sits and how its matrices are solved, and the handler serves it as
	// the default region, so the device below never spells a region name.
	center := geo.SanFrancisco.Center()
	reg, err := registry.New([]registry.Spec{{
		Name:      "sf",
		CenterLat: center.Lat, CenterLng: center.Lng,
		LeafSpacingKm: 0.1, Height: 2,
		Epsilon: 15, Iterations: 2, Targets: 3,
		Seed: 1,
	}}, registry.Options{})
	if err != nil {
		return err
	}
	handler, err := proto.NewMultiHandler(reg)
	if err != nil {
		return err
	}
	srv := httptest.NewServer(handler.Mux())
	defer srv.Close()
	fmt.Fprintln(w, "cloud: CORGI server listening on", srv.URL)

	// ---- device side ----
	conn, err := device.Dial(srv.URL, "", "", 0, false)
	if err != nil {
		return err
	}
	userTree := conn.Tree
	fmt.Fprintf(w, "device: rebuilt tree (height %d, %d leaves, eps=%g)\n",
		conn.Info.Height, userTree.NumLeaves(), conn.Info.Epsilon)

	real := geo.SanFrancisco.Center()
	// The user wants two specific cells out of the range; only |S| = 2 is
	// sent to the cloud.
	realLeaf, _ := userTree.Locate(real, 0)
	root, _ := userTree.AncestorAt(realLeaf, 1)
	secret := map[loctree.NodeID]bool{}
	for _, l := range userTree.LeavesUnder(root) {
		if l != realLeaf && len(secret) < 2 {
			secret[l] = true
		}
	}
	attrs := map[loctree.NodeID]policy.Attributes{}
	for _, l := range userTree.LevelNodes(0) {
		attrs[l] = policy.Attributes{"sensitive": policy.Bool(secret[l])}
	}
	pred, err := policy.ParsePredicate("sensitive != true")
	if err != nil {
		return err
	}
	pol := policy.Policy{PrivacyLevel: 1, PrecisionLevel: 0, Preferences: []policy.Predicate{pred}}

	fmt.Fprintln(w, "device: requesting forest with privacy_l=1 delta=2 (nothing else leaves the device)")
	f := &device.Forest{
		Conn:    conn,
		NoCache: true,
		Attrs: func(loctree.NodeID) (map[loctree.NodeID]policy.Attributes, error) {
			return attrs, nil
		},
	}
	for i := 0; i < 3; i++ {
		ask, err := conn.Ask(real, 0, pol, 21, 1)
		if err != nil {
			return err
		}
		res, err := f.Report(context.Background(), ask)
		if err != nil {
			return err
		}
		c := res.Centers[0]
		fmt.Fprintf(w, "device: report %d -> %v (%.6f, %.6f), pruned %d sensitive cells\n",
			i+1, res.Reports[0], c.Lat, c.Lng, res.Pruned)
	}
	return nil
}
