// Clientserver: the full untrusted-server architecture of Sec. 5 running
// in one process over real HTTP on localhost. The "cloud" half owns the
// tree and solves the LPs; the "device" half reveals only (privacy level,
// |S|), rebuilds the forest from the wire format, and customizes locally.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"

	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
)

func main() {
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
		log.Fatal(err)
	}
	handler, err := proto.NewMultiHandler(reg)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := http.Serve(ln, handler.Mux()); err != nil {
			log.Printf("server stopped: %v", err)
		}
	}()
	base := "http://" + ln.Addr().String()
	fmt.Println("cloud: CORGI server listening on", base)

	// ---- device side ----
	client := proto.NewClient(base)
	userTree, info, err := client.FetchTree()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device: rebuilt tree (height %d, %d leaves, eps=%g)\n",
		info.Height, userTree.NumLeaves(), info.Epsilon)
	userPriors, err := client.FetchPriors(userTree)
	if err != nil {
		log.Fatal(err)
	}

	real := geo.SanFrancisco.Center()
	// The user wants two specific cells out of the range; only |S| = 2 is
	// sent to the cloud.
	realLeaf, _ := userTree.Locate(real, 0)
	root, _ := userTree.AncestorAt(realLeaf, 1)
	subLeaves := userTree.LeavesUnder(root)
	secret := map[loctree.NodeID]bool{}
	for _, l := range subLeaves {
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
		log.Fatal(err)
	}
	pol := policy.Policy{PrivacyLevel: 1, PrecisionLevel: 0, Preferences: []policy.Predicate{pred}}

	fmt.Println("device: requesting forest with privacy_l=1 delta=2 (nothing else leaves the device)")
	forest, err := client.FetchForest(userTree, 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 3; i++ {
		out, err := core.GenerateObfuscatedLocation(userTree, forest, real, pol, attrs, userPriors, rng)
		if err != nil {
			log.Fatal(err)
		}
		c := userTree.Center(out.Reported)
		fmt.Printf("device: report %d -> %v (%.6f, %.6f), pruned %d sensitive cells\n",
			i+1, out.Reported, c.Lat, c.Lng, len(out.Pruned))
	}
}
