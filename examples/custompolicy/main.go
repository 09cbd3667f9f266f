// Custompolicy: the paper's headline capability — a user removes sensitive
// cells (home, office, odd-hour outliers) from the obfuscation range, and
// the robust matrix keeps its Geo-Ind guarantee while a non-robust matrix
// breaks (Sec. 4.4, Fig. 12) — run against a real corgi-server over HTTP.
//
// The example exercises both serving paths. The audit half fetches robust
// (delta = |S|) and non-robust (delta = 0) forests over the wire, prunes
// them with the user's local policy, and prints both violation rates; the
// drawing half sends the same policy inline to POST /v1/report and lets
// the server's session pipeline prune and draw — the end-to-end report
// path this repo serves at scale.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"slices"

	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/gowalla"
	"corgi/internal/graphx"
	"corgi/internal/hexgrid"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
)

const eps = 15.0

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// ---- cloud side: a region with 0.25 km cells over ~3.5 km, large
	// enough that real users' homes and offices fall inside the
	// obfuscation range. The server derives its own report-path metadata
	// from its seeded sample; the device keeps a separate local corpus,
	// which is exactly the paper's split — user data stays user data.
	spec := registry.Spec{
		Name:          "sf-custom",
		CenterLat:     geo.SanFrancisco.Center().Lat,
		CenterLng:     geo.SanFrancisco.Center().Lng,
		LeafSpacingKm: 0.25,
		Height:        2,
		Epsilon:       eps,
		Iterations:    4,
		Targets:       10,
		Seed:          1,
	}
	reg, err := registry.New([]registry.Spec{spec}, registry.Options{})
	if err != nil {
		return err
	}
	h, err := proto.NewMultiHandler(reg)
	if err != nil {
		return err
	}
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()
	fmt.Fprintln(w, "cloud: CORGI server on", srv.URL)

	// ---- device side ----
	c := proto.NewRegionClient(srv.URL, spec.Name)
	tree, info, err := c.FetchTree()
	if err != nil {
		return err
	}
	// The user's own metadata (home/office/outlier heuristics) derives
	// locally; it never leaves the device on the forest path. (The remote
	// report below evaluates against the server's metadata instead — the
	// trust trade-off that path makes.)
	ds, err := gowalla.Generate(gowalla.GenConfig{Seed: 1})
	if err != nil {
		return err
	}
	md, err := gowalla.BuildMetadata(ds.CheckIns, tree, 0.2)
	if err != nil {
		return err
	}

	// The user's policy: keep home, office, and outlier cells out of the
	// obfuscation range (exactly the predicates of Sec. 6.1).
	preds := []string{"home != true", "office != true", "outlier != true"}
	pol := policy.Policy{PrivacyLevel: 2, PrecisionLevel: 0}
	for _, s := range preds {
		p, err := policy.ParsePredicate(s)
		if err != nil {
			return err
		}
		pol.Preferences = append(pol.Preferences, p)
	}
	real := geo.SanFrancisco.Center()
	realLeaf, _ := tree.Locate(real, 0)
	root, _ := tree.AncestorAt(realLeaf, 2)
	leaves := tree.LeavesUnder(root)

	// Pick a user whose inferred home lies inside the obfuscation range
	// (and is not the cell the user currently stands in).
	user := -1
	for u := 0; u < 500; u++ {
		if h, ok := md.HomeLeaf[u]; ok && slices.Contains(leaves, h) && h != realLeaf {
			user = u
			break
		}
	}
	if user < 0 {
		return errors.New("no user with a home in range; try another seed")
	}
	attrs := md.Annotate(user, real)
	var s []int
	for i, l := range leaves {
		ok, err := pol.Allowed(attrs[l])
		if err != nil {
			return err
		}
		if !ok {
			s = append(s, i)
		}
	}
	fmt.Fprintf(w, "policy %v prunes %d of %d cells\n", preds, len(s), len(leaves))

	// Robust (delta = |S|) vs non-robust (delta = 0) forests, fetched over
	// the wire; only (privacy_l, |S|) reaches the server on this path.
	robust, err := c.FetchForest(tree, 2, len(s))
	if err != nil {
		return err
	}
	plain, err := c.FetchForest(tree, 2, 0)
	if err != nil {
		return err
	}

	// Wire forests carry matrices, not constraint sets; rebuild the
	// graph-approximation pairs locally to audit what was served.
	cellCoords := make([]hexgrid.Coord, len(leaves))
	leafPriors := make([]float64, len(leaves))
	for i, l := range leaves {
		cellCoords[i] = l.Coord
		leafPriors[i] = 1
	}
	sys, err := hexgrid.NewSystem(geo.LatLng{Lat: info.OriginLat, Lng: info.OriginLng}, info.LeafSpacingKm)
	if err != nil {
		return err
	}
	auditInst, err := core.NewInstance(sys, cellCoords, leafPriors,
		[]geo.LatLng{real}, []float64{1}, graphx.WeightPaper)
	if err != nil {
		return err
	}
	pairs := auditInst.NeighborPairs()

	// Audit both matrices after the same customization (Fig. 12's metric).
	for _, f := range []struct {
		name   string
		forest *core.Forest
	}{{"robust (CORGI)", robust}, {"non-robust", plain}} {
		rep, err := f.forest.Entries[root].Matrix.CheckGeoIndPruned(s, pairs, eps, 1e-6)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s violations after pruning: %d / %d (%.2f%%)\n",
			f.name, rep.Violated, rep.Total, rep.Percent())
	}

	// The same policy served end to end: POST /v1/report lets the server
	// evaluate, prune, and draw from a per-user session.
	resp, err := c.Report(proto.ReportRequest{
		Cell:   [2]int{realLeaf.Coord.Q, realLeaf.Coord.R},
		UID:    int64(user),
		Policy: pol,
		Seed:   11,
		Count:  3,
	})
	if err != nil {
		return err
	}
	for i, rep := range resp.Reports {
		fmt.Fprintf(w, "remote report %d: cell (%d,%d) center %.6f,%.6f (server pruned %d)\n",
			i+1, rep.Q, rep.R, rep.Lat, rep.Lng, resp.Pruned)
	}
	fmt.Fprintln(w, "\nThe robust matrix absorbs the customization; the non-robust one leaks.")
	return nil
}
