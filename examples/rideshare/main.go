// Rideshare: the paper's motivating service scenario (Sec. 2.2), served
// over the remote report API. A rider asks a multi-region corgi-server for
// obfuscated pickup reports via POST /v1/report — one privacy-budget
// region per epsilon — and the ride-hailing side estimates travel cost
// from each reported location. The example measures the rider-visible
// utility loss (Equ. 3: the difference in estimated travel distance)
// across privacy budgets, demonstrating the privacy/utility dial the
// paper's Fig. 11 sweeps, now end to end through the serving stack: the
// server evaluates the policy, prunes nothing (no preferences), and draws
// every report from a per-user session with O(1) alias sampling.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http/httptest"
	"os"

	"corgi/internal/geo"
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
	// One region per privacy budget: a multi-region server shards them.
	budgets := []float64{15, 17, 19}
	var specs []registry.Spec
	for _, eps := range budgets {
		specs = append(specs, registry.Spec{
			Name:       fmt.Sprintf("sf-eps%g", eps),
			CenterLat:  geo.SanFrancisco.Center().Lat,
			CenterLng:  geo.SanFrancisco.Center().Lng,
			Epsilon:    eps,
			Height:     2,
			Targets:    8, // the driver staging spots Q
			Iterations: 1,
			Seed:       1,
		})
	}
	reg, err := registry.New(specs, registry.Options{})
	if err != nil {
		return err
	}
	h, err := proto.NewMultiHandler(reg)
	if err != nil {
		return err
	}
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()
	fmt.Fprintln(w, "cloud: multi-region CORGI server on", srv.URL)

	rider := geo.SanFrancisco.Center()
	pol := policy.Policy{PrivacyLevel: 2, PrecisionLevel: 0}
	const reports = 200

	fmt.Fprintln(w, "eps(km^-1)  mean pickup estimation error (km) over", reports, "remote reports")
	for i, eps := range budgets {
		c := proto.NewRegionClient(srv.URL, specs[i].Name)
		tree, _, err := c.FetchTree()
		if err != nil {
			return err
		}
		leaf, ok := tree.Locate(rider, 0)
		if !ok {
			return errors.New("rider outside the service region")
		}
		// Drivers idle at the region's service targets: recompute the same
		// even spread the server configured, purely for cost estimation.
		leaves := tree.LevelNodes(0)
		var stagingSpots []geo.LatLng
		for k := 0; k < specs[i].Targets; k++ {
			stagingSpots = append(stagingSpots, tree.Center(leaves[k*len(leaves)/specs[i].Targets]))
		}

		resp, err := c.Report(proto.ReportRequest{
			Cell:   [2]int{leaf.Coord.Q, leaf.Coord.R},
			UID:    3,
			Policy: pol,
			Seed:   3,
			Count:  reports,
		})
		if err != nil {
			return err
		}
		var total float64
		for _, rep := range resp.Reports {
			reported := geo.LatLng{Lat: rep.Lat, Lng: rep.Lng}
			// The service dispatches from the staging spot nearest the
			// *reported* location; the rider pays the difference between
			// the estimated and true pickup distance (Equ. 3).
			var bestSpot geo.LatLng
			best := -1.0
			for _, s := range stagingSpots {
				if d := geo.Haversine(reported, s); best < 0 || d < best {
					best = d
					bestSpot = s
				}
			}
			total += math.Abs(geo.Haversine(reported, bestSpot) - geo.Haversine(rider, bestSpot))
		}
		fmt.Fprintf(w, "%10.0f  %.4f\n", eps, total/reports)
	}
	fmt.Fprintln(w, "\nHigher eps (weaker privacy) -> smaller pickup estimation error,")
	fmt.Fprintln(w, "the trade-off CORGI's Fig. 11 quantifies — measured through /v1/report.")
	return nil
}
