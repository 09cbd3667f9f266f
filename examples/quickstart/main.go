// Quickstart: the complete CORGI flow in one file — build a region, derive
// priors from check-ins, generate a robust privacy forest, apply a user
// policy, and report an obfuscated location.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"corgi"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// 1. The area of interest: a two-level hex tree over San Francisco
	//    (49 leaf cells of ~0.1 km spacing).
	region, err := corgi.NewRegion(corgi.SanFrancisco.Center(), 0.1, 2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "region: height %d, %d leaf cells\n", region.Tree.Height(), region.Tree.NumLeaves())

	// 2. Public priors from (synthetic) Gowalla check-ins (Sec. 6.1).
	checkins, err := corgi.GenerateCheckIns(1)
	if err != nil {
		return err
	}
	priors, err := corgi.PriorsFromCheckIns(checkins, region.Tree)
	if err != nil {
		return err
	}

	// 3. The server generates the privacy forest: one robust matrix per
	//    privacy-level node, delta-prunable for up to 2 locations.
	targets, err := corgi.RandomLeafTargets(region.Tree, 10, 42)
	if err != nil {
		return err
	}
	server, err := corgi.NewServer(region, priors, targets, corgi.Params{
		Epsilon: 15, Iterations: 3,
	})
	if err != nil {
		return err
	}
	forest, err := server.GenerateForest(1 /* privacy level */, 2 /* delta */)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "forest: %d subtree matrices, delta-prunable up to %d\n",
		len(forest.Entries), forest.Delta)

	// 4. The user customizes locally: never report their home cell.
	md := corgi.BuildMetadata(checkins, region.Tree)
	real := corgi.SanFrancisco.Center()
	attrs := md.Annotate(0 /* user id */, real)
	notHome, err := corgi.ParsePredicate("home != true")
	if err != nil {
		return err
	}
	pol := corgi.Policy{
		PrivacyLevel:   1,
		PrecisionLevel: 0,
		Preferences:    []corgi.Predicate{notHome},
	}

	// 5. Report (Algorithm 4): bind a session to the forest entry of the
	//    subtree holding the real location, then draw.
	leaf, ok := region.Tree.Locate(real, 0)
	if !ok {
		return fmt.Errorf("real location %v outside the region", real)
	}
	root, _ := region.Tree.AncestorAt(leaf, pol.PrivacyLevel)
	entry := forest.Entries[root]
	pruned, err := corgi.EvalPreferences(entry.Leaves, pol, attrs)
	if err != nil {
		return err
	}
	sess, err := corgi.NewReportSession(corgi.ReportSessionConfig{
		Tree: region.Tree, Entry: entry, Delta: forest.Delta,
		Policy: pol, Pruned: pruned, Priors: priors, Seed: 7,
	})
	if err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		reported, err := sess.Draw(real)
		if err != nil {
			return err
		}
		c := region.Tree.Center(reported)
		fmt.Fprintf(w, "report %d: %v (%.3f km from the real location, %d cells pruned)\n",
			i+1, reported, corgi.Haversine(real, c), len(sess.Pruned()))
	}
	return nil
}
