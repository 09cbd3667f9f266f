package registry

import (
	"context"
	"errors"
	"slices"
	"testing"

	"corgi/internal/geo"
	"corgi/internal/gowalla"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/policy"
)

// TestEvalPruneMatchesReference replays a seed-1 Gowalla trace over the sf
// region and checks, for every (user, cell) it visits, that evalPrune's
// one-scratch-map pass yields exactly the prune set of the public reference
// the clients and the benchmark's shadow pipeline run:
// mechanism.EvalPreferences over Shard.Attrs.
func TestEvalPruneMatchesReference(t *testing.T) {
	reg, err := New(fastSpecs("sf"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := reg.Shard(context.Background(), "sf")
	if err != nil {
		t.Fatal(err)
	}
	tree := sh.Server.Tree()
	ds, err := gowalla.Generate(gowalla.GenConfig{
		Seed: 1, NumUsers: 500, NumPlaces: 600, NumCheckIns: 38523,
		BBox: geo.BoundingBox{
			MinLat: sh.Spec.CenterLat - 0.002, MaxLat: sh.Spec.CenterLat + 0.002,
			MinLng: sh.Spec.CenterLng - 0.00254, MaxLng: sh.Spec.CenterLng + 0.00254,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	parse := func(level int, preds ...string) policy.Policy {
		pol := policy.Policy{PrivacyLevel: level}
		for _, s := range preds {
			p, err := policy.ParsePredicate(s)
			if err != nil {
				t.Fatal(err)
			}
			pol.Preferences = append(pol.Preferences, p)
		}
		return pol
	}
	policies := []policy.Policy{
		parse(1, "home = false"),
		parse(2, "outlier = false", "distance <= 0.25"),
		parse(1, "popular = true", "checkins >= 3", "office != true"),
		parse(1),
	}
	type visit struct {
		uid  int
		leaf loctree.NodeID
	}
	seen := map[visit]bool{}
	pruning := 0
	for _, c := range ds.CheckIns {
		leaf, ok := tree.Locate(c.Loc, 0)
		if !ok || seen[visit{c.UserID, leaf}] {
			continue
		}
		seen[visit{c.UserID, leaf}] = true
		for _, pol := range policies {
			root, _ := tree.AncestorAt(leaf, pol.PrivacyLevel)
			got, err := evalPrune(sh, tree, int64(c.UserID), pol, root, leaf)
			if err != nil {
				t.Fatal(err)
			}
			if got.pruned == nil {
				t.Fatalf("user %d at %v: nil prune set; an evaluated set is never nil", c.UserID, leaf)
			}
			wantAnchor := leaf
			var want []loctree.NodeID
			if len(pol.Preferences) == 0 {
				wantAnchor = loctree.NodeID{}
			} else {
				leaves := tree.LeavesUnder(root)
				attrs, err := sh.Attrs(c.UserID, tree.Center(leaf), leaves)
				if err != nil {
					t.Fatal(err)
				}
				if want, err = mechanism.EvalPreferences(leaves, pol, attrs); err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Equal(got.pruned, want) || got.anchor != wantAnchor {
				t.Fatalf("user %d at %v under %v: pruned %v anchored %v, reference %v anchored %v",
					c.UserID, leaf, pol, got.pruned, got.anchor, want, wantAnchor)
			}
			pruning += len(want)
		}
	}
	if len(seen) < 1000 || pruning == 0 {
		t.Fatalf("trace covered %d (user, cell) pairs pruning %d cells in all; too thin to prove anything", len(seen), pruning)
	}

	// An unevaluable predicate is the caller's fault on both paths.
	bad := parse(1, "nosuch = true")
	leaf := tree.LeavesUnder(tree.Root())[0]
	root, _ := tree.AncestorAt(leaf, 1)
	if _, err := evalPrune(sh, tree, 1, bad, root, leaf); !errors.Is(err, ErrBadReport) {
		t.Fatalf("unknown attribute: %v, want ErrBadReport", err)
	}
}
