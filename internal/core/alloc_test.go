package core

import (
	"context"
	"testing"

	"corgi/internal/raceon"
)

// TestGenerateAllocationBudget pins what one K=49 generation allocates once
// the workspace pool is primed: the server's parameters (eps 15, delta 2, five
// Algorithm-1 rounds, so six Dantzig-Wolfe solves of about 250 LP solves in
// all) on a uniform-prior disk. At the commit before workspaces crossed
// generations, Problems moved to arenas and the reserved-budget pass stopped
// sorting copies (PR 19) this measured 18926 allocations per generation (1120 after); the
// budget is a third of that.
func TestGenerateAllocationBudget(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates on its own and empties sync.Pool at random")
	}
	inst := buildInstance(t, 49, 49, 9)
	p := Params{Epsilon: 15, Delta: 2, Iterations: 5, UseGraphApprox: true}
	generate := func() {
		if _, err := inst.GenerateCtx(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	generate() // primes the pool
	allocs := testing.AllocsPerRun(2, generate)
	t.Logf("allocations per K=49 generation: %.0f", allocs)
	const parent = 18926
	if allocs > parent/3 {
		t.Errorf("a K=49 generation allocates %.0f times, want at most %d (a third of the %d it took before)", allocs, parent/3, parent)
	}
}
