package lint

import (
	"strings"
	"testing"
)

// TestLockGraphReconstructsHierarchy pins the acceptance criterion for
// the lockorder analyzer: the documented lock hierarchy — registry
// locks, then per-campaign storeMu, then the store/platform internals —
// is reconstructed from the code alone, and the graph is acyclic, so a
// consistent global acquisition order exists.
func TestLockGraphReconstructsHierarchy(t *testing.T) {
	pkgs, err := LoadModule("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	g := BuildLockGraph(pkgs)
	if len(g.Edges) == 0 {
		t.Fatal("lock graph is empty: the analysis observed no nesting at all")
	}
	for _, e := range g.Edges {
		t.Logf("edge %s → %s (via %s)", e.From, e.To, strings.Join(e.Via, " → "))
	}

	// The orderings the code documents in prose and the analyzer must
	// recover from the AST.
	wantEdges := [][2]string{
		// registry.go Create/Restore: the campaign is published to the
		// index while the create lock is held.
		{"imc2/internal/registry.Registry.createMu", "imc2/internal/registry.Registry.mu"},
		// campaign.go Open/Cancel/submitDurable: the platform's internal
		// lock nests under the campaign's storeMu.
		{"imc2/internal/registry.Campaign.storeMu", "imc2/internal/platform.Platform.mu"},
		// appendLocked → Store.Append: the WAL lock nests under storeMu.
		{"imc2/internal/registry.Campaign.storeMu", "imc2/internal/store.FileStore.mu"},
		// Create appends the created event while holding the create lock.
		{"imc2/internal/registry.Registry.createMu", "imc2/internal/store.FileStore.mu"},
	}
	for _, w := range wantEdges {
		if _, ok := g.Edge(w[0], w[1]); !ok {
			t.Errorf("missing documented ordering %s → %s", w[0], w[1])
		}
	}

	if cycles := g.Cycles(); len(cycles) != 0 {
		for _, c := range cycles {
			t.Errorf("unexpected cycle: %s", cycleMessage(c))
		}
	}
}
