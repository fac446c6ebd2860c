package truth

import (
	"fmt"

	"imc2/internal/model"
)

// MergePresentations canonicalizes a dataset: within each task, values
// whose Similarity reaches tau are grouped into equivalence classes
// (connected components of the similarity graph), and every observation
// is rewritten to its class representative — the member with the most
// providers.
//
// This is the robust realization of §IV-A. Adjusting support counts after
// the fact (eq. 21) leaves the per-value probabilities fragmented; under
// systematic presentation variance each worker's estimated accuracy then
// falls below the num·A/(1−A) = 1 break-even, the log-odds vote weights
// turn negative, and elections invert (ablation A2 demonstrates the
// collapse). Canonicalizing first removes the fragmentation at the source
// and is standard entity-resolution practice.
func MergePresentations(ds *model.Dataset, sim func(a, b string) float64, tau float64) (*model.Dataset, error) {
	if ds == nil {
		return nil, fmt.Errorf("truth: nil dataset")
	}
	if sim == nil {
		return nil, fmt.Errorf("truth: nil similarity function")
	}
	if tau <= 0 || tau > 1 {
		return nil, fmt.Errorf("truth: merge threshold %v must be in (0, 1]", tau)
	}

	b := model.NewBuilder()
	for _, task := range ds.Tasks() {
		b.AddTask(task)
	}
	// representative[j][v] is the canonical value string for value v.
	representatives := make([][]string, ds.NumTasks())
	for j := 0; j < ds.NumTasks(); j++ {
		representatives[j] = classRepresentatives(ds, j, sim, tau)
	}
	for i := 0; i < ds.NumWorkers(); i++ {
		vals := ds.WorkerValues(i)
		for t, j := range ds.WorkerTasks(i) {
			v := vals[t]
			b.AddObservation(ds.WorkerID(i), ds.Task(j).ID, representatives[j][v])
		}
	}
	merged, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("truth: rebuilding merged dataset: %w", err)
	}
	return merged, nil
}

// classRepresentatives groups task j's values into similarity classes and
// returns, per value index, its class representative string.
func classRepresentatives(ds *model.Dataset, j int, sim func(a, b string) float64, tau float64) []string {
	values := ds.Values(j)
	n := len(values)
	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if sim(values[a], values[b]) >= tau {
				union(a, b)
			}
		}
	}
	// Representative per class: the member with the most providers
	// (ties toward the lower value index, i.e. first observed).
	providerCount := make([]int, n)
	for _, v := range ds.TaskValues(j) {
		providerCount[v]++
	}
	best := make(map[int]int) // class root → value index
	for v := 0; v < n; v++ {
		root := find(v)
		cur, ok := best[root]
		if !ok || providerCount[v] > providerCount[cur] {
			best[root] = v
		}
	}
	out := make([]string, n)
	for v := 0; v < n; v++ {
		out[v] = values[best[find(v)]]
	}
	return out
}
