package truth

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"imc2/internal/model"
)

// randomDataset builds a structurally valid random dataset for property
// tests: random domains, random sparsity, no ground-truth structure.
func randomDataset(rng *rand.Rand) *model.Dataset {
	nWorkers := 2 + rng.Intn(8)
	nTasks := 1 + rng.Intn(8)
	b := model.NewBuilder()
	for j := 0; j < nTasks; j++ {
		b.AddTask(model.Task{
			ID:          fmt.Sprintf("t%d", j),
			NumFalse:    1 + rng.Intn(4),
			Requirement: rng.Float64() * 2,
			Value:       1 + rng.Float64()*7,
		})
	}
	// Every dataset needs at least one observation; force one.
	b.AddObservation("w0", "t0", "v0")
	for i := 0; i < nWorkers; i++ {
		for j := 0; j < nTasks; j++ {
			if i == 0 && j == 0 {
				continue
			}
			if rng.Float64() < 0.6 {
				b.AddObservation(
					fmt.Sprintf("w%d", i),
					fmt.Sprintf("t%d", j),
					fmt.Sprintf("v%d", rng.Intn(4)),
				)
			}
		}
	}
	ds, err := b.Build()
	if err != nil {
		panic(err) // construction above is always valid
	}
	return ds
}

// TestDiscoverPropertyRandomDatasets drives every method over random
// datasets and checks the structural invariants that must hold regardless
// of data: probability ranges, truth indices, convergence accounting.
func TestDiscoverPropertyRandomDatasets(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	methods := []Method{MethodDATE, MethodMV, MethodNC, MethodED}
	for trial := 0; trial < 40; trial++ {
		ds := randomDataset(rng)
		for _, m := range methods {
			res, err := Discover(ds, m, DefaultOptions())
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, m, err)
			}
			if res.Iterations < 1 || res.Iterations > DefaultOptions().MaxIterations {
				t.Fatalf("trial %d %v: iterations = %d", trial, m, res.Iterations)
			}
			for j, v := range res.Truth {
				if v == model.NotAnswered {
					if len(ds.Values(j)) != 0 {
						t.Fatalf("trial %d %v: answered task %d marked unanswered", trial, m, j)
					}
					continue
				}
				if int(v) >= len(ds.Values(j)) {
					t.Fatalf("trial %d %v: truth[%d] = %d out of range", trial, m, j, v)
				}
				// The elected value must have at least one provider.
				if !slices.Contains(ds.TaskValues(j), v) {
					t.Fatalf("trial %d %v: elected value of task %d has no providers", trial, m, j)
				}
			}
			for i, row := range res.Accuracy {
				if len(row) != len(ds.WorkerTasks(i)) {
					t.Fatalf("trial %d %v: accuracy row %d has %d cells for %d tasks", trial, m, i, len(row), len(ds.WorkerTasks(i)))
				}
				for x, a := range row {
					if a < 0 || a > 1 {
						t.Fatalf("trial %d %v: accuracy[%d][%d] = %v", trial, m, i, x, a)
					}
				}
			}
			for j, row := range res.TaskIndependence {
				for b, in := range row {
					if in < 0 || in > 1 {
						t.Fatalf("trial %d %v: independence[%d][%d] = %v", trial, m, j, b, in)
					}
				}
			}
		}
	}
}

// TestPerTaskProbabilitiesFormSimplex checks that the per-task accuracies
// of a task's providers, grouped by value, sum to ≈1 when every provider
// picked a distinct value (then A_i^j = P_j(v_i) enumerates the whole
// simplex).
func TestPerTaskProbabilitiesFormSimplex(t *testing.T) {
	b := model.NewBuilder()
	b.AddTask(model.Task{ID: "t", NumFalse: 3, Requirement: 1, Value: 5})
	for i := 0; i < 4; i++ {
		b.AddObservation(fmt.Sprintf("w%d", i), "t", fmt.Sprintf("v%d", i))
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Discover(ds, MethodNC, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < 4; i++ {
		sum += res.Accuracy[i][0]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("distinct-value accuracies sum to %v, want 1", sum)
	}
}

// TestAllWorkersAgree is the degenerate consensus case: one value per
// task, every method must elect it with confidence.
func TestAllWorkersAgree(t *testing.T) {
	b := model.NewBuilder()
	b.AddTask(model.Task{ID: "t", NumFalse: 2, Requirement: 1, Value: 5})
	for i := 0; i < 5; i++ {
		b.AddObservation(fmt.Sprintf("w%d", i), "t", "consensus")
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodDATE, MethodMV, MethodNC, MethodED} {
		res, err := Discover(ds, m, DefaultOptions())
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got := res.TruthMap(ds)["t"]; got != "consensus" {
			t.Errorf("%v elected %q", m, got)
		}
	}
}

// TestTwoIdenticalWorkers: perfect clones answering everything alike are
// maximally suspicious; DATE must assign them a dependence posterior far
// above the prior.
func TestTwoIdenticalWorkers(t *testing.T) {
	b := model.NewBuilder()
	for j := 0; j < 12; j++ {
		b.AddTask(model.Task{ID: fmt.Sprintf("t%d", j), NumFalse: 3, Requirement: 1, Value: 5})
	}
	// A reference majority fixes the estimated truth.
	for i := 0; i < 3; i++ {
		for j := 0; j < 12; j++ {
			b.AddObservation(fmt.Sprintf("ref%d", i), fmt.Sprintf("t%d", j), "right")
		}
	}
	// The clones share several distinctive wrong answers.
	for _, w := range []string{"cloneA", "cloneB"} {
		for j := 0; j < 12; j++ {
			v := "right"
			if j%3 == 0 {
				v = "sharedwrong"
			}
			b.AddObservation(w, fmt.Sprintf("t%d", j), v)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Discover(ds, MethodDATE, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ds.WorkerIndex("cloneA")
	bIdx, _ := ds.WorkerIndex("cloneB")
	if dep := res.Dependence[a][bIdx]; dep < 0.9 {
		t.Errorf("clone dependence = %v, want > 0.9", dep)
	}
	r0, _ := ds.WorkerIndex("ref0")
	r1, _ := ds.WorkerIndex("ref1")
	if dep := res.Dependence[r0][r1]; dep > res.Dependence[a][bIdx] {
		t.Errorf("reference pair dependence %v above clone pair %v",
			dep, res.Dependence[a][bIdx])
	}
}

// TestSingleWorkerDataset: one worker answering everything is trivially
// the truth under every method.
func TestSingleWorkerDataset(t *testing.T) {
	b := model.NewBuilder()
	b.AddTask(model.Task{ID: "t", NumFalse: 1, Requirement: 0.5, Value: 5})
	b.AddObservation("solo", "t", "answer")
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodDATE, MethodMV, MethodNC, MethodED} {
		res, err := Discover(ds, m, DefaultOptions())
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got := res.TruthMap(ds)["t"]; got != "answer" {
			t.Errorf("%v elected %q", m, got)
		}
	}
}
