package platform

import (
	"runtime"
	"testing"

	"imc2/internal/gen"
	"imc2/internal/truth"
)

// TestSettleScratchBound measures the bytes a settle allocates to
// assemble its dataset, discover the truth (DATE, serial) and build the
// auction instance, on a wide sparse campaign: 120 workers, 12,000
// tasks, 20 answers per worker, every task topped up to two providers.
// The bound is stated in n² and observations only. The n² term covers
// the dependence matrix (8·n² bytes) and the pair table's count rows;
// the observation term covers every per-answer layout (the dataset's
// lists and values, accuracy, independence, positions; the instance
// shares the dataset's task lists) and the per-task arrays, as every
// task has an answer (m ≤ observations). A buffer sized n·m — 12 bytes
// per cell for a dense accuracy matrix and answer block — is 1.4M cells
// here and cannot fit.
func TestSettleScratchBound(t *testing.T) {
	spec := gen.DefaultSpec()
	spec.Workers, spec.Tasks, spec.Copiers = 120, 12000, 24
	spec.TasksPerWorker, spec.MinProvidersPerTask = 20, 2
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	tasks, subs := shapeSubmissions(t, spec, 5)
	p, err := New(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if err := p.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	opt := truth.DefaultOptions()
	opt.Parallelism = 1

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ds, bids, err := p.assemble()
	if err != nil {
		t.Fatal(err)
	}
	res, err := truth.Discover(ds, truth.MethodDATE, opt)
	if err != nil {
		t.Fatal(err)
	}
	in := BuildInstance(ds, res.Accuracy, bids)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(in)

	n, m, obs := ds.NumWorkers(), ds.NumTasks(), ds.NumObservations()
	if m < 50*n || obs < m {
		t.Fatalf("campaign is %d workers × %d tasks with %d answers: want m ≥ 50n and every task answered", n, m, obs)
	}
	got := after.TotalAlloc - before.TotalAlloc
	bound := uint64(48*n*n + 256*obs)
	t.Logf("n=%d m=%d observations=%d iterations=%d: %d bytes allocated, bound %d (n·m = %d cells)",
		n, m, obs, res.Iterations, got, bound, n*m)
	if got > bound {
		t.Fatalf("assembly + truth discovery + instance allocated %d bytes, over 48·n² + 256·observations = %d (n=%d, m=%d, %d observations)",
			got, bound, n, m, obs)
	}
}
