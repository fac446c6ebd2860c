package truth

import (
	"fmt"
	"sync"
	"testing"

	"imc2/internal/model"
)

func TestParallelismValidate(t *testing.T) {
	opt := DefaultOptions()
	opt.Parallelism = -1
	if err := opt.Validate(); err == nil {
		t.Fatal("negative Parallelism accepted")
	}
	opt.Parallelism = 8
	if err := opt.Validate(); err != nil {
		t.Fatalf("Parallelism 8 rejected: %v", err)
	}
}

// sameResult reports the first difference between two runs, comparing
// every float bit-for-bit (==, not tolerance): the parallel engine
// promises byte-identical output for every parallelism degree.
func sameResult(a, b *Result) error {
	if a.Iterations != b.Iterations || a.Converged != b.Converged {
		return fmt.Errorf("iterations/converged: %d/%v vs %d/%v",
			a.Iterations, a.Converged, b.Iterations, b.Converged)
	}
	for j := range a.Truth {
		if a.Truth[j] != b.Truth[j] {
			return fmt.Errorf("truth[%d]: %d vs %d", j, a.Truth[j], b.Truth[j])
		}
	}
	cmpMatrix := func(name string, x, y [][]float64) error {
		if len(x) != len(y) {
			return fmt.Errorf("%s: %d rows vs %d", name, len(x), len(y))
		}
		for i := range x {
			for j := range x[i] {
				if x[i][j] != y[i][j] {
					return fmt.Errorf("%s[%d][%d]: %v vs %v", name, i, j, x[i][j], y[i][j])
				}
			}
		}
		return nil
	}
	if err := cmpMatrix("accuracy", a.Accuracy, b.Accuracy); err != nil {
		return err
	}
	if err := cmpMatrix("independence", a.TaskIndependence, b.TaskIndependence); err != nil {
		return err
	}
	if a.Dependence != nil || b.Dependence != nil {
		if err := cmpMatrix("dependence", a.Dependence, b.Dependence); err != nil {
			return err
		}
	}
	return nil
}

// TestParallelMatchesSerial pins the engine's central promise: for a
// fixed input, every Parallelism setting produces byte-identical results.
// The large copier scenario has enough workers and tasks (2·256+17) that
// every pass spreads over several pool slots.
func TestParallelMatchesSerial(t *testing.T) {
	fixtures := []struct {
		name string
		ds   *model.Dataset
	}{
		{"table1", func() *model.Dataset { ds, _ := table1Dataset(t); return ds }()},
		{"copiers-small", func() *model.Dataset { ds, _ := copierScenario(t, 8, 4, 60); return ds }()},
		{"copiers-multishard", func() *model.Dataset { ds, _ := copierScenario(t, 10, 5, 2*256+17); return ds }()},
	}
	methods := []Method{MethodDATE, MethodNC, MethodED}

	for _, fx := range fixtures {
		for _, method := range methods {
			if method == MethodED && fx.ds.NumTasks() > 256 {
				continue // ED's enumeration is too slow at this scale
			}
			t.Run(fmt.Sprintf("%s/%s", fx.name, method), func(t *testing.T) {
				opt := DefaultOptions()
				opt.CopyProb = 0.8
				opt.PriorDependence = 0.05
				opt.Parallelism = 1
				serial, err := Discover(fx.ds, method, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range []int{2, 3, 8} {
					opt.Parallelism = par
					got, err := Discover(fx.ds, method, opt)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameResult(serial, got); err != nil {
						t.Fatalf("Parallelism=%d diverged from serial: %v", par, err)
					}
				}
			})
		}
	}
}

// TestParallelMatchesSerialWithSimilarity covers the §IV-A extension
// (similarity-adjusted votes, eq. 21), whose scratch reuse must not leak
// state between tasks.
func TestParallelMatchesSerialWithSimilarity(t *testing.T) {
	ds, _ := copierScenario(t, 8, 4, 256+40)
	sim := func(a, b string) float64 {
		if a == b {
			return 1
		}
		if (a == "f0" && b == "f1") || (a == "f1" && b == "f0") {
			return 0.8
		}
		return 0
	}
	opt := DefaultOptions()
	opt.CopyProb = 0.8
	opt.PriorDependence = 0.05
	opt.Similarity = sim
	opt.SimilarityWeight = 0.3

	opt.Parallelism = 1
	serial, err := Discover(ds, MethodDATE, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 4
	parallel, err := Discover(ds, MethodDATE, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(serial, parallel); err != nil {
		t.Fatalf("similarity run diverged: %v", err)
	}
}

// TestConcurrentDiscoverSharedDataset drives many parallel Discover calls
// over the same shared dataset; under -race this proves the engine keeps
// all mutable state run-local (the dataset itself is read-only).
func TestConcurrentDiscoverSharedDataset(t *testing.T) {
	ds, _ := copierScenario(t, 10, 5, 256+20)
	opt := DefaultOptions()
	opt.CopyProb = 0.8
	opt.PriorDependence = 0.05
	opt.Parallelism = 4

	want, err := Discover(ds, MethodDATE, opt)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 6
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			method := MethodDATE
			if g%3 == 1 {
				method = MethodNC
			}
			res, err := Discover(ds, method, opt)
			if err != nil {
				errs[g] = err
				return
			}
			if method == MethodDATE {
				errs[g] = sameResult(want, res)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestParallelDoCoversAllIndices checks the pool helper itself: every
// index runs exactly once for any (p, n) shape, and slots stay in range.
func TestParallelDoCoversAllIndices(t *testing.T) {
	for _, p := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			var mu sync.Mutex
			seen := make([]int, n)
			parallelSlots(p, n, func(slot, k int) {
				if slot < 0 || (p > 1 && slot >= p) || (p <= 1 && slot != 0) {
					t.Errorf("p=%d n=%d: slot %d out of range", p, n, slot)
				}
				mu.Lock()
				seen[k]++
				mu.Unlock()
			})
			for k, c := range seen {
				if c != 1 {
					t.Errorf("p=%d n=%d: index %d ran %d times", p, n, k, c)
				}
			}
		}
	}
}
