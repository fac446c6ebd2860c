package truth

import (
	"fmt"
	"sync"
	"testing"

	"imc2/internal/sched"
)

// TestSharedExecutorMatchesDefault pins the scheduler integration's
// central promise: running the engine's passes on a shared bounded pool
// (internal/sched) produces bit-identical results to the built-in
// per-run pool, for every pool size.
func TestSharedExecutorMatchesDefault(t *testing.T) {
	ds, _ := copierScenario(t, 10, 5, 2*256+17)
	opt := DefaultOptions()
	opt.CopyProb = 0.8
	opt.PriorDependence = 0.05
	opt.Parallelism = 1
	serial, err := Discover(ds, MethodDATE, opt)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("pool=%d", workers), func(t *testing.T) {
			pool := sched.NewPool(workers)
			defer pool.Close()
			opt := opt
			opt.Parallelism = 0 // GOMAXPROCS slots requested, pool bounds them
			opt.Executor = pool
			got, err := Discover(ds, MethodDATE, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(serial, got); err != nil {
				t.Fatalf("shared pool (%d workers) diverged from serial: %v", workers, err)
			}
		})
	}
}

// TestSharedExecutorConcurrentDiscovers interleaves many Discover runs
// on ONE shared pool — the multi-campaign settle shape — and checks
// every run still matches the serial baseline bit-for-bit. Run with
// -race: it also proves slot-keyed scratch stays exclusive when pool
// workers migrate between runs.
func TestSharedExecutorConcurrentDiscovers(t *testing.T) {
	ds, _ := copierScenario(t, 10, 5, 256+20)
	opt := DefaultOptions()
	opt.CopyProb = 0.8
	opt.PriorDependence = 0.05
	opt.Parallelism = 1
	want, err := Discover(ds, MethodDATE, opt)
	if err != nil {
		t.Fatal(err)
	}

	pool := sched.NewPool(4)
	defer pool.Close()
	const runs = 6
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for g := 0; g < runs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opt := opt
			opt.Parallelism = 0
			opt.Executor = pool
			res, err := Discover(ds, MethodDATE, opt)
			if err != nil {
				errs[g] = err
				return
			}
			errs[g] = sameResult(want, res)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("concurrent run %d: %v", g, err)
		}
	}
}
