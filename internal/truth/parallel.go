package truth

import (
	"sync"
	"sync/atomic"
)

// The parallel engine partitions work so that the floating-point
// operations — and therefore the results — are identical for every
// parallelism degree: each unit of work writes state no other unit
// touches, and no floating-point value is ever accumulated across units.
//
//   - computeDependence is row-owned. When it counts every pair, unit i
//     counts, in integers, the co-observed tasks it shares with every
//     later worker and writes the closed-form posterior of both
//     directions of those pairs. Interning tuples and moving them between
//     passes are integer and serial. A fill pass has unit i write row i
//     alone, from its partner lists and its slot's memo; unit b sums the
//     dependence totals of rows 4b…4b+3.
//   - estimate and computeIndependence parallelize over tasks (and the
//     accuracy fold over workers).
//
// Scheduling is dynamic (an atomic work counter) because unit costs are
// skewed — provider-group sizes vary, dependence row i counts n−1−i
// pairs, and partner lists vary in length — but which goroutine runs a
// unit can never affect the output.

// Executor abstracts who provides the goroutines for the engine's
// data-parallel passes. Execute runs fn(slot, k) for every k in [0, n)
// using at most `slots` concurrent invocations; each invocation's slot
// is in [0, slots) and exclusive to one goroutine at a time, so the
// engine can key per-goroutine scratch by slot. fn must only write state
// no other k touches.
//
// The default executor (goExecutor) spins up a goroutine pool per call —
// the right shape for a lone Discover. A service settling many campaigns
// concurrently injects a shared bounded executor instead (see
// internal/sched.Pool, which satisfies this interface), so aggregate
// goroutines stay fixed at the shared pool size no matter how many
// settles are in flight. Either way results are bit-identical: the work
// partition is a pure function of the dataset shape, never of who runs
// which unit.
type Executor interface {
	Execute(slots, n int, fn func(slot, k int))
}

// goExecutor is the per-run default: a transient goroutine pool per call.
type goExecutor struct{}

func (goExecutor) Execute(slots, n int, fn func(slot, k int)) {
	parallelSlots(slots, n, fn)
}

// do runs fn(k) for every k in [0, n) on the state's executor with the
// run's parallelism degree. fn must only write state no other k touches.
func (s *state) do(n int, fn func(k int)) {
	s.exec.Execute(s.par, n, func(_, k int) { fn(k) })
}

// doSlots is do with a slot identifier for per-goroutine scratch.
func (s *state) doSlots(n int, fn func(slot, k int)) {
	s.exec.Execute(s.par, n, fn)
}

// parallelSlots runs fn(slot, k) for every k in [0, n) across up to p
// goroutines; p <= 1 runs inline. fn receives a slot in [0, p) that is
// stable for the goroutine invoking it, so callers can hand each
// goroutine its own scratch buffers, and must only write state that no
// other k touches. It backs goExecutor only — engine passes go through
// the state's do/doSlots so an injected shared Executor is never
// bypassed.
func parallelSlots(p, n int, fn func(slot, k int)) {
	if p > n {
		p = n
	}
	if p <= 1 {
		for k := 0; k < n; k++ {
			fn(0, k)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(p)
	for g := 0; g < p; g++ {
		go func(slot int) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				fn(slot, k)
			}
		}(g)
	}
	wg.Wait()
}
