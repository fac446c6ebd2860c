package auction

import "slices"

// Coverage bookkeeping for the greedy mechanisms. For every worker k the
// marginal coverage is cov_k = Σ_{j∈T_k} min(Θ'_j, A_k^j), where Θ' is
// the residual requirement profile left after the workers selected so
// far. Algorithm 2 reads cov for all workers after every selection, so
// the state is maintained incrementally: selecting worker i touches only
// the entries of the tasks in T_i.
//
// The bookkeeping is split in two. A coverageIndex is immutable and built
// once per mechanism call: for every task j, the entries (k, A_k^j) of
// the workers performing it, stored contiguously in ascending worker
// order, plus the state at the full requirement profile. A
// coverageState is the mutable part (Θ', cov and Σ Θ', 8·(m+n) bytes);
// it is reset or copied from another state, never rebuilt. It keeps no
// per-entry contribution: entry (k, A_k^j) contributes min(Θ'_j, A_k^j)
// to cov_k, which apply recomputes from the old and new residual.
//
// Invariant: starting from reset and applying the same workers in the
// same order yields bit-identical states, because apply performs the same
// float operations in the same order however the state was reached. The
// payment phase of ReverseAuction relies on it to resume a rerun from a
// copy of the full run's state instead of replaying its prefix.
type coverageIndex struct {
	in *Instance
	// Entries of task j occupy [taskOff[j], taskOff[j+1]); entry e is
	// worker entWorker[e] with accuracy entAcc[e] on that task.
	taskOff   []int
	entWorker []int32
	entAcc    []float64
	start     coverageState // the state at the full requirement profile
}

// newCoverageIndex indexes a validated instance.
func newCoverageIndex(in *Instance) *coverageIndex {
	m := in.NumTasks()
	ix := &coverageIndex{in: in, taskOff: make([]int, m+1)}
	for _, ts := range in.TaskSets {
		for _, j := range ts {
			ix.taskOff[j+1]++
		}
	}
	for j := 0; j < m; j++ {
		ix.taskOff[j+1] += ix.taskOff[j]
	}
	entries := ix.taskOff[m]
	ix.entWorker = make([]int32, entries)
	ix.entAcc = make([]float64, entries)
	st := &ix.start
	*st = coverageState{
		ix:       ix,
		residual: append([]float64(nil), in.Requirements...),
		cov:      make([]float64, in.NumWorkers()),
	}
	next := append([]int(nil), ix.taskOff[:m]...)
	for i, ts := range in.TaskSets {
		for t, j := range ts {
			e := next[j]
			next[j]++
			a := in.Accuracy[i][t]
			ix.entWorker[e] = int32(i)
			ix.entAcc[e] = a
			st.cov[i] += min(st.residual[j], a)
		}
	}
	for _, q := range in.Requirements {
		st.remain += q
	}
	return ix
}

// coverageState is the mutable half of the bookkeeping.
type coverageState struct {
	ix       *coverageIndex
	residual []float64 // Θ'_j
	cov      []float64 // cov_k
	remain   float64   // Σ_j Θ'_j
}

// newState returns a state at the full requirement profile.
func (ix *coverageIndex) newState() *coverageState {
	st := &ix.start
	return &coverageState{
		ix:       ix,
		residual: slices.Clone(st.residual),
		cov:      slices.Clone(st.cov),
		remain:   st.remain,
	}
}

// reset returns s to the full requirement profile.
func (s *coverageState) reset() { s.copyFrom(&s.ix.start) }

// copyFrom makes s an exact copy of o, a state of the same index.
func (s *coverageState) copyFrom(o *coverageState) {
	copy(s.residual, o.residual)
	copy(s.cov, o.cov)
	s.remain = o.remain
}

// done reports whether every requirement is met.
func (s *coverageState) done() bool { return s.remain <= covered }

// apply selects worker i: residuals over T_i drop by min(Θ'_j, A_i^j) and
// every entry of those tasks adds min(new Θ'_j, A) − min(old Θ'_j, A) to
// its worker's coverage. The builtin min is branch-free on amd64 and
// arm64; a compare-and-branch minimum mispredicts on unsorted accuracies.
func (s *coverageState) apply(i int) {
	ix, cov := s.ix, s.cov
	acc := ix.in.Accuracy[i]
	for t, j := range ix.in.TaskSets[i] {
		old := s.residual[j]
		dec := min(old, acc[t])
		if dec <= 0 {
			continue
		}
		newResidual := old - dec
		if newResidual < covered {
			newResidual = 0
		}
		s.remain -= old - newResidual
		s.residual[j] = newResidual
		lo, hi := ix.taskOff[j], ix.taskOff[j+1]
		workers, accs := ix.entWorker[lo:hi], ix.entAcc[lo:hi]
		for e, k := range workers {
			a := accs[e]
			cov[k] += min(newResidual, a) - min(old, a)
		}
	}
	if s.remain < covered {
		s.remain = 0
	}
}
