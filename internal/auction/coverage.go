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
// coverageState is the mutable part (Θ', cov, the per-entry
// contributions min(Θ'_j, A_k^j) and Σ Θ'); it is reset or copied from
// another state, never rebuilt.
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
		contrib:  make([]float64, entries),
	}
	next := append([]int(nil), ix.taskOff[:m]...)
	for i, ts := range in.TaskSets {
		for t, j := range ts {
			e := next[j]
			next[j]++
			a := in.Accuracy[i][t]
			c := min2(st.residual[j], a)
			ix.entWorker[e] = int32(i)
			ix.entAcc[e] = a
			st.contrib[e] = c
			st.cov[i] += c
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
	contrib  []float64 // per index entry: min(Θ'_j, A_k^j)
	remain   float64   // Σ_j Θ'_j
}

// newState returns a state at the full requirement profile.
func (ix *coverageIndex) newState() *coverageState {
	st := &ix.start
	return &coverageState{
		ix:       ix,
		residual: slices.Clone(st.residual),
		cov:      slices.Clone(st.cov),
		contrib:  slices.Clone(st.contrib),
		remain:   st.remain,
	}
}

// reset returns s to the full requirement profile.
func (s *coverageState) reset() { s.copyFrom(&s.ix.start) }

// copyFrom makes s an exact copy of o, a state of the same index.
func (s *coverageState) copyFrom(o *coverageState) {
	copy(s.residual, o.residual)
	copy(s.cov, o.cov)
	copy(s.contrib, o.contrib)
	s.remain = o.remain
}

// done reports whether every requirement is met.
func (s *coverageState) done() bool { return s.remain <= covered }

// apply selects worker i: residuals over T_i drop by min(Θ'_j, A_i^j) and
// the coverages of every worker sharing those tasks are refreshed.
func (s *coverageState) apply(i int) {
	ix := s.ix
	acc := ix.in.Accuracy[i]
	for t, j := range ix.in.TaskSets[i] {
		dec := min2(s.residual[j], acc[t])
		if dec <= 0 {
			continue
		}
		newResidual := s.residual[j] - dec
		if newResidual < covered {
			newResidual = 0
		}
		s.remain -= s.residual[j] - newResidual
		s.residual[j] = newResidual
		for e := ix.taskOff[j]; e < ix.taskOff[j+1]; e++ {
			newC := min2(newResidual, ix.entAcc[e])
			s.cov[ix.entWorker[e]] += newC - s.contrib[e]
			s.contrib[e] = newC
		}
	}
	if s.remain < covered {
		s.remain = 0
	}
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
