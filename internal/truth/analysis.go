package truth

import (
	"cmp"
	"math"
	"slices"

	"imc2/internal/model"
	"imc2/internal/numeric"
)

// DependentPair is an undirected worker pair ranked by its total directed
// dependence posterior.
type DependentPair struct {
	// A and B are worker indices with A < B.
	A, B int
	// AtoB is P(A→B | D), BtoA is P(B→A | D).
	AtoB, BtoA float64
}

// Total returns the combined evidence of dependence in either direction.
func (p DependentPair) Total() float64 { return p.AtoB + p.BtoA }

// RankDependentPairs returns the worker pairs sorted by descending total
// dependence posterior, strongest first; equal totals keep (A, B)
// ascending. Methods without a dependence model (MV, NC) yield nil.
func (r *Result) RankDependentPairs() []DependentPair {
	if r.Dependence == nil {
		return nil
	}
	n := len(r.Dependence)
	pairs := make([]DependentPair, 0, n*(n-1)/2)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			pairs = append(pairs, r.pair(a, b))
		}
	}
	// Pairs are generated in (A, B) order, so a stable sort on the total
	// alone leaves ties in that order.
	slices.SortStableFunc(pairs, func(x, y DependentPair) int { return cmp.Compare(y.Total(), x.Total()) })
	return pairs
}

// TopDependentPairs returns the first k pairs of RankDependentPairs (all
// of them when k exceeds the pair count) without sorting every pair.
// Methods without a dependence model yield nil.
func (r *Result) TopDependentPairs(k int) []DependentPair {
	if r.Dependence == nil {
		return nil
	}
	n := len(r.Dependence)
	k = max(0, min(k, n*(n-1)/2))
	if k == 0 {
		return []DependentPair{}
	}
	// Candidates collect in a buffer of 2k; a full buffer is cut back to
	// its k strongest, whose weakest total becomes the floor. Pairs arrive
	// in (A, B) order, so one whose total only equals the floor ranks
	// after k kept pairs and is dropped.
	top := make([]DependentPair, 0, 2*k)
	floor := math.Inf(-1)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			p := r.pair(a, b)
			if p.Total() <= floor {
				continue
			}
			top = append(top, p)
			if len(top) == cap(top) {
				slices.SortFunc(top, rankPairs)
				top = top[:k]
				floor = top[k-1].Total()
			}
		}
	}
	slices.SortFunc(top, rankPairs)
	return top[:min(k, len(top))]
}

// rankPairs orders pairs as RankDependentPairs does: total descending,
// then (A, B) ascending.
func rankPairs(x, y DependentPair) int {
	if c := cmp.Compare(y.Total(), x.Total()); c != 0 {
		return c
	}
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	return cmp.Compare(x.B, y.B)
}

func (r *Result) pair(a, b int) DependentPair {
	return DependentPair{A: a, B: b, AtoB: r.Dependence[a][b], BtoA: r.Dependence[b][a]}
}

// CopierScores returns, per worker, the strongest posterior probability
// that the worker copies from any other worker — a ranking signal for
// audits ("who should the platform look at first").
func (r *Result) CopierScores() []float64 {
	if r.Dependence == nil {
		return nil
	}
	out := make([]float64, len(r.Dependence))
	for i, row := range r.Dependence {
		for k, p := range row {
			if k != i && p > out[i] {
				out[i] = p
			}
		}
	}
	return out
}

// MeanIndependence returns each worker's mean independence probability
// over the tasks it answered (1 for workers that answered nothing, since
// no copied value exists).
func (r *Result) MeanIndependence(ds *model.Dataset) []float64 {
	// Walking tasks in order adds each worker's cells in the order of
	// its (ascending) WorkerTasks list.
	sums := make([]numeric.KahanSum, ds.NumWorkers())
	for j, row := range r.TaskIndependence {
		for b, i := range ds.TaskWorkers(j) {
			sums[i].Add(row[b])
		}
	}
	out := make([]float64, ds.NumWorkers())
	for i := range out {
		out[i] = 1
		if nt := len(ds.WorkerTasks(i)); nt > 0 {
			out[i] = sums[i].Sum() / float64(nt)
		}
	}
	return out
}
