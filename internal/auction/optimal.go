package auction

import (
	"fmt"
	"math"
	"sort"
)

// maxExactWorkers bounds the exact solver; branch-and-bound over subsets
// is exponential and exists to measure approximation ratios on small
// instances (ablation a1 in internal/experiment).
const maxExactWorkers = 24

// Optimal solves the SOAC instance exactly by branch and bound, returning
// the minimum social cost winner set. Payments follow VCG:
// p_i = b_i + (OPT(W\{i}) − OPT(W)), the externality i imposes.
//
// It refuses instances with more than maxExactWorkers workers.
func Optimal(in *Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.NumWorkers() > maxExactWorkers {
		return nil, fmt.Errorf("auction: exact solver limited to %d workers, got %d",
			maxExactWorkers, in.NumWorkers())
	}
	ix := newCoverageIndex(in)
	cost, winners, err := optimalCost(ix, -1)
	if err != nil {
		return nil, err
	}

	payments := make([]float64, in.NumWorkers())
	for _, i := range winners {
		altCost, _, err := optimalCost(ix, i)
		if err != nil {
			// The full set covered every task, so W\{i} failing to
			// means i is irreplaceable.
			return nil, fmt.Errorf("%w (worker %d)", ErrMonopolist, i)
		}
		payments[i] = in.Bids[i] + (altCost - cost)
	}
	return finishOutcome(in, winners, payments, "OPT/VCG"), nil
}

// OptimalCost returns only the optimal social cost (no payments); it is
// what approximation-ratio experiments need.
func OptimalCost(in *Instance) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	if in.NumWorkers() > maxExactWorkers {
		return 0, fmt.Errorf("auction: exact solver limited to %d workers, got %d",
			maxExactWorkers, in.NumWorkers())
	}
	cost, _, err := optimalCost(newCoverageIndex(in), -1)
	return cost, err
}

// optimalCost branch-and-bounds over include/exclude decisions per worker,
// excluding worker skip entirely (-1 for none).
func optimalCost(ix *coverageIndex, skip int) (float64, []int, error) {
	in := ix.in
	n := in.NumWorkers()

	// Order workers by decreasing total coverage per unit bid so good
	// candidates are tried first and pruning bites early.
	type cand struct {
		idx     int
		density float64 // coverage per cost
		maxCov  float64 // coverage against the full requirements
	}
	cands := make([]cand, 0, n)
	for i := 0; i < n; i++ {
		if i == skip {
			continue
		}
		cov := ix.start.cov[i]
		density := math.Inf(1)
		if in.Bids[i] > 0 {
			density = cov / in.Bids[i]
		}
		cands = append(cands, cand{idx: i, density: density, maxCov: cov})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].density > cands[b].density })

	// bestRate bounds the cheapest possible unit of residual coverage from
	// position p onward: min over remaining candidates of bid/cov.
	bestRate := make([]float64, len(cands)+1)
	bestRate[len(cands)] = math.Inf(1)
	for p := len(cands) - 1; p >= 0; p-- {
		rate := math.Inf(1)
		if cands[p].maxCov > covered {
			rate = in.Bids[cands[p].idx] / cands[p].maxCov
		}
		bestRate[p] = math.Min(bestRate[p+1], rate)
	}

	// Greedy upper bound primes the search.
	var bestSet []int
	err := selectByRatio(ix.newState(), make([]bool, n), skip, func(k int) {
		bestSet = append(bestSet, k)
	})
	if err != nil {
		return 0, nil, err
	}
	best := 0.0
	for _, w := range bestSet {
		best += in.Bids[w]
	}

	residual := make([]float64, in.NumTasks())
	copy(residual, in.Requirements)
	var remain float64
	for _, q := range residual {
		remain += q
	}

	var cur []int
	var dfs func(pos int, cost float64, remain float64)
	dfs = func(pos int, cost float64, remain float64) {
		if remain <= covered {
			if cost < best {
				best = cost
				bestSet = append(bestSet[:0], cur...)
			}
			return
		}
		if pos >= len(cands) {
			return
		}
		// Lower bound: covering the residual costs at least
		// remain × (cheapest unit rate among remaining workers).
		if lb := remain * bestRate[pos]; cost+lb >= best-1e-12 {
			return
		}

		i := cands[pos].idx

		// Branch 1: include i.
		if cost+in.Bids[i] < best {
			decs := make([]float64, len(in.TaskSets[i]))
			var totalDec float64
			for t, j := range in.TaskSets[i] {
				dec := min(residual[j], in.Accuracy[i][t])
				decs[t] = dec
				residual[j] -= dec
				totalDec += dec
			}
			cur = append(cur, i)
			dfs(pos+1, cost+in.Bids[i], remain-totalDec)
			cur = cur[:len(cur)-1]
			for t, j := range in.TaskSets[i] {
				residual[j] += decs[t]
			}
		}

		// Branch 2: exclude i.
		dfs(pos+1, cost, remain)
	}
	dfs(0, 0, remain)

	if math.IsInf(best, 1) {
		return 0, nil, ErrInfeasible
	}
	sort.Ints(bestSet)
	return best, bestSet, nil
}
