package auction

import (
	"fmt"
	"math"
	"sort"
)

// GreedyAccuracy is the GA baseline of §VII-A: it repeatedly selects the
// worker with the highest marginal accuracy coverage, ignoring bids, until
// every requirement is met.
//
// The paper pays GA winners "the critical value". Because GA's selection
// rule never reads the bids, no finite bid-threshold exists; the natural
// instantiation used here pays each winner
// the bid of the worker that replaces it when the selection is rerun
// without it (its market alternative), floored at its own bid so the
// payment stays individually rational.
//
// Each rerun starts from a reset state. Unlike ReverseAuction's reruns,
// none can resume from the full run's prefix: GA's tie-break (coverage
// within the covered tolerance, then the lower bid) is not a strict
// total order, so removing a worker that lost a step can change that
// step's pick.
func GreedyAccuracy(in *Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	s := newCoverageIndex(in).newState()
	taken := make([]bool, in.NumWorkers())
	winners, err := selectByAccuracy(s, taken, -1, nil)
	if err != nil {
		return nil, err
	}

	payments := make([]float64, in.NumWorkers())
	inS := make([]bool, in.NumWorkers())
	for _, w := range winners {
		inS[w] = true
	}
	var alt []int // one buffer for every rerun's selection
	for _, i := range winners {
		s.reset()
		clear(taken)
		alt, err = selectByAccuracy(s, taken, i, alt[:0])
		if err != nil {
			// The full set covered every task, so W\{i} failing to
			// means i is irreplaceable.
			return nil, fmt.Errorf("%w (worker %d)", ErrMonopolist, i)
		}
		payments[i] = in.Bids[i]
		for _, k := range alt {
			if !inS[k] { // first replacement not already a winner
				if in.Bids[k] > payments[i] {
					payments[i] = in.Bids[k]
				}
				break
			}
		}
	}
	return finishOutcome(in, winners, payments, "GA"), nil
}

// selectByAccuracy runs GA's selection from s over the workers neither
// taken nor skip (-1 for none) and returns winners with the selected
// workers appended in order, or ErrInfeasible when no remaining worker
// covers anything while requirements are still open.
func selectByAccuracy(s *coverageState, taken []bool, skip int, winners []int) ([]int, error) {
	bids := s.ix.in.Bids
	for !s.done() {
		best, bestCov := -1, 0.0
		for k, cov := range s.cov {
			if k == skip || taken[k] {
				continue
			}
			if cov > bestCov+covered ||
				(cov > covered && best >= 0 && math.Abs(cov-bestCov) <= covered && bids[k] < bids[best]) {
				best, bestCov = k, cov
			}
		}
		if best < 0 {
			return nil, ErrInfeasible
		}
		taken[best] = true
		winners = append(winners, best)
		s.apply(best)
	}
	return winners, nil
}

// GreedyBid is the GB baseline of §VII-A: it selects workers in ascending
// bid order until the requirements are covered and pays every winner the
// lowest losing bid (the multi-unit Vickrey clearing price), floored at
// the winner's own bid.
func GreedyBid(in *Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	order := make([]int, in.NumWorkers())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if in.Bids[order[a]] != in.Bids[order[b]] {
			return in.Bids[order[a]] < in.Bids[order[b]]
		}
		return order[a] < order[b]
	})

	s := newCoverageIndex(in).newState()
	var winners []int
	for _, k := range order {
		if s.done() {
			break
		}
		if s.cov[k] <= covered {
			continue // contributes nothing at this point
		}
		winners = append(winners, k)
		s.apply(k)
	}
	if !s.done() {
		return nil, ErrInfeasible
	}

	// Vickrey-style uniform price: the first losing bid.
	clearing := math.Inf(1)
	isWinner := make([]bool, in.NumWorkers())
	for _, w := range winners {
		isWinner[w] = true
	}
	for _, k := range order {
		if !isWinner[k] {
			clearing = in.Bids[k]
			break
		}
	}

	payments := make([]float64, in.NumWorkers())
	for _, w := range winners {
		p := clearing
		if math.IsInf(p, 1) || p < in.Bids[w] {
			p = in.Bids[w] // no loser to price against, or IR floor
		}
		payments[w] = p
	}
	return finishOutcome(in, winners, payments, "GB"), nil
}
