package auction

import (
	"fmt"
	"math"
)

// ReverseAuction runs Algorithm 2: greedy winner selection by effective
// accuracy unit cost followed by critical-value payment determination.
// The mechanism is individually rational, truthful, and 2εH_Ω-approximate
// (paper Theorem 3).
//
// Worker i's payment (lines 10–19) comes from the selection rerun over
// W\{i}: the maximum price at which i would still have been chosen in
// place of some selected worker i_k,
//
//	p_i = max_k  b_{i_k} · cov_i(Θ'') / cov_{i_k}(Θ'')
//
// where Θ” is the residual profile at i_k's selection. Bidding above p_i
// would place i behind the workers that already complete the coverage, so
// p_i is i's critical value (Lemma 3).
//
// The reruns are not run from scratch. Each step selects the argmin of
// b_k/cov_k under a strict < in index order, a strict total order, so
// removing a worker that is not the argmin leaves the argmin unchanged:
// the rerun over W\{i} is the full run, step for step, until the step at
// which the full run picked i. The payment phase therefore replays the
// full run once on a rolling state. Before applying winner i it copies
// that state (Θ' and cov, 8·(m+n) bytes; the state keeps no per-entry
// contributions) and runs only the rerun's suffix, starting the max from
// i's share of the prefix steps, which the replay folds in as it goes.
// The result is the same max over the same floats as a rerun from
// scratch, so outcomes are bit-identical to it. (In exact arithmetic no
// prefix price exceeds b_i and the suffix's first price is at least b_i;
// the prefix decides a payment only through rounding, but it does.)
func ReverseAuction(in *Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	ix := newCoverageIndex(in)
	n := in.NumWorkers()
	roll, rerun := ix.newState(), ix.newState()
	taken, rerunTaken := make([]bool, n), make([]bool, n)
	// The full selection runs first, so an infeasible instance fails
	// before any payment does.
	var winners []int
	if err := selectByRatio(rerun, rerunTaken, -1, func(k int) { winners = append(winners, k) }); err != nil {
		return nil, err
	}

	prefix := make([]float64, n) // max over the replayed steps, per later winner
	payments := make([]float64, n)
	for t, i := range winners {
		rerun.copyFrom(roll)
		copy(rerunTaken, taken)
		payment := prefix[i]
		err := selectByRatio(rerun, rerunTaken, i, func(k int) {
			payment = foldPrice(payment, in.Bids[k], rerun.cov[i], rerun.cov[k])
		})
		if err != nil {
			// The full set covered every task, so W\{i} failing to
			// means i is irreplaceable.
			return nil, fmt.Errorf("payment for worker %d: %w (worker %d)", i, ErrMonopolist, i)
		}
		payments[i] = payment

		for _, x := range winners[t+1:] {
			prefix[x] = foldPrice(prefix[x], in.Bids[i], roll.cov[x], roll.cov[i])
		}
		taken[i] = true
		roll.apply(i)
	}
	return finishOutcome(in, winners, payments, "ReverseAuction"), nil
}

// foldPrice folds into a running payment the price b_k · covI / covK at
// which the priced worker would have replaced the selected worker k.
func foldPrice(payment, bidK, covI, covK float64) float64 {
	if covI <= covered || covK <= covered {
		return payment
	}
	if p := bidK * covI / covK; p > payment {
		return p
	}
	return payment
}

// selectByRatio runs the winner-selection phase (lines 2–9) from s over
// the workers neither taken nor skip (-1 for none): it repeatedly picks
// the cheapest effective accuracy unit cost b_k / Σ min(Θ', A) (line 3),
// the first such worker in index order on ties, calls visit with it
// before its selection is applied, and stops once every requirement is
// met. It returns ErrInfeasible when no remaining worker covers anything
// while requirements are still open.
func selectByRatio(s *coverageState, taken []bool, skip int, visit func(k int)) error {
	bids := s.ix.in.Bids
	for !s.done() {
		best, bestRatio := -1, math.Inf(1)
		for k, cov := range s.cov {
			if k == skip || taken[k] || cov <= covered {
				continue
			}
			if ratio := bids[k] / cov; ratio < bestRatio {
				best, bestRatio = k, ratio
			}
		}
		if best < 0 {
			return ErrInfeasible
		}
		visit(best)
		taken[best] = true
		s.apply(best)
	}
	return nil
}
