// Package auction implements the reverse-auction stage of IMC2 (paper §V):
// the NP-hard Social Optimization Accuracy Coverage (SOAC) problem, the
// greedy truthful mechanism of Algorithm 2, the GA/GB baselines of §VII,
// and an exact branch-and-bound solver for measuring empirical
// approximation ratios on small instances.
package auction

import (
	"errors"
	"fmt"
	"math"

	"imc2/internal/imcerr"
)

// covered is the tolerance below which a residual requirement counts as
// met; it absorbs float drift from repeated subtraction.
const covered = 1e-9

// ErrInfeasible reports an instance whose workers cannot jointly meet some
// task's accuracy requirement. It carries imcerr.CodeInfeasible so every
// layer above (platform, registry, wire) classifies it uniformly.
var ErrInfeasible error = imcerr.New(imcerr.CodeInfeasible, "auction: accuracy requirements are not satisfiable")

// ErrMonopolist reports a winner whose removal makes the instance
// infeasible; critical payments (and hence truthfulness) are undefined for
// such a worker. It carries imcerr.CodeMonopolist.
var ErrMonopolist error = imcerr.New(imcerr.CodeMonopolist, "auction: a winner is irreplaceable (no critical payment exists)")

// Instance is a SOAC problem: select a minimum-cost worker subset whose
// accuracies cover every task's requirement (eq. 4–6). Mechanisms only
// read an instance: none writes TaskSets or Accuracy, so a caller may
// share those rows with a dataset and a truth result.
type Instance struct {
	// Bids holds each worker's claimed price b_i.
	Bids []float64
	// TaskSets[i] lists the task indices worker i performs (T_i).
	TaskSets [][]int
	// Accuracy[i][t] is A_i^j for j = TaskSets[i][t]: one entry per
	// task the worker performs, aligned with TaskSets[i] (A_i^j is
	// defined only for j ∈ T_i).
	Accuracy [][]float64
	// Requirements[j] is Θ_j.
	Requirements []float64
}

// NumWorkers returns n.
func (in *Instance) NumWorkers() int { return len(in.Bids) }

// NumTasks returns m.
func (in *Instance) NumTasks() int { return len(in.Requirements) }

// Validate checks structural invariants.
func (in *Instance) Validate() error {
	n, m := in.NumWorkers(), in.NumTasks()
	if n == 0 {
		return errors.New("auction: no workers")
	}
	if m == 0 {
		return errors.New("auction: no tasks")
	}
	if len(in.TaskSets) != n || len(in.Accuracy) != n {
		return fmt.Errorf("auction: inconsistent worker arrays: %d bids, %d task sets, %d accuracy rows",
			n, len(in.TaskSets), len(in.Accuracy))
	}
	for i, b := range in.Bids {
		if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("auction: bid[%d] = %v invalid", i, b)
		}
	}
	for j, q := range in.Requirements {
		if q < 0 || math.IsNaN(q) || math.IsInf(q, 0) {
			return fmt.Errorf("auction: requirement[%d] = %v invalid", j, q)
		}
	}
	seen := make([]int32, m) // seen[j] == i+1: worker i already listed task j
	for i, ts := range in.TaskSets {
		if len(in.Accuracy[i]) != len(ts) {
			return fmt.Errorf("auction: accuracy row %d has %d entries, want one per task in its task set (%d)",
				i, len(in.Accuracy[i]), len(ts))
		}
		stamp := int32(i + 1)
		for t, j := range ts {
			if j < 0 || j >= m {
				return fmt.Errorf("auction: worker %d references task %d outside [0, %d)", i, j, m)
			}
			if seen[j] == stamp {
				return fmt.Errorf("auction: worker %d lists task %d twice", i, j)
			}
			seen[j] = stamp
			a := in.Accuracy[i][t]
			if a < 0 || a > 1 || math.IsNaN(a) {
				return fmt.Errorf("auction: worker %d accuracy on task %d = %v outside [0,1]", i, j, a)
			}
		}
	}
	return nil
}

// Feasible reports whether the full worker set covers every requirement.
func (in *Instance) Feasible() bool {
	return in.feasibleWithout(-1)
}

// feasibleWithout checks coverage when worker `skip` is excluded (-1 for
// none).
func (in *Instance) feasibleWithout(skip int) bool {
	total := make([]float64, in.NumTasks())
	for i, ts := range in.TaskSets {
		if i == skip {
			continue
		}
		for t, j := range ts {
			total[j] += in.Accuracy[i][t]
		}
	}
	for j, q := range in.Requirements {
		if total[j] < q-covered {
			return false
		}
	}
	return true
}

// Outcome is a mechanism's result.
type Outcome struct {
	// Winners holds the selected worker indices in selection order.
	Winners []int
	// Payments[i] is the payment to worker i (0 for losers).
	Payments []float64
	// SocialCost is Σ_{i∈S} b_i — the objective of eq. 4 evaluated at the
	// submitted bids.
	SocialCost float64
	// TotalPayment is Σ p_i, the platform's outlay.
	TotalPayment float64
	// Mechanism names the algorithm that produced the outcome.
	Mechanism string
}

// IsWinner reports whether worker i won.
func (o *Outcome) IsWinner(i int) bool {
	for _, w := range o.Winners {
		if w == i {
			return true
		}
	}
	return false
}

// Utility returns worker i's utility p_i − c_i given its true cost
// (eq. 1); losers have utility 0.
func (o *Outcome) Utility(i int, trueCost float64) float64 {
	if !o.IsWinner(i) {
		return 0
	}
	return o.Payments[i] - trueCost
}

// finishOutcome fills the aggregate fields from winners and payments.
func finishOutcome(in *Instance, winners []int, payments []float64, mechanism string) *Outcome {
	o := &Outcome{
		Winners:   winners,
		Payments:  payments,
		Mechanism: mechanism,
	}
	for _, i := range winners {
		o.SocialCost += in.Bids[i]
	}
	for _, p := range payments {
		o.TotalPayment += p
	}
	return o
}
