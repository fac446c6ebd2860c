package auction

import (
	"math"

	"imc2/internal/numeric"
)

// TheoreticalBound evaluates the 2εH_Ω approximation guarantee of
// Theorem 3 for an instance:
//
//	Ω = (1/Δv)·Σ_j Θ_j  with Δv the minimum positive accuracy,
//	ε = max_{i∈W, t_j∈T_i} A_i^j · |T_i| · b_i  (Lemma 4's constant).
//
// The bound is loose by construction (dual fitting); experiments report it
// alongside the measured ratio to show how much slack the mechanism leaves.
func TheoreticalBound(in *Instance) float64 {
	minAcc := math.Inf(1)
	eps := 0.0
	for i, ts := range in.TaskSets {
		for t := range ts {
			a := in.Accuracy[i][t]
			if a > 0 && a < minAcc {
				minAcc = a
			}
			if v := a * float64(len(ts)) * in.Bids[i]; v > eps {
				eps = v
			}
		}
	}
	if math.IsInf(minAcc, 1) || minAcc <= 0 {
		return math.Inf(1)
	}
	var total numeric.KahanSum
	for _, q := range in.Requirements {
		total.Add(q)
	}
	omega := total.Sum() / minAcc
	return 2 * eps * numeric.HarmonicReal(omega)
}

// CoverageSlack returns, per task, how much winner accuracy exceeds the
// requirement (negative entries mean a violated constraint, which a
// correct mechanism never produces).
func CoverageSlack(in *Instance, winners []int) []float64 {
	got := make([]float64, in.NumTasks())
	for _, i := range winners {
		for t, j := range in.TaskSets[i] {
			got[j] += in.Accuracy[i][t]
		}
	}
	for j := range got {
		got[j] -= in.Requirements[j]
	}
	return got
}

// SatisfiesCoverage reports whether the winner set meets every task's
// requirement (constraint 5).
func SatisfiesCoverage(in *Instance, winners []int) bool {
	for _, slack := range CoverageSlack(in, winners) {
		if slack < -covered {
			return false
		}
	}
	return true
}

// PlatformUtility is u_0 = V(S) − Σ p_i (eq. 2), where V(S) is the summed
// task value when all requirements are met and 0 otherwise.
func PlatformUtility(in *Instance, taskValues []float64, o *Outcome) float64 {
	var value float64
	if SatisfiesCoverage(in, o.Winners) {
		for _, v := range taskValues {
			value += v
		}
	}
	return value - o.TotalPayment
}

// SocialWelfare is u_social = V(S) − Σ_{i∈S} c_i (eq. 3) evaluated at the
// workers' true costs.
func SocialWelfare(in *Instance, taskValues []float64, o *Outcome, trueCosts []float64) float64 {
	var value float64
	if SatisfiesCoverage(in, o.Winners) {
		for _, v := range taskValues {
			value += v
		}
	}
	var cost numeric.KahanSum
	for _, i := range o.Winners {
		cost.Add(trueCosts[i])
	}
	return value - cost.Sum()
}
