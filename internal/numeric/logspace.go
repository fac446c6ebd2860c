// Package numeric provides the numerical substrate for the IMC2
// reproduction: log-domain probability arithmetic, compensated summation,
// numerical quadrature, and harmonic numbers.
//
// DATE's Bayesian dependence analysis multiplies per-task likelihood terms
// over hundreds of tasks (eq. 10 and 14 of the paper). Those products
// underflow float64 long before realistic campaign sizes, so every
// probability product in this repository is carried in log space and only
// exponentiated after normalization.
package numeric

import "math"

// LogSumExp returns log(sum(exp(xs[i]))) computed stably.
//
// It tolerates -Inf entries (zero probabilities). If all entries are -Inf,
// the result is -Inf. NaN entries propagate.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	maxv := math.Inf(-1)
	for _, x := range xs {
		if math.IsNaN(x) {
			return math.NaN()
		}
		if x > maxv {
			maxv = x
		}
	}
	if math.IsInf(maxv, -1) {
		return maxv
	}
	var sum KahanSum
	for _, x := range xs {
		sum.Add(math.Exp(x - maxv))
	}
	return maxv + math.Log(sum.Sum())
}

// Sigmoid returns 1/(1+exp(-x)) computed without overflow for large |x|.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Logit returns log(p/(1-p)), the inverse of Sigmoid.
// Logit(0) is -Inf and Logit(1) is +Inf.
func Logit(p float64) float64 {
	return math.Log(p) - math.Log1p(-p)
}

// ClampProb clamps p into [0, 1]; values produced by long chains of
// floating-point arithmetic can stray by a few ULPs.
func ClampProb(p float64) float64 {
	switch {
	case math.IsNaN(p):
		return p
	case p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}

// ClampProbOpen clamps p into the open interval (lo, 1-lo). DATE requires
// strictly interior accuracies: A = 0 or A = 1 creates infinities in the
// num·A/(1-A) vote weights of eq. 20.
func ClampProbOpen(p, lo float64) float64 {
	if lo <= 0 || lo >= 0.5 {
		panic("numeric: ClampProbOpen margin must be in (0, 0.5)")
	}
	switch {
	case math.IsNaN(p):
		return p
	case p < lo:
		return lo
	case p > 1-lo:
		return 1 - lo
	default:
		return p
	}
}

// NormalizeLogsInto exponentiates and normalizes a vector of log-weights
// into a probability simplex written to dst (which must have the same
// length as logs and may alias it); hot loops pass reusable scratch to keep
// the per-task posterior allocation-free. All -Inf inputs yield a uniform
// distribution (no information).
func NormalizeLogsInto(dst, logs []float64) []float64 {
	if len(dst) != len(logs) {
		panic("numeric: NormalizeLogsInto length mismatch")
	}
	total := LogSumExp(logs)
	if math.IsInf(total, -1) {
		u := 1 / float64(len(logs))
		for i := range dst {
			dst[i] = u
		}
		return dst
	}
	for i, l := range logs {
		dst[i] = math.Exp(l - total)
	}
	return dst
}

// AlmostEqual reports whether a and b differ by at most tol in absolute
// terms or 1e-9 in relative terms, whichever is looser.
func AlmostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= scale*1e-9
}
