// Package truth implements the truth-discovery stage of IMC2: the DATE
// algorithm (Dependence and Accuracy based Truth Estimation, paper §III),
// its general-case extensions (§IV), and the evaluation baselines MV, NC,
// and ED (§VII-A).
package truth

import (
	"fmt"
	"math"
	"runtime"
)

// Method selects a truth-discovery algorithm.
type Method int

const (
	// MethodDATE is the paper's algorithm: Bayesian copier detection plus
	// accuracy-weighted voting (Algorithm 1).
	MethodDATE Method = iota + 1
	// MethodMV is majority voting: the value provided by the most workers
	// wins.
	MethodMV
	// MethodNC ("no copier") runs only step 3 of DATE: iterative
	// accuracy-weighted voting that assumes all workers are independent.
	MethodNC
	// MethodED ("enumerate dependence") replaces DATE's greedy ordering
	// with averaging over orderings of each value's provider group: all
	// of them for a group of up to edExactLimit workers (exponential in
	// the group size), edSamples sampled ones for a larger group.
	MethodED
)

// String returns the method's conventional name.
func (m Method) String() string {
	switch m {
	case MethodDATE:
		return "DATE"
	case MethodMV:
		return "MV"
	case MethodNC:
		return "NC"
	case MethodED:
		return "ED"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// accClampMargin keeps accuracies strictly inside (0, 1); boundary values
// would produce infinite vote weights in eq. 20.
const accClampMargin = 1e-6

// Options configures a truth-discovery run. The zero value is invalid; use
// DefaultOptions as a starting point.
type Options struct {
	// CopyProb is r, the probability that a copier's value is copied
	// rather than produced independently. Paper default after Fig. 3(b):
	// 0.4.
	CopyProb float64
	// InitAccuracy is ε, the accuracy every worker starts with. Paper
	// default after Fig. 3(a): 0.5.
	InitAccuracy float64
	// PriorDependence is α, the a-priori probability that any ordered
	// worker pair is dependent. Paper default after Fig. 3(a): 0.2.
	PriorDependence float64
	// MaxIterations is φ; the loop stops when the estimated truth
	// vector comes back to one of its last four values (it is stable, or
	// it cycles with period 2 to 4), or after this many iterations.
	// Paper default: 100.
	MaxIterations int

	// Similarity, when non-nil, enables the §IV-A multiple-presentation
	// extension: support counts of a value are augmented with
	// SimilarityWeight times the similarity-weighted support of other
	// values (eq. 21). It reaches the estimate only: the dependence pass
	// counts exact value matches, so presentation variants of a false
	// value still look like a shared false value there. Merging variants
	// before inference (MergePresentations) is what repairs that (ablation
	// A2).
	Similarity func(a, b string) float64
	// SimilarityWeight is ρ ∈ [0, 1] in eq. 21.
	SimilarityWeight float64

	// FalseValues models the distribution of false values (§IV-B).
	// nil means the uniform model of §II-B.
	FalseValues FalseValueModel

	// Parallelism bounds the worker pool the engine spreads each
	// iteration's dependence, independence, and estimation passes over.
	// Zero means GOMAXPROCS; 1 forces a serial run. Results are
	// bit-identical for every setting — the work partition is a pure
	// function of the dataset shape — so the knob trades only wall-clock
	// time, never reproducibility. Timing experiments (Fig. 5/7) pin it
	// to 1 so per-method wall-clock comparisons stay honest.
	Parallelism int

	// Trace, when non-nil, observes the run iteration by iteration:
	// per-pass wall time and the convergence delta (see IterationStats).
	// Nil — the default — disables tracing entirely; the engine then
	// takes no timestamps, so the untraced loop is unchanged. Tracing
	// never affects results.
	Trace Trace

	// Executor, when non-nil, replaces the engine's built-in per-run
	// goroutine pool: every data-parallel pass is submitted to it instead
	// of spawning goroutines, with Parallelism as the requested slot
	// count. This is how a multi-campaign service keeps N concurrent
	// settles on one bounded pool (see internal/sched) instead of
	// N×GOMAXPROCS runnable goroutines. Results are bit-identical with
	// and without an Executor — the work partition never depends on who
	// runs it. Nil means the built-in pool.
	Executor Executor
}

// DefaultOptions returns the paper's default parameterization
// (§VII: r=0.4, ε=0.5, α=0.2, φ=100).
func DefaultOptions() Options {
	return Options{
		CopyProb:        0.4,
		InitAccuracy:    0.5,
		PriorDependence: 0.2,
		MaxIterations:   100,
	}
}

// Validate reports the first invalid field, if any.
func (o Options) Validate() error {
	inOpen01 := func(x float64) bool { return x > 0 && x < 1 && !math.IsNaN(x) }
	if !inOpen01(o.CopyProb) {
		return fmt.Errorf("truth: CopyProb %v must be in (0, 1)", o.CopyProb)
	}
	if !inOpen01(o.InitAccuracy) {
		return fmt.Errorf("truth: InitAccuracy %v must be in (0, 1)", o.InitAccuracy)
	}
	if !inOpen01(o.PriorDependence) {
		return fmt.Errorf("truth: PriorDependence %v must be in (0, 1)", o.PriorDependence)
	}
	if o.MaxIterations < 1 {
		return fmt.Errorf("truth: MaxIterations %d must be >= 1", o.MaxIterations)
	}
	if o.SimilarityWeight < 0 || o.SimilarityWeight > 1 || math.IsNaN(o.SimilarityWeight) {
		return fmt.Errorf("truth: SimilarityWeight %v must be in [0, 1]", o.SimilarityWeight)
	}
	if o.Similarity == nil && o.SimilarityWeight > 0 {
		return fmt.Errorf("truth: SimilarityWeight set without a Similarity function")
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("truth: Parallelism %d must be >= 0", o.Parallelism)
	}
	return nil
}

// parallelism resolves the effective pool size: Parallelism, or
// GOMAXPROCS when unset.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// executor resolves the pass executor: the injected one, or the built-in
// per-run goroutine pool.
func (o Options) executor() Executor {
	if o.Executor != nil {
		return o.Executor
	}
	return goExecutor{}
}
