package truth

// IterationStats is one settle iteration's telemetry: how long each of
// Algorithm 1's passes took and how far the truth estimate moved.
// Methods that skip a pass (NC runs only estimation) report zero for
// the passes they skip. Its JSON encoding is one entry of an audit's
// convergence array, on the wire and in the store.
type IterationStats struct {
	// Iteration is 1-based, matching Result.Iterations.
	Iteration int `json:"iteration"`
	// DependenceSeconds is step 1's wall time (eq. 7–15).
	DependenceSeconds float64 `json:"dependence_seconds,omitempty"`
	// IndependenceSeconds is step 2's wall time (eq. 16).
	IndependenceSeconds float64 `json:"independence_seconds,omitempty"`
	// EstimateSeconds is step 3's wall time (eq. 17–21).
	EstimateSeconds float64 `json:"estimate_seconds,omitempty"`
	// SharingPairs is how many worker pairs share a value on some
	// co-observed task: the pairs whose posterior step 1 re-evaluates.
	// Settle-time telemetry only: not encoded.
	SharingPairs int `json:"-"`
	// Sigmoids counts the posterior evaluations step 1 made: both
	// directions of every sharing pair on a pass that counts every pair,
	// one per distinct (worker, tuple) on a pass that moves tuples.
	// Settle-time telemetry only: not encoded.
	Sigmoids int `json:"-"`
	// Changed counts tasks whose estimated truth moved this iteration —
	// the convergence delta. Zero means the estimate is stable.
	Changed int `json:"changed"`
	// Converged is true on the final iteration of a converged run: the
	// iteration whose truth vector equals one of the vectors the
	// previous revisitWindow iterations started from. Changed is 0 when
	// it came back to the last one, and positive on a longer period.
	Converged bool `json:"converged,omitempty"`
}

// Trace observes a truth-discovery run iteration by iteration. A nil
// Trace in Options disables tracing entirely: the engine then takes no
// timestamps and counts no deltas, so the untraced hot loop is exactly
// the pre-trace loop. Implementations are called synchronously from the
// settle goroutine and must not block.
//
// Tracing never changes results: the estimate update is the same code
// path traced or not, only observed.
type Trace interface {
	ObserveIteration(IterationStats)
}
