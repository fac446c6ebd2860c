package truth

import (
	"fmt"
	"slices"

	"imc2/internal/model"
)

// Engine is a resumable truth-discovery run: the same dependence /
// independence / estimation passes Discover executes, but driven one
// iteration at a time so a caller can pause between iterations and
// resume later. The cross-iteration state — the current truth vector,
// the recent truth vectors the stopping rule compares it with, and the
// per-worker accuracies that seed the next round's vote weights — lives
// inside the engine, so a run split across any number of Step or
// Run calls is bit-identical to the same run executed in one Discover
// call: pausing never re-derives the majority-vote seed and never
// perturbs the accuracy trajectory. That identity is what lets a settle
// resume a part-run engine (the platform's WarmStart hook) and still
// produce exactly the report a cold settle would have produced.
//
// An Engine is not safe for concurrent use; callers serialize Step/Run
// against Result themselves.
type Engine struct {
	s      *state
	method Method

	iterations int
	converged  bool
	hist       truthHistory

	// mv is the one-shot majority-vote result for MethodMV, which has no
	// iterative refinement to resume; a MV engine is born done.
	mv *Result
}

// NewEngine validates the dataset and options and returns an engine
// positioned before its first iteration, seeded — like Discover — from
// the majority vote. The dataset must not be mutated while the engine is
// live.
func NewEngine(ds *model.Dataset, method Method, opt Options) (*Engine, error) {
	fm, err := validateRun(ds, method, opt)
	if err != nil {
		return nil, err
	}
	e := &Engine{method: method}
	if method == MethodMV {
		e.mv = majorityVote(ds)
		e.iterations = e.mv.Iterations
		e.converged = true
		return e, nil
	}
	e.s = newState(ds, opt, fm)
	if method != MethodNC {
		e.s.dep = newFilledMatrix(e.s.n, e.s.n, opt.PriorDependence)
		e.s.totalDep = make([]float64, e.s.n)
	}
	return e, nil
}

// validateRun is the precondition check shared by Discover and
// NewEngine: options validate, the method is known, and the false-value
// model covers every distinct domain size in the dataset.
func validateRun(ds *model.Dataset, method Method, opt Options) (FalseValueModel, error) {
	if ds == nil {
		return nil, fmt.Errorf("truth: nil dataset")
	}
	switch method {
	case MethodMV, MethodNC, MethodDATE, MethodED:
	default:
		return nil, fmt.Errorf("truth: unknown method %v", method)
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	fm := opt.falseModelOrUniform()
	seen := make(map[int]bool)
	for j := 0; j < ds.NumTasks(); j++ {
		nf := ds.Task(j).NumFalse
		if !seen[nf] {
			seen[nf] = true
			if err := validateFalseModel(fm, nf); err != nil {
				return nil, err
			}
		}
	}
	return fm, nil
}

// Iterations reports how many refinement iterations have executed so
// far across all Step/Run calls.
func (e *Engine) Iterations() int { return e.iterations }

// Done reports whether the run is finished: converged, or out of
// iterations (Options.MaxIterations). Step is a no-op once Done.
func (e *Engine) Done() bool {
	return e.converged || e.iterations >= e.s.opt.MaxIterations
}

// SetTrace swaps the per-iteration trace sink for subsequent Steps.
// Tracing never affects results (see Options.Trace), so a paused run
// may be resumed under a different observer — e.g. untraced iterations
// completed by a settle whose audit records the remaining ones.
func (e *Engine) SetTrace(t Trace) {
	if e.s != nil {
		e.s.opt.Trace = t
	}
}

// Step executes one refinement iteration — Algorithm 1's dependence,
// independence, and estimation passes for DATE/ED, estimation only for
// NC — and reports how many task truths moved plus whether the run is
// now done. Traced and untraced steps share this single loop body and a
// single stopping predicate (truthHistory.stop): a Trace only observes
// the iteration, it cannot alter iteration counts or convergence.
func (e *Engine) Step() (changed int, done bool) {
	if e.mv != nil || e.Done() {
		return 0, true
	}
	e.iterations++
	e.hist.record(e.s.truth)

	needDep := e.method == MethodDATE || e.method == MethodED
	tr := e.s.opt.Trace
	var it IterationStats
	if tr == nil {
		if needDep {
			e.s.computeDependence()                       // step 1: eq. 7–15
			e.s.computeIndependence(e.method == MethodED) // step 2: eq. 16
		}
		e.s.estimate() // step 3: eq. 17–21
	} else {
		it.Iteration = e.iterations
		if needDep {
			it.DependenceSeconds = timePass(e.s.computeDependence)
			it.IndependenceSeconds = timePass(func() { e.s.computeIndependence(e.method == MethodED) })
		}
		it.EstimateSeconds = timePass(e.s.estimate)
		if needDep {
			it.SharingPairs, it.Sigmoids = e.s.pairs.sharing, e.s.depEvals
		}
	}
	changed, e.converged = e.hist.stop(e.s.truth)
	if tr != nil {
		it.Changed = changed
		it.Converged = e.converged
		tr.ObserveIteration(it)
	}
	return changed, e.Done()
}

// Run executes up to budget iterations (budget <= 0: until done) and
// reports whether the run is done. Run(0) from a fresh engine is
// exactly Discover; Run(k) repeatedly until done is the same
// computation in installments.
func (e *Engine) Run(budget int) bool {
	for steps := 0; !e.Done() && (budget <= 0 || steps < budget); steps++ {
		if _, done := e.Step(); done {
			break
		}
	}
	return e.Done()
}

// Result returns the run's outcome in Discover's shape. The matrices
// and truth vector alias the engine's live buffers: callers must not
// Step the engine after using the Result, and must not mutate it.
func (e *Engine) Result() *Result {
	if e.mv != nil {
		return e.mv
	}
	return &Result{
		Truth:            e.s.truth,
		Accuracy:         e.s.acc,
		TaskIndependence: e.s.indep,
		Dependence:       e.s.dep, // nil for NC, which allocates none
		Iterations:       e.iterations,
		Converged:        e.converged,
		Method:           e.method,
	}
}

// revisitWindow is P, how many of a run's most recent truth vectors its
// stopping rule remembers. On sparse input DATE's truth vector can fall
// into a limit cycle instead of settling, while the accuracies keep
// drifting by a few thousandths per period; a revisit of period 2 or 3
// is what those runs show, and stopping there leaves precision where the
// 100-iteration cap would.
const revisitWindow = 4

// truthHistory is a run's stopping rule: a ring of the truth vectors the
// last revisitWindow iterations started from. An iteration stops the run
// when its truth vector equals one of them, i.e. when the estimate came
// back to one of its last revisitWindow values. Period 1 (no task moved)
// is the zero-change rule of Algorithm 1; periods 2..revisitWindow end
// the limit cycles that rule never leaves. Engine.Step and the test
// oracles call this one predicate, traced or not.
type truthHistory struct {
	ring [][]int32 // at most revisitWindow vectors
	last int       // ring[last] is the most recently recorded vector
}

// record remembers truth as the vector the next iteration starts from,
// replacing the oldest once the ring is full.
func (h *truthHistory) record(truth []int32) {
	if len(h.ring) < revisitWindow {
		h.ring = append(h.ring, slices.Clone(truth))
		h.last = len(h.ring) - 1
		return
	}
	h.last = (h.last + 1) % revisitWindow
	copy(h.ring[h.last], truth)
}

// stop reports how many tasks moved since the last recorded vector and
// whether truth revisits any recorded vector, which ends the run.
func (h *truthHistory) stop(truth []int32) (changed int, revisited bool) {
	changed = countChanged(h.ring[h.last], truth)
	if changed == 0 {
		return 0, true
	}
	for k, v := range h.ring {
		if k != h.last && slices.Equal(v, truth) {
			return changed, true
		}
	}
	return changed, false
}

// countChanged returns the number of positions where a and b differ.
func countChanged(a, b []int32) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
