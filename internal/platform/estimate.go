package platform

import (
	"context"

	"imc2/internal/imcerr"
	"imc2/internal/truth"
)

// EstimateSnapshot is the provisional view of a live campaign: the
// truth and worker weights the settle would elect if the campaign closed
// now, plus how fresh that view is. Staleness counts submissions
// accepted after the estimate's dataset was assembled; a snapshot with
// Staleness 0 is exactly what the final report's Truth will say if the
// campaign closes now.
type EstimateSnapshot struct {
	// Truth maps task ID → provisionally estimated value (absent tasks
	// have no answers yet, or no estimate exists).
	Truth map[string]string
	// WorkerAccuracy maps worker ID → estimated mean accuracy.
	WorkerAccuracy map[string]float64
	// Iterations is how many truth-discovery iterations produced this
	// view.
	Iterations int
	// Converged reports whether the truth run over Covered submissions
	// stopped before MaxIterations, its truth vector back at one of its
	// last four values (truth.Result.Converged).
	Converged bool
	// Covered is how many submissions the estimate reflects.
	Covered int
	// Staleness is how many accepted submissions the estimate does not
	// reflect (total accepted − Covered).
	Staleness int
	// Method is the truth-discovery algorithm behind the estimate.
	Method truth.Method
}

// Estimate computes the provisional truth of an open campaign: one cold
// truth.Discover over the submissions accepted so far, with cfg's method
// and options (untraced). The paper's mechanism settles once, after all
// bids are in; the estimate is a preview of that settle, computed when
// it is read, and equals the settled report's truth when no submission
// arrives in between.
//
// A campaign that is not open, or has no submissions, yields an empty
// snapshot whose Staleness counts every accepted submission. With
// cfg.Admission set, the read acquires a slot under cfg.SettleKey +
// "#estimate", so reads and settles share one concurrency bound
// (-max-settles) without confusing the settle's queue position; a
// backpressure rejection is returned as unavailable.
func (p *Platform) Estimate(ctx context.Context, cfg Config) (EstimateSnapshot, error) {
	snap := EstimateSnapshot{Method: cfg.TruthMethod}
	p.mu.Lock()
	open, l := p.state == StateOpen, p.log.snapshot()
	p.mu.Unlock()
	covered := len(l.Workers)
	if !open || covered == 0 {
		snap.Staleness = covered
		return snap, nil
	}
	release, err := p.admit(ctx, cfg.Admission, cfg.SettleKey+"#estimate")
	if err != nil {
		return snap, err
	}
	if release != nil {
		defer release()
	}
	ds, err := p.dataset(l)
	if err != nil {
		return snap, err
	}
	opt := cfg.TruthOptions
	opt.Trace = nil
	res, err := truth.Discover(ds, cfg.TruthMethod, opt)
	if err != nil {
		return snap, imcerr.Wrapf(imcerr.CodeInvalid, err, "platform: estimating truth")
	}
	snap.Truth = res.TruthMap(ds)
	snap.WorkerAccuracy = make(map[string]float64, ds.NumWorkers())
	for i, a := range res.WorkerAccuracy(ds) {
		snap.WorkerAccuracy[ds.WorkerID(i)] = a
	}
	snap.Iterations = res.Iterations
	snap.Converged = res.Converged
	snap.Covered = covered
	snap.Staleness = p.Submissions() - covered
	return snap, nil
}
