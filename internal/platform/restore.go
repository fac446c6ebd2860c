package platform

import (
	"imc2/internal/imcerr"
	"imc2/internal/model"
)

// RestoreState is a campaign's durable state as a persistence layer
// recorded it — the input to Restore.
type RestoreState struct {
	Tasks []model.Task
	// State is the recorded lifecycle position. StateClosing is not
	// restorable (a settle cannot be mid-flight in a fresh process);
	// recovery materializes such campaigns as StateOpen and re-queues
	// the settle itself.
	State State
	// Submissions replay in acceptance order — the order fixes worker
	// indexing and therefore every downstream computation.
	Submissions Rows
	// Report and Audit are required iff State is StateSettled.
	Report *Report
	Audit  *Audit
}

// Restore rebuilds a platform from its durable state, re-running the
// same validation a live campaign went through: the task list must
// validate, and every submission must be acceptable in order. The
// result is bit-identical to the platform the state was recorded from —
// same submission order, same report pointer contents — so a recovered
// registry continues exactly where the dead process stopped.
func Restore(rs RestoreState) (*Platform, error) {
	switch rs.State {
	case StateDraft, StateOpen, StateSettled, StateCancelled:
	case StateClosing:
		return nil, imcerr.New(imcerr.CodeInvalid,
			"platform: cannot restore a closing campaign (re-queue the settle instead)")
	default:
		return nil, imcerr.New(imcerr.CodeInvalid, "platform: cannot restore unknown state %v", rs.State)
	}
	if rs.State == StateSettled && rs.Report == nil {
		return nil, imcerr.New(imcerr.CodeInvalid, "platform: settled campaign restored without a report")
	}
	if rs.State == StateDraft && len(rs.Submissions) > 0 {
		return nil, imcerr.New(imcerr.CodeInvalid, "platform: draft campaign restored with submissions")
	}

	p, err := NewDraft(rs.Tasks)
	if err != nil {
		return nil, err
	}
	if len(rs.Submissions) > 0 {
		// Submissions are only accepted while Open; flip the state for
		// the replay and settle on the recorded state below.
		p.state = StateOpen
		if n, err := p.SubmitRows(rs.Submissions); err != nil {
			return nil, imcerr.Wrapf(imcerr.CodeOf(err), err, "platform: replaying submission from %q", rs.Submissions[n].Worker)
		}
	}
	p.state = rs.State
	p.report = rs.Report
	p.audit = rs.Audit
	return p, nil
}

// SubmissionList rebuilds the accepted submissions from the campaign's
// log, in acceptance order — the order that fixes worker indexing during
// settle. Every call returns fresh Answers maps the caller owns.
func (p *Platform) SubmissionList() []Submission {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := &p.log
	subs := make([]Submission, len(l.Workers))
	for i, w := range l.Workers {
		row := l.Cells[l.Offsets[i]:l.Offsets[i+1]]
		answers := make(map[string]string, len(row))
		for _, c := range row {
			answers[p.tasks[c.Task].ID] = l.Values[c.Task][c.Val]
		}
		subs[i] = Submission{Worker: w, Price: l.prices[i], Answers: answers}
	}
	return subs
}
