package platform

import (
	"context"
	"fmt"

	"imc2/internal/imcerr"
	"imc2/internal/truth"
)

// State is a campaign's lifecycle position. Campaigns move
// Draft → Open → Closing → Settled; Draft and Open campaigns may instead
// move to Cancelled. A failed settle returns the campaign from Closing to
// Open so that further submissions can repair it.
type State int

const (
	// StateDraft is a declared but not yet publicized campaign: tasks are
	// fixed, submissions are rejected.
	StateDraft State = iota
	// StateOpen accepts sealed submissions.
	StateOpen
	// StateClosing means a settle is executing; submissions are rejected
	// and the state is observable while the two stages run.
	StateClosing
	// StateSettled holds a final report.
	StateSettled
	// StateCancelled is terminal: the campaign was abandoned unsettled.
	StateCancelled
)

// String names the state as it appears on the wire.
func (s State) String() string {
	switch s {
	case StateDraft:
		return "draft"
	case StateOpen:
		return "open"
	case StateClosing:
		return "closing"
	case StateSettled:
		return "settled"
	case StateCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// MarshalText encodes the state for JSON bodies.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a wire state name.
func (s *State) UnmarshalText(b []byte) error {
	for _, st := range []State{StateDraft, StateOpen, StateClosing, StateSettled, StateCancelled} {
		if st.String() == string(b) {
			*s = st
			return nil
		}
	}
	return imcerr.New(imcerr.CodeInvalid, "platform: unknown state %q", string(b))
}

// State returns the campaign's current lifecycle state.
func (p *Platform) State() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// Open publicizes a draft campaign so it accepts submissions.
func (p *Platform) Open() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.state {
	case StateDraft:
		p.state = StateOpen
		return nil
	case StateOpen:
		return nil // idempotent
	default:
		return imcerr.New(imcerr.CodeConflict, "platform: cannot open a %s campaign", p.state)
	}
}

// Cancel abandons a draft or open campaign. Cancelling an already
// cancelled campaign is a no-op; any other state is a conflict.
func (p *Platform) Cancel() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.state {
	case StateDraft, StateOpen:
		p.state = StateCancelled
		return nil
	case StateCancelled:
		return nil // idempotent
	default:
		return imcerr.New(imcerr.CodeConflict, "platform: cannot cancel a %s campaign", p.state)
	}
}

// SettledReport returns the final report, or nil while the campaign has
// not settled.
func (p *Platform) SettledReport() *Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.report
}

// Settle closes the campaign and executes both stages. It is safe for
// concurrent use: exactly one caller runs the stages while the campaign
// shows StateClosing, and concurrent callers wait (bounded by ctx). Once
// settled, every call — waiting or later — returns the cached report. If
// the running settle fails, the campaign reverts to Open and the next
// waiter re-attempts the settle itself: submissions accepted since the
// failure may have repaired an infeasible instance, at the cost of
// repeated settle runs when many callers race a persistently failing
// campaign.
//
// The stages themselves run without holding the campaign lock, so
// Tasks, State, and Submissions stay responsive during a long settle
// (submissions are rejected with a conflict while closing). On failure
// the campaign returns to StateOpen so more submissions can repair an
// infeasible instance.
func (p *Platform) Settle(ctx context.Context, cfg Config) (*Report, error) {
	p.mu.Lock()
	for p.state == StateClosing {
		ch := p.settling
		p.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, imcerr.Wrapf(imcerr.CodeCancelled, ctx.Err(), "platform: waiting for settle")
		case <-ch:
		}
		p.mu.Lock()
	}
	switch p.state {
	case StateSettled:
		rep := p.report
		p.mu.Unlock()
		return rep, nil
	case StateDraft:
		p.mu.Unlock()
		return nil, imcerr.New(imcerr.CodeConflict, "platform: campaign is still a draft")
	case StateCancelled:
		p.mu.Unlock()
		return nil, imcerr.New(imcerr.CodeConflict, "platform: campaign is cancelled")
	case StateOpen, StateClosing:
		// Open proceeds to settle below. Closing cannot reach here: the
		// wait loop above only exits once the state has left Closing,
		// while p.mu has been held continuously since.
	}
	if len(p.log.Workers) == 0 {
		p.mu.Unlock()
		return nil, imcerr.New(imcerr.CodeInfeasible, "platform: no submissions")
	}
	p.state = StateClosing
	p.settling = make(chan struct{})
	p.mu.Unlock()

	// Durability first: log the close request before any work runs.
	// Submissions are frozen (Submit rejects while Closing), so the
	// event lands after every accepted submission and before the
	// settled event — the order replay depends on.
	var rep *Report
	var audit *Audit
	var conv []truth.IterationStats
	var err error
	if cfg.RecordClosing != nil {
		err = cfg.RecordClosing(ctx)
	}
	if err == nil {
		// Admission: with a scheduler configured, wait for a settle slot
		// before running the stages. The campaign is already Closing, so
		// submissions stay frozen and pollers observe "queued" via the
		// scheduler while the settle waits its FIFO turn. An abandoned
		// wait (ctx expiry) is a failed settle: the campaign reverts to
		// Open below, exactly like a stage failure.
		var release func()
		release, err = p.admit(ctx, cfg.Admission, cfg.SettleKey)
		if err == nil {
			// No lock held: submissions are frozen, tasks are immutable
			// after New.
			rep, audit, conv, err = p.runAdmitted(ctx, cfg, release)
		}
	}
	if err == nil && cfg.RecordSettled != nil {
		// The report must be durable before the in-memory state admits
		// the campaign settled; failing here discards the computed
		// report rather than acknowledging an unpersisted obligation.
		err = cfg.RecordSettled(ctx, rep, audit, conv)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	close(p.settling)
	p.settling = nil
	if err != nil {
		p.state = StateOpen
		return nil, err
	}
	p.state = StateSettled
	p.report = rep
	p.audit = audit
	return rep, nil
}

// runAdmitted executes the stages while holding the admission slot. The
// release is deferred so a panic inside a stage (possibly swallowed by
// an embedder's recover) cannot strand the slot and starve every later
// settle in the registry.
func (p *Platform) runAdmitted(ctx context.Context, cfg Config, release func()) (*Report, *Audit, []truth.IterationStats, error) {
	if release != nil {
		defer release()
	}
	return p.runStages(ctx, cfg)
}

// admit acquires a slot under key from the admission scheduler adm, or
// returns immediately when adm is nil. A backpressure rejection (the
// scheduler's queue depth bound) keeps its unavailable classification so
// the wire layer can answer 503 + Retry-After; every other failure is an
// abandoned wait.
func (p *Platform) admit(ctx context.Context, adm Admission, key string) (release func(), err error) {
	if adm == nil {
		return nil, nil
	}
	release, err = adm.Acquire(ctx, key)
	if err != nil {
		if imcerr.CodeOf(err) == imcerr.CodeUnavailable {
			return nil, imcerr.Wrapf(imcerr.CodeUnavailable, err, "platform: admission for %q rejected", key)
		}
		return nil, imcerr.Wrapf(imcerr.CodeCancelled, err, "platform: admission for %q abandoned", key)
	}
	return release, nil
}

// checkCtx classifies context expiry as a cancelled settle.
func checkCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return imcerr.Wrapf(imcerr.CodeCancelled, err, "platform: settle abandoned")
	}
	return nil
}
