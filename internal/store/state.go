package store

import (
	"imc2/internal/imcerr"
	"imc2/internal/model"
	"imc2/internal/platform"
)

// CampaignRecord is the folded durable state of one campaign: everything
// replay needs to rebuild the live object bit-identically.
type CampaignRecord struct {
	ID    string       `json:"id"`
	Name  string       `json:"name,omitempty"`
	Tasks []model.Task `json:"tasks"`
	// State is the campaign's lifecycle position as recorded. A record in
	// StateClosing is a settle the process did not survive: recovery
	// materializes it as open (submissions intact) and re-queues the
	// settle through the registry's admission path.
	State  platform.State `json:"state"`
	Config ConfigRecord   `json:"config"`
	// Submissions lists the accepted submissions in acceptance order:
	// the rows of every submissions event, shared with the events.
	Submissions platform.Rows    `json:"submissions,omitempty"`
	Report      *platform.Report `json:"report,omitempty"`
	Audit       *platform.Audit  `json:"audit,omitempty"`
}

// State is the fold of an event log: the durable view of a whole
// registry. The zero value is empty and ready to use. It is not safe
// for concurrent use; FileStore serializes access.
type State struct {
	byID map[string]*CampaignRecord
	// ordered preserves creation order, which is the registry's listing
	// and ID-allocation order.
	ordered []*CampaignRecord
}

// Len counts campaigns in the state.
func (s *State) Len() int { return len(s.ordered) }

// Campaigns returns the campaign records in creation order. The slice is
// shared; callers must not mutate it.
func (s *State) Campaigns() []*CampaignRecord { return s.ordered }

// Get looks up one campaign record, or nil.
func (s *State) Get(id string) *CampaignRecord {
	if s.byID == nil {
		return nil
	}
	return s.byID[id]
}

// Apply folds one event into the state. It is a pure transition function
// — the identical code runs on the live append path and during replay,
// which is what makes replay deterministic. Transitions repeat-tolerant
// on the live path (opened on an open campaign, a second close-requested)
// fold as no-ops; transitions the live path can never produce (a
// submission to a settled campaign) are errors, because they mean the
// log does not describe a registry history.
func (s *State) Apply(ev Event) error {
	if err := ev.validate(); err != nil {
		return err
	}
	// Every declared EventType MUST have a case here and the switch
	// deliberately has no default: the exhaustive analyzer turns a new
	// WAL event type without a fold case into a lint failure instead of
	// a silent replay divergence. (validate has already rejected types
	// outside the declared set.)
	switch ev.Type {
	case EventCreated:
		return s.applyCreated(ev)
	case EventOpened, EventSubmissions, EventCloseRequested, EventSettled, EventCancelled:
	}

	rec := s.Get(ev.Campaign)
	if rec == nil {
		return imcerr.New(imcerr.CodeNotFound, "store: event %q for unknown campaign %q", ev.Type, ev.Campaign)
	}
	// A failed settle reverts the live campaign from Closing to Open
	// without its own event type: the revert becomes observable in the
	// log through whatever the reopened campaign does next (another
	// submission batch, an explicit open, a cancel, a second close
	// request). The fold therefore treats StateClosing as "open with a
	// settle pending" and lets those events implicitly revert it —
	// mirroring exactly what the live registry accepted. A record still
	// in StateClosing at the end of the log is a settle the process did
	// not survive (or never resolved); recovery re-queues it.
	switch ev.Type {
	case EventCreated:
		// Handled above; repeated here so this switch stays exhaustive
		// without a default.
	case EventOpened:
		switch rec.State {
		case platform.StateDraft, platform.StateClosing:
			rec.State = platform.StateOpen
		case platform.StateOpen:
			// Idempotent, like platform.Open.
		default:
			return imcerr.New(imcerr.CodeConflict, "store: opened event for %s campaign %q", rec.State, ev.Campaign)
		}
	case EventSubmissions:
		switch rec.State {
		case platform.StateOpen:
		case platform.StateClosing:
			// Submissions are frozen during a live settle, so this batch
			// was accepted after a failed settle reverted the campaign.
			rec.State = platform.StateOpen
		default:
			return imcerr.New(imcerr.CodeConflict, "store: submissions for %s campaign %q", rec.State, ev.Campaign)
		}
		rec.Submissions = append(rec.Submissions, ev.Submissions...)
	case EventCloseRequested:
		switch rec.State {
		case platform.StateOpen:
			rec.State = platform.StateClosing
		case platform.StateClosing:
			// A settle retry after a failed attempt re-announces the close.
		default:
			return imcerr.New(imcerr.CodeConflict, "store: close-requested for %s campaign %q", rec.State, ev.Campaign)
		}
	case EventSettled:
		if rec.State != platform.StateClosing {
			return imcerr.New(imcerr.CodeConflict, "store: settled event for %s campaign %q", rec.State, ev.Campaign)
		}
		rec.State = platform.StateSettled
		rec.Report = ev.Settled.Report
		rec.Audit = ev.Settled.Audit
	case EventCancelled:
		switch rec.State {
		case platform.StateDraft, platform.StateOpen, platform.StateClosing:
			rec.State = platform.StateCancelled
		case platform.StateCancelled:
			// Idempotent, like platform.Cancel.
		default:
			return imcerr.New(imcerr.CodeConflict, "store: cancelled event for %s campaign %q", rec.State, ev.Campaign)
		}
	}
	return nil
}

// applyCreated folds a creation event: the one transition that mints a
// record instead of mutating one.
func (s *State) applyCreated(ev Event) error {
	if s.Get(ev.Campaign) != nil {
		return imcerr.New(imcerr.CodeConflict, "store: campaign %q created twice", ev.Campaign)
	}
	st := platform.StateOpen
	if ev.Created.Draft {
		st = platform.StateDraft
	}
	rec := &CampaignRecord{
		ID:     ev.Campaign,
		Name:   ev.Created.Name,
		Tasks:  ev.Created.Tasks,
		State:  st,
		Config: ev.Created.Config,
	}
	if s.byID == nil {
		s.byID = make(map[string]*CampaignRecord)
	}
	s.byID[ev.Campaign] = rec
	s.ordered = append(s.ordered, rec)
	return nil
}
