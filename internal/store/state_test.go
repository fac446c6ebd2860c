package store

import (
	"reflect"
	"testing"

	"imc2/internal/model"
	"imc2/internal/platform"
)

// lifecycleLog is a canonical event log that exercises every declared
// EventType at least once across two campaigns: a full settle and a
// draft that is cancelled. If an EventType is ever added without
// extending this log, coveredTypes below fails the test — the runtime
// complement of the exhaustive lint rule on Apply's switch.
func lifecycleLog() []Event {
	tasks := []model.Task{{ID: "t1", NumFalse: 1, Requirement: 0.5}}
	return []Event{
		{Type: EventCreated, Campaign: "c1", Created: &CreatedPayload{Name: "full", Tasks: tasks}},
		{Type: EventOpened, Campaign: "c1"}, // idempotent on an open campaign
		{Type: EventSubmissions, Campaign: "c1", Submissions: platform.RowsOf([]platform.Submission{
			{Worker: "w1", Price: 2.5, Answers: map[string]string{"t1": "yes"}},
		})},
		{Type: EventCloseRequested, Campaign: "c1"},
		{Type: EventSettled, Campaign: "c1", Settled: &SettledPayload{
			Report: &platform.Report{Winners: []string{"w1"}, SocialCost: 2.5},
		}},
		{Type: EventCreated, Campaign: "c2", Created: &CreatedPayload{Name: "draft", Tasks: tasks, Draft: true}},
		{Type: EventCancelled, Campaign: "c2"},
	}
}

// foldLog applies the log to a fresh State, failing the test on any
// transition error.
func foldLog(t *testing.T, log []Event) *State {
	t.Helper()
	s := &State{}
	for i, ev := range log {
		if err := s.Apply(ev); err != nil {
			t.Fatalf("event %d (%s for %s): %v", i, ev.Type, ev.Campaign, err)
		}
	}
	return s
}

// TestApplyCoversEveryEventType is the regression test for the Apply
// restructure: every declared event type folds to an observable state
// change — none falls through a switch silently — and the final fold is
// what the lifecycle semantics promise.
func TestApplyCoversEveryEventType(t *testing.T) {
	log := lifecycleLog()
	covered := map[EventType]bool{}
	for _, ev := range log {
		covered[ev.Type] = true
	}
	for _, typ := range []EventType{
		EventCreated, EventOpened, EventSubmissions,
		EventCloseRequested, EventSettled, EventCancelled,
	} {
		if !covered[typ] {
			t.Errorf("lifecycleLog does not exercise %s; extend it alongside the new event type", typ)
		}
	}

	s := foldLog(t, log)
	if s.Len() != 2 {
		t.Fatalf("folded %d campaigns, want 2", s.Len())
	}
	c1 := s.Get("c1")
	if c1 == nil || c1.State != platform.StateSettled {
		t.Fatalf("c1 state = %+v, want settled", c1)
	}
	if len(c1.Submissions) != 1 || c1.Submissions[0].Worker != "w1" {
		t.Errorf("c1 submissions = %+v, want the one w1 batch", c1.Submissions)
	}
	if c1.Report == nil || len(c1.Report.Winners) != 1 {
		t.Errorf("c1 report = %+v, want the settled report", c1.Report)
	}
	c2 := s.Get("c2")
	if c2 == nil || c2.State != platform.StateCancelled {
		t.Fatalf("c2 state = %+v, want cancelled", c2)
	}
}

// TestApplyIntermediateStates pins each transition's observable effect
// step by step: after every event the folded record is in exactly the
// state the live registry was in when it appended the event. A
// transition that silently no-ops (the failure mode of a missing switch
// case) breaks the expected-state sequence immediately.
func TestApplyIntermediateStates(t *testing.T) {
	wantAfter := []struct {
		campaign string
		state    platform.State
	}{
		{"c1", platform.StateOpen},      // created (not draft)
		{"c1", platform.StateOpen},      // opened, idempotent
		{"c1", platform.StateOpen},      // submissions
		{"c1", platform.StateClosing},   // close requested
		{"c1", platform.StateSettled},   // settled
		{"c2", platform.StateDraft},     // created as draft
		{"c2", platform.StateCancelled}, // cancelled
	}
	s := &State{}
	for i, ev := range lifecycleLog() {
		if err := s.Apply(ev); err != nil {
			t.Fatalf("event %d (%s): %v", i, ev.Type, err)
		}
		rec := s.Get(wantAfter[i].campaign)
		if rec == nil {
			t.Fatalf("after event %d: campaign %s missing", i, wantAfter[i].campaign)
		}
		if rec.State != wantAfter[i].state {
			t.Errorf("after event %d (%s): %s state = %s, want %s",
				i, ev.Type, wantAfter[i].campaign, rec.State, wantAfter[i].state)
		}
	}
}

// TestReplayEquivalence pins the property the whole store rests on:
// folding the same log twice yields deeply-equal states. Any
// nondeterminism in Apply — map-order dependence, hidden clock reads —
// would eventually diverge here.
func TestReplayEquivalence(t *testing.T) {
	log := lifecycleLog()
	a := foldLog(t, log)
	b := foldLog(t, log)
	if !reflect.DeepEqual(a.Campaigns(), b.Campaigns()) {
		t.Errorf("two folds of the same log diverge:\n%+v\nvs\n%+v", a.Campaigns(), b.Campaigns())
	}
}

// TestApplyRejectsImpossibleTransitions pins the conflict arm of each
// switch: transitions the live path can never produce are errors, not
// silent accepts.
func TestApplyRejectsImpossibleTransitions(t *testing.T) {
	tasks := []model.Task{{ID: "t1", NumFalse: 1, Requirement: 0.5}}
	base := []Event{
		{Type: EventCreated, Campaign: "c", Created: &CreatedPayload{Name: "x", Tasks: tasks}},
		{Type: EventCloseRequested, Campaign: "c"},
		{Type: EventSettled, Campaign: "c", Settled: &SettledPayload{Report: &platform.Report{}}},
	}
	bad := []Event{
		// Settled campaigns accept nothing further.
		{Type: EventSubmissions, Campaign: "c", Submissions: platform.RowsOf([]platform.Submission{{Worker: "w"}})},
		{Type: EventOpened, Campaign: "c"},
		{Type: EventCloseRequested, Campaign: "c"},
		{Type: EventSettled, Campaign: "c", Settled: &SettledPayload{Report: &platform.Report{}}},
		{Type: EventCancelled, Campaign: "c"},
		// And a campaign cannot be created twice.
		{Type: EventCreated, Campaign: "c", Created: &CreatedPayload{Name: "x", Tasks: tasks}},
	}
	for _, tail := range bad {
		s := foldLog(t, base)
		if err := s.Apply(tail); err == nil {
			t.Errorf("%s on a settled campaign folded without error", tail.Type)
		}
	}
}
