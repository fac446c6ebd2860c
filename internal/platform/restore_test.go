package platform

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"imc2/internal/imcerr"
	"imc2/internal/truth"
)

// TestSettleRecordHooksOrderAndSuccess asserts the durability hooks run
// in protocol order — close-requested before the stages, settled after
// them and before the state flips — and that a settle with succeeding
// hooks behaves exactly like one without.
func TestSettleRecordHooksOrderAndSuccess(t *testing.T) {
	p, _ := smallCampaign(t, 41)
	var calls []string
	cfg := DefaultConfig()
	cfg.RecordClosing = func(context.Context) error {
		if got := p.State(); got != StateClosing {
			t.Errorf("RecordClosing saw state %v, want closing", got)
		}
		calls = append(calls, "closing")
		return nil
	}
	cfg.RecordSettled = func(_ context.Context, rep *Report, _ *Audit, _ []truth.IterationStats) error {
		if rep == nil {
			t.Error("RecordSettled got a nil report")
		}
		if got := p.State(); got != StateClosing {
			t.Errorf("RecordSettled saw state %v, want closing (not yet settled)", got)
		}
		calls = append(calls, "settled")
		return nil
	}
	rep, err := p.Settle(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || p.State() != StateSettled {
		t.Fatalf("settle outcome: rep=%v state=%v", rep, p.State())
	}
	if !reflect.DeepEqual(calls, []string{"closing", "settled"}) {
		t.Fatalf("hook order = %v, want [closing settled]", calls)
	}
}

// TestRecordSettledFailureDiscardsReport is the atomicity guarantee: if
// the settled event cannot be made durable, the campaign must not read
// Settled in memory — it reverts to Open with no cached report, and a
// later retry (with durability restored) settles normally.
func TestRecordSettledFailureDiscardsReport(t *testing.T) {
	p, _ := smallCampaign(t, 43)
	boom := errors.New("disk full")
	cfg := DefaultConfig()
	fail := true
	cfg.RecordSettled = func(context.Context, *Report, *Audit, []truth.IterationStats) error {
		if fail {
			return boom
		}
		return nil
	}
	if _, err := p.Settle(context.Background(), cfg); !errors.Is(err, boom) {
		t.Fatalf("settle error = %v, want the record failure", err)
	}
	if p.State() != StateOpen {
		t.Fatalf("state after failed record = %v, want open", p.State())
	}
	if p.SettledReport() != nil {
		t.Fatal("a report leaked past a failed durable write")
	}
	fail = false
	if _, err := p.Settle(context.Background(), cfg); err != nil {
		t.Fatalf("retry after durable write restored: %v", err)
	}
	if p.State() != StateSettled {
		t.Fatalf("state after retry = %v, want settled", p.State())
	}
}

// TestRecordClosingFailureAbortsBeforeStages: a close request that
// cannot be logged must not run any stage work.
func TestRecordClosingFailureAbortsBeforeStages(t *testing.T) {
	p, _ := smallCampaign(t, 45)
	boom := errors.New("wal sealed")
	cfg := DefaultConfig()
	cfg.RecordClosing = func(context.Context) error { return boom }
	cfg.RecordSettled = func(context.Context, *Report, *Audit, []truth.IterationStats) error {
		t.Error("stages ran (RecordSettled called) after RecordClosing failed")
		return nil
	}
	if _, err := p.Settle(context.Background(), cfg); !errors.Is(err, boom) {
		t.Fatalf("settle error = %v, want the closing-record failure", err)
	}
	if p.State() != StateOpen {
		t.Fatalf("state = %v, want open", p.State())
	}
}

func TestRestoreRoundTripsEveryState(t *testing.T) {
	// Build a real settled platform to harvest a genuine report+audit.
	settled, _ := smallCampaign(t, 47)
	subs := settled.SubmissionList()
	rows := RowsOf(subs)
	baseline, err := settled.Settle(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	audit := settled.LastAudit()

	cases := []struct {
		name string
		rs   RestoreState
	}{
		{"draft", RestoreState{Tasks: settled.Tasks(), State: StateDraft}},
		{"open", RestoreState{Tasks: settled.Tasks(), State: StateOpen, Submissions: rows}},
		{"cancelled", RestoreState{Tasks: settled.Tasks(), State: StateCancelled, Submissions: rows}},
		{"settled", RestoreState{Tasks: settled.Tasks(), State: StateSettled, Submissions: rows, Report: baseline, Audit: audit}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Restore(tc.rs)
			if err != nil {
				t.Fatal(err)
			}
			if p.State() != tc.rs.State {
				t.Fatalf("state = %v, want %v", p.State(), tc.rs.State)
			}
			want := subs[:len(tc.rs.Submissions)]
			if got := p.SubmissionList(); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("submissions diverged: %d vs %d", len(got), len(tc.rs.Submissions))
			}
			if tc.rs.State == StateSettled {
				if p.SettledReport() != baseline || p.LastAudit() != audit {
					t.Fatal("report/audit not installed")
				}
				// A restored settled campaign must not resettle: it
				// returns the cached report.
				rep, err := p.Settle(context.Background(), DefaultConfig())
				if err != nil || rep != baseline {
					t.Fatalf("settle on restored settled campaign: %v, %v", rep, err)
				}
			}
		})
	}

	// A restored open campaign settles to the same report as the
	// original — restoration preserves submission order, which fixes
	// worker indexing.
	reopened, err := Restore(RestoreState{Tasks: settled.Tasks(), State: StateOpen, Submissions: rows})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := reopened.Settle(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, baseline) {
		t.Fatal("restored campaign settled to a different report")
	}
}

func TestRestoreRejectsImpossibleStates(t *testing.T) {
	tasks := testTasks()
	sub := RowsOf([]Submission{{Worker: "w", Price: 1, Answers: map[string]string{"t1": "a"}}})
	cases := []struct {
		name string
		rs   RestoreState
	}{
		{"closing", RestoreState{Tasks: tasks, State: StateClosing}},
		{"settled-without-report", RestoreState{Tasks: tasks, State: StateSettled, Submissions: sub}},
		{"draft-with-submissions", RestoreState{Tasks: tasks, State: StateDraft, Submissions: sub}},
		{"unknown-state", RestoreState{Tasks: tasks, State: State(99)}},
		{"duplicate-submissions", RestoreState{Tasks: tasks, State: StateOpen, Submissions: append(sub, sub...)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Restore(tc.rs); err == nil {
				t.Fatal("Restore accepted an impossible state")
			} else if imcerr.CodeOf(err) == imcerr.CodeInternal {
				t.Fatalf("unclassified error: %v", err)
			}
		})
	}
}
