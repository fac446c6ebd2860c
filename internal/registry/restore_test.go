package registry

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"imc2/internal/imcerr"
	"imc2/internal/platform"
	"imc2/internal/store"
)

// openStore opens a durable store in a fresh temp dir (fsync off: these
// tests crash by dropping the handle, not the OS).
func openStore(t *testing.T, dir string) *store.FileStore {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, SnapshotEvery: -1, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDurableRegistryRecoversBitIdentical drives a durable registry
// through every lifecycle path — settled (with report + audit), open
// with submissions, draft, cancelled, and mid-settle — then recovers
// from the store into a fresh registry and compares everything a
// client could observe.
func TestDurableRegistryRecoversBitIdentical(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	r := New(WithStore(st))

	// Campaign 1: settled, via the real settle path.
	wl := testWorkload(t, 11)
	cfg := platform.DefaultConfig()
	cfg.TruthOptions.Parallelism = 1
	settled, err := r.Create("settled", wl.Dataset.Tasks(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < wl.Dataset.NumWorkers(); i++ {
		if err := settled.Submit(submissionFor(wl, i)); err != nil {
			t.Fatal(err)
		}
	}
	baseline, err := settled.Settle(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Campaign 2: open with a submission batch.
	open, err := r.Create("open", testTasks(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	subs := []platform.Submission{
		{Worker: "w1", Price: 1, Answers: map[string]string{"t1": "a"}},
		{Worker: "w2", Price: 2, Answers: map[string]string{"t2": "b"}},
	}
	if n, err := open.SubmitBatch(subs); n != 2 || err != nil {
		t.Fatalf("SubmitBatch = %d, %v", n, err)
	}

	// Campaign 3: draft. Campaign 4: cancelled.
	draft, err := r.Create("draft", testTasks(), cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := r.Create("cancelled", testTasks(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cancelled.Cancel(); err != nil {
		t.Fatal(err)
	}

	// Crash: drop everything without closing the store, then recover.
	r2 := New(WithStore(openStore(t, dir)))
	recoveredAt := time.Now()
	pending, err := r2.Restore(r2.Store().(*store.FileStore).State().Campaigns(), recoveredAt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("pending = %d campaigns, want 0", len(pending))
	}
	if r2.Len() != 4 {
		t.Fatalf("recovered %d campaigns, want 4", r2.Len())
	}

	// The settled campaign: identical ID, state, and report.
	got, err := r2.Get(settled.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got.State() != platform.StateSettled || got.Name() != "settled" {
		t.Fatalf("recovered settled campaign: state=%v name=%q", got.State(), got.Name())
	}
	rep, err := got.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, baseline) {
		t.Fatalf("recovered report diverged from baseline:\n got %+v\nwant %+v", rep, baseline)
	}
	audit, err := got.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(audit.Pairs) == 0 {
		t.Fatal("recovered audit is empty")
	}
	if got.RecoveredAt() != recoveredAt || !got.Persisted() {
		t.Fatalf("recovered metadata: recoveredAt=%v persisted=%v", got.RecoveredAt(), got.Persisted())
	}

	// The open campaign: submissions replayed in order, still accepting.
	gotOpen, err := r2.Get(open.ID())
	if err != nil {
		t.Fatal(err)
	}
	if gotOpen.Submissions() != 2 {
		t.Fatalf("recovered submissions = %d, want 2", gotOpen.Submissions())
	}
	if err := gotOpen.Submit(platform.Submission{Worker: "w1", Price: 1, Answers: map[string]string{"t1": "a"}}); !errors.Is(err, platform.ErrDuplicateSubmission) {
		t.Fatalf("duplicate after recovery: %v, want ErrDuplicateSubmission", err)
	}
	if err := gotOpen.Submit(platform.Submission{Worker: "w3", Price: 3, Answers: map[string]string{"t1": "c"}}); err != nil {
		t.Fatalf("new submission after recovery: %v", err)
	}

	// Draft and cancelled states survive.
	if got, _ := r2.Get(draft.ID()); got.State() != platform.StateDraft {
		t.Fatalf("draft recovered as %v", got.State())
	}
	if got, _ := r2.Get(cancelled.ID()); got.State() != platform.StateCancelled {
		t.Fatalf("cancelled recovered as %v", got.State())
	}

	// ID allocation continues past recovered IDs: no collision.
	fresh, err := r2.Create("fresh", testTasks(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID() <= cancelled.ID() {
		t.Fatalf("fresh ID %q does not extend recovered sequence (last was %q)", fresh.ID(), cancelled.ID())
	}
}

// TestDurableSubmitDoesNotAliasAnswers submits to a durable registry and
// then rewrites every submitted answer map, as an embedder that reuses
// its maps would. A snapshot taken afterwards, and the recovery that
// reads it, must still hold the answers as submitted: the recovered
// submissions equal the originals, and the recovered campaign settles to
// the report of a campaign that was never touched.
func TestDurableSubmitDoesNotAliasAnswers(t *testing.T) {
	wl := testWorkload(t, 13)
	cfg := platform.DefaultConfig()
	cfg.TruthOptions.Parallelism = 1

	untouched, err := New().Create("baseline", wl.Dataset.Tasks(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < wl.Dataset.NumWorkers(); i++ {
		if err := untouched.Submit(submissionFor(wl, i)); err != nil {
			t.Fatal(err)
		}
	}
	baseline, err := untouched.Settle(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st := openStore(t, dir)
	c, err := New(WithStore(st)).Create("durable", wl.Dataset.Tasks(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	var reused []map[string]string
	for i := 0; i < wl.Dataset.NumWorkers(); i++ {
		sub := submissionFor(wl, i)
		if i%2 == 0 {
			err = c.Submit(sub)
		} else {
			_, err = c.SubmitBatch([]platform.Submission{sub})
		}
		if err != nil {
			t.Fatal(err)
		}
		reused = append(reused, sub.Answers)
	}
	for _, answers := range reused {
		for task := range answers {
			answers[task] = "mutated"
		}
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}

	r2 := New(WithStore(openStore(t, dir)))
	recs := r2.Store().(*store.FileStore).State().Campaigns()
	if len(recs) != 1 || len(recs[0].Submissions) != wl.Dataset.NumWorkers() {
		t.Fatalf("recovered %d campaign records", len(recs))
	}
	for i, rec := range recs[0].Submissions {
		if want := submissionFor(wl, i); !reflect.DeepEqual(rec.ToPlatform(), want) {
			t.Fatalf("recovered submission %d = %+v, want %+v", i, rec.ToPlatform(), want)
		}
	}
	if _, err := r2.Restore(recs, time.Now()); err != nil {
		t.Fatal(err)
	}
	got, err := r2.Get(c.ID())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := got.Settle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, baseline) {
		t.Fatalf("recovered campaign settled differently:\n got %+v\nwant %+v", rep, baseline)
	}
}

// TestRecoverMidSettleRequeuesAndMatchesBaseline records a campaign
// whose settle never finished (close-requested, no settled event),
// recovers, and re-runs the settle: the pending list must surface the
// campaign, and the re-run report must be bit-identical to the report
// of an identical campaign that settled without crashing.
func TestRecoverMidSettleRequeuesAndMatchesBaseline(t *testing.T) {
	wl := testWorkload(t, 12)
	cfg := platform.DefaultConfig()
	cfg.TruthOptions.Parallelism = 1

	// Baseline: the same campaign settled in-memory, never crashed.
	base := New()
	bc, err := base.Create("baseline", wl.Dataset.Tasks(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < wl.Dataset.NumWorkers(); i++ {
		if err := bc.Submit(submissionFor(wl, i)); err != nil {
			t.Fatal(err)
		}
	}
	baseline, err := bc.Settle(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Durable run: submissions land, the close is requested (logged),
	// and then the process "dies" before the settle completes — staged
	// by appending the close-requested event exactly as the settle hook
	// would, without running the stages.
	dir := t.TempDir()
	st := openStore(t, dir)
	r := New(WithStore(st))
	c, err := r.Create("durable", wl.Dataset.Tasks(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < wl.Dataset.NumWorkers(); i++ {
		if err := c.Submit(submissionFor(wl, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Append(store.Event{Type: store.EventCloseRequested, Campaign: c.ID()}); err != nil {
		t.Fatal(err)
	}

	// Crash, recover: the campaign must come back as pending.
	st2 := openStore(t, dir)
	r2 := New(WithStore(st2))
	pending, err := r2.Restore(st2.State().Campaigns(), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].ID() != c.ID() {
		t.Fatalf("pending = %v, want exactly %q", pending, c.ID())
	}
	if pending[0].State() != platform.StateOpen {
		t.Fatalf("pending campaign state = %v, want open for re-queue", pending[0].State())
	}

	// Re-run the interrupted settle: bit-identical to the baseline.
	rep, err := pending[0].Settle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, baseline) {
		t.Fatal("re-queued settle diverged from the never-crashed baseline")
	}

	// And the re-run settle is itself durable: recover once more and
	// read the same report straight from the log.
	st3 := openStore(t, dir)
	r3 := New(WithStore(st3))
	if _, err := r3.Restore(st3.State().Campaigns(), time.Now()); err != nil {
		t.Fatal(err)
	}
	got, err := r3.Get(c.ID())
	if err != nil {
		t.Fatal(err)
	}
	rep3, err := got.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep3, baseline) {
		t.Fatal("report recovered after re-queued settle diverged from baseline")
	}
}

func TestRestoreRefusesNonEmptyRegistry(t *testing.T) {
	r := New()
	if _, err := r.Create("live", testTasks(), platform.DefaultConfig(), false); err != nil {
		t.Fatal(err)
	}
	_, err := r.Restore([]*store.CampaignRecord{}, time.Now())
	if !errors.Is(err, imcerr.ErrConflict) {
		t.Fatalf("Restore on non-empty registry: %v, want conflict", err)
	}
}

func TestStoreErrorPoisonsCreation(t *testing.T) {
	r := New(WithStoreError(errors.New("disk on fire")))
	_, err := r.Create("x", testTasks(), platform.DefaultConfig(), false)
	if err == nil || imcerr.CodeOf(err) != imcerr.CodeInternal {
		t.Fatalf("create on poisoned registry: %v, want internal", err)
	}
}
