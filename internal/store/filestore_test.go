package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"imc2/internal/imcerr"
	"imc2/internal/model"
	"imc2/internal/platform"
)

func testTasks() []model.Task {
	return []model.Task{
		{ID: "t1", NumFalse: 2, Requirement: 1, Value: 5},
		{ID: "t2", NumFalse: 2, Requirement: 1, Value: 6},
	}
}

func createdEvent(id, name string, draft bool) Event {
	return Event{
		Type:     EventCreated,
		Campaign: id,
		Created: &CreatedPayload{
			Name:   name,
			Tasks:  testTasks(),
			Draft:  draft,
			Config: ConfigFromPlatform(platform.DefaultConfig()),
		},
	}
}

func submissionsEvent(id string, workers ...string) Event {
	var subs []platform.Submission
	for _, w := range workers {
		subs = append(subs, platform.Submission{
			Worker:  w,
			Price:   2.5,
			Answers: map[string]string{"t1": "a", "t2": "b"},
		})
	}
	return Event{Type: EventSubmissions, Campaign: id, Submissions: platform.RowsOf(subs)}
}

func settledEvent(id string) Event {
	return Event{
		Type:     EventSettled,
		Campaign: id,
		Settled: &SettledPayload{
			Report: &platform.Report{
				Truth:           map[string]string{"t1": "a", "t2": "b"},
				Winners:         []string{"w1"},
				Payments:        map[string]float64{"w1": 3.25},
				WorkerAccuracy:  map[string]float64{"w1": 0.875, "w2": 0.5},
				SocialCost:      2.5,
				TotalPayment:    3.25,
				PlatformUtility: 7.75,
				TruthIterations: 4,
				Converged:       true,
			},
			Audit: &platform.Audit{
				Pairs:        []platform.SuspectPair{{WorkerA: "w1", WorkerB: "w2", AtoB: 0.25, BtoA: 0.75}},
				CopierScores: map[string]float64{"w1": 0.1, "w2": 0.9},
			},
		},
	}
}

// openTestStore opens a store with automatic snapshots disabled unless
// overridden — most tests want to control snapshot timing themselves.
func openTestStore(t *testing.T, dir string, snapshotEvery int) *FileStore {
	t.Helper()
	st, err := Open(Options{Dir: dir, SnapshotEvery: snapshotEvery, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustAppend(t *testing.T, st *FileStore, evs ...Event) {
	t.Helper()
	for _, ev := range evs {
		if err := st.Append(ev); err != nil {
			t.Fatalf("append %s for %s: %v", ev.Type, ev.Campaign, err)
		}
	}
}

// reopenAndCompare closes nothing (simulating a crash), reopens the
// directory, and asserts the recovered state deep-equals want.
func reopenAndCompare(t *testing.T, dir string, want []*CampaignRecord) *FileStore {
	t.Helper()
	st2 := openTestStore(t, dir, -1)
	got := st2.State().Campaigns()
	if len(got) != len(want) {
		t.Fatalf("recovered %d campaigns, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("campaign %d diverged after replay:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	return st2
}

// TestReplayEquivalenceAcrossLifecyclePaths drives one campaign per
// lifecycle path through a live store, crashes (no Close), reopens, and
// asserts the replayed state is identical to the live fold — for every
// reachable path: draft, draft→open, open+submissions, cancelled,
// cancelled after failed settle, closing (mid-settle crash), settled,
// and reopened-after-failure with late submissions.
func TestReplayEquivalenceAcrossLifecyclePaths(t *testing.T) {
	paths := []struct {
		name   string
		events func(id string) []Event
		state  platform.State
	}{
		{"draft", func(id string) []Event {
			return []Event{createdEvent(id, "d", true)}
		}, platform.StateDraft},
		{"draft-opened", func(id string) []Event {
			return []Event{createdEvent(id, "do", true), {Type: EventOpened, Campaign: id}}
		}, platform.StateOpen},
		{"open-with-submissions", func(id string) []Event {
			return []Event{createdEvent(id, "os", false), submissionsEvent(id, "w1", "w2")}
		}, platform.StateOpen},
		{"cancelled", func(id string) []Event {
			return []Event{createdEvent(id, "c", false), {Type: EventCancelled, Campaign: id}}
		}, platform.StateCancelled},
		{"closing", func(id string) []Event {
			return []Event{createdEvent(id, "cl", false), submissionsEvent(id, "w1"),
				{Type: EventCloseRequested, Campaign: id}}
		}, platform.StateClosing},
		{"settled", func(id string) []Event {
			return []Event{createdEvent(id, "s", false), submissionsEvent(id, "w1", "w2"),
				{Type: EventCloseRequested, Campaign: id}, settledEvent(id)}
		}, platform.StateSettled},
		{"failed-settle-then-submissions", func(id string) []Event {
			return []Event{createdEvent(id, "fs", false), submissionsEvent(id, "w1"),
				{Type: EventCloseRequested, Campaign: id}, submissionsEvent(id, "w2")}
		}, platform.StateOpen},
		{"failed-settle-then-cancel", func(id string) []Event {
			return []Event{createdEvent(id, "fc", false), submissionsEvent(id, "w1"),
				{Type: EventCloseRequested, Campaign: id}, {Type: EventCancelled, Campaign: id}}
		}, platform.StateCancelled},
	}

	dir := t.TempDir()
	st := openTestStore(t, dir, -1)
	for i, p := range paths {
		id := walName(uint64(i + 1)) // any unique string works as an ID here
		mustAppend(t, st, p.events(id)...)
	}
	live := st.State().Campaigns()
	for i, p := range paths {
		if live[i].State != p.state {
			t.Fatalf("%s: live state = %v, want %v", p.name, live[i].State, p.state)
		}
	}
	// Crash (no Close) and replay.
	st2 := reopenAndCompare(t, dir, live)
	if st2.LastSeq() != st.LastSeq() {
		t.Fatalf("replay lastSeq = %d, want %d", st2.LastSeq(), st.LastSeq())
	}

	// The same history folded through a snapshot must recover the same
	// state: snapshot now, crash, replay.
	if err := st2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	reopenAndCompare(t, dir, live)
}

// TestCrashAtEveryBytePrefix simulates a crash at every possible torn
// WAL position: for each byte prefix of a recorded history, recovery
// must yield the fold of the longest valid event prefix — never an
// error, never a panic, never a partially applied event.
func TestCrashAtEveryBytePrefix(t *testing.T) {
	// Record a short but transition-rich history, then "crash" by
	// reading the live segment without ever closing the store (Close
	// would fold a snapshot; this test wants raw WAL replay).
	raw := t.TempDir()
	st := openTestStore(t, raw, -1)
	id := "cmp-0000000000000001"
	history := []Event{
		createdEvent(id, "crash", false),
		submissionsEvent(id, "w1", "w2"),
		{Type: EventCloseRequested, Campaign: id},
		settledEvent(id),
	}
	mustAppend(t, st, history...)
	segPath := filepath.Join(raw, walName(1))
	wal, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	// The fold after each complete event, for comparison.
	wantByEvents := make([][]*CampaignRecord, len(history)+1)
	fold := &State{}
	wantByEvents[0] = snapshotRecords(fold)
	for i, ev := range history {
		ev.Seq = uint64(i + 1)
		if err := fold.Apply(ev); err != nil {
			t.Fatal(err)
		}
		wantByEvents[i+1] = snapshotRecords(fold)
	}

	for cut := 0; cut <= len(wal); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName(1)), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(Options{Dir: dir, SnapshotEvery: -1, Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("cut at %d/%d bytes: open failed: %v", cut, len(wal), err)
		}
		nEvents := int(rec.LastSeq())
		if nEvents > len(history) {
			t.Fatalf("cut at %d: recovered %d events from a %d-event log", cut, nEvents, len(history))
		}
		got := rec.State().Campaigns()
		want := wantByEvents[nEvents]
		if len(got) != len(want) {
			t.Fatalf("cut at %d bytes (%d events): recovered %d campaigns, want %d", cut, nEvents, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("cut at %d bytes (%d events): campaign %d diverged", cut, nEvents, i)
			}
		}
		// The recovered store must accept appends where the log broke
		// off: durability continues over the truncated tail.
		next := Event{Type: EventOpened, Campaign: id}
		if nEvents == 0 {
			next = createdEvent(id, "again", false)
		}
		if err := rec.Append(next); err != nil && imcerr.CodeOf(err) != imcerr.CodeConflict {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		rec.Close()
	}
}

// snapshotRecords deep-copies a fold's records via the snapshot codec,
// so later Apply calls cannot alias earlier expectations.
func snapshotRecords(st *State) []*CampaignRecord {
	out := make([]*CampaignRecord, 0, st.Len())
	for _, rec := range st.Campaigns() {
		cp := *rec
		cp.Submissions = append(platform.Rows(nil), rec.Submissions...)
		out = append(out, &cp)
	}
	return out
}

func TestSnapshotCompactsWALKeepingOneGeneration(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, 4) // snapshot every 4 events
	id := "cmp-0000000000000001"
	mustAppend(t, st,
		createdEvent(id, "compact", false),
		submissionsEvent(id, "w1"),
		submissionsEvent(id, "w2"),
		submissionsEvent(id, "w3"), // 4th append → snap-4 + rotation
		submissionsEvent(id, "w4"),
		submissionsEvent(id, "w5"),
		submissionsEvent(id, "w6"),
		submissionsEvent(id, "w7"), // 8th append → snap-8, compacts gen 1
		submissionsEvent(id, "w8"),
	)
	stats := st.Stats()
	if stats.SnapshotsWritten != 2 || stats.LastSnapshotSeq != 8 {
		t.Fatalf("stats = %+v, want 2 snapshots, newest at seq 8", stats)
	}
	// One generation retained: wal-1 (covered by the retained snap-4)
	// is gone, wal-5 stays as snap-8's fallback tail, wal-9 is live.
	segs, err := st.segmentNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0] != walName(5) || segs[1] != walName(9) {
		t.Fatalf("segments after compaction = %v, want [%s %s]", segs, walName(5), walName(9))
	}
	snaps, err := snapshotNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("snapshots retained = %v, want [snap-4 snap-8]", snaps)
	}
	live := st.State().Campaigns()
	if len(live[0].Submissions) != 8 {
		t.Fatalf("live submissions = %d, want 8", len(live[0].Submissions))
	}
	// Crash and replay through the newest snapshot + tail.
	st2 := reopenAndCompare(t, dir, live)
	if st2.LastSeq() != 9 {
		t.Fatalf("lastSeq after replay = %d, want 9", st2.LastSeq())
	}
	st2.Close()
}

// TestSnapshotFileModeMatchesWAL requires a published snapshot to carry
// the permission bits of a WAL segment in the same directory: a backup or
// inspection tool that can read the log can read its compaction too.
func TestSnapshotFileModeMatchesWAL(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, 2)
	defer st.Close()
	id := "cmp-0000000000000001"
	mustAppend(t, st, createdEvent(id, "mode", false), submissionsEvent(id, "w1"))
	snaps, err := snapshotNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := st.segmentNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || len(segs) == 0 {
		t.Fatalf("snapshots %v, segments %v: want one of each", snaps, segs)
	}
	mode := func(name string) os.FileMode {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode().Perm()
	}
	if got, want := mode(snaps[0]), mode(segs[0]); got != want {
		t.Fatalf("snapshot %s mode %v, WAL segment %s mode %v", snaps[0], got, segs[0], want)
	}
}

// TestCorruptNewestSnapshotFallsBack damages the newest snapshot file:
// recovery must fall back to the retained previous generation and
// replay its still-present WAL tail to the identical state — a damaged
// snapshot costs replay time, never data.
func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, 4)
	id := "cmp-0000000000000001"
	mustAppend(t, st,
		createdEvent(id, "fallback", false),
		submissionsEvent(id, "w1"),
		submissionsEvent(id, "w2"),
		submissionsEvent(id, "w3"), // snap-4
		submissionsEvent(id, "w4"),
		submissionsEvent(id, "w5"),
		submissionsEvent(id, "w6"),
		submissionsEvent(id, "w7"), // snap-8
		submissionsEvent(id, "w8"), // seq 9, live tail
	)
	live := st.State().Campaigns()
	// Crash, then bit-rot the newest snapshot.
	if err := os.WriteFile(filepath.Join(dir, snapName(8)), []byte("{rotted"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := reopenAndCompare(t, dir, live)
	if st2.LastSeq() != 9 {
		t.Fatalf("lastSeq after fallback replay = %d, want 9", st2.LastSeq())
	}
	if st2.Stats().LastSnapshotSeq != 4 {
		t.Fatalf("fallback loaded snapshot at %d, want 4", st2.Stats().LastSnapshotSeq)
	}
	st2.Close()
}

// TestInconsistentNewestSnapshotFallsBack: a newest snapshot that
// parses but lists a null campaign record, or one campaign ID twice, is
// corrupt like one that does not parse — recovery skips it for the
// previous generation instead of crashing or loading a state whose
// index and listing disagree.
func TestInconsistentNewestSnapshotFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, snap []byte) []byte
	}{
		{"null-record", func(*testing.T, []byte) []byte {
			return []byte(`{"version":1,"last_seq":8,"campaigns":[null]}`)
		}},
		{"duplicate-id", func(t *testing.T, snap []byte) []byte {
			var f snapshotFile
			if err := json.Unmarshal(snap, &f); err != nil {
				t.Fatal(err)
			}
			f.Campaigns = append(f.Campaigns, f.Campaigns[0])
			out, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openTestStore(t, dir, 4)
			id := "cmp-0000000000000001"
			mustAppend(t, st,
				createdEvent(id, "fallback", false),
				submissionsEvent(id, "w1"),
				submissionsEvent(id, "w2"),
				submissionsEvent(id, "w3"), // snap-4
				submissionsEvent(id, "w4"),
				submissionsEvent(id, "w5"),
				submissionsEvent(id, "w6"),
				submissionsEvent(id, "w7"), // snap-8
				submissionsEvent(id, "w8"), // seq 9, live tail
			)
			live := st.State().Campaigns()
			path := filepath.Join(dir, snapName(8))
			snap, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(t, snap), 0o644); err != nil {
				t.Fatal(err)
			}
			st2 := reopenAndCompare(t, dir, live)
			if st2.Stats().LastSnapshotSeq != 4 || st2.LastSeq() != 9 {
				t.Fatalf("recovered from snapshot %d to seq %d, want 4 and 9",
					st2.Stats().LastSnapshotSeq, st2.LastSeq())
			}
			st2.Close()
		})
	}
}

// TestStraddlingSegmentSurvivesCompaction stages the crash window
// between a snapshot's publication and the WAL rotation: the live
// segment then straddles the snapshot boundary, and later compaction
// must NOT delete it — it is the retained snapshot's replay tail, and
// the corrupt-newest-snapshot fallback depends on it.
func TestStraddlingSegmentSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, -1)
	id := "cmp-0000000000000001"
	history := []Event{
		createdEvent(id, "straddle", false),
		submissionsEvent(id, "w1"),
		submissionsEvent(id, "w2"),
		submissionsEvent(id, "w3"),
		submissionsEvent(id, "w4"),
		submissionsEvent(id, "w5"),
	}
	mustAppend(t, st, history...)
	// Publish snap-4 by hand, as if the process died right after the
	// rename and before the rotation: wal-1 now straddles seq 4.
	fold := &State{}
	for i, ev := range history[:4] {
		ev.Seq = uint64(i + 1)
		if err := fold.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeSnapshot(dir, 4, fold); err != nil {
		t.Fatal(err)
	}

	// Recover (live segment is the straddling wal-1), append past the
	// next snapshot boundary, and snapshot: wal-1 must survive.
	st2 := openTestStore(t, dir, -1)
	if st2.Stats().LastSnapshotSeq != 4 {
		t.Fatalf("recovered snapshot seq = %d, want 4", st2.Stats().LastSnapshotSeq)
	}
	mustAppend(t, st2, submissionsEvent(id, "w6"), submissionsEvent(id, "w7"))
	if err := st2.Snapshot(); err != nil { // snap-8, retain=4
		t.Fatal(err)
	}
	live := st2.State().Campaigns()
	segs, err := st2.segmentNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0] != walName(1) {
		t.Fatalf("segments after compaction = %v, want the straddling %s retained", segs, walName(1))
	}

	// The fallback the retention exists for: rot the newest snapshot,
	// recover from snap-4 + the straddling segment's tail.
	snaps, err := snapshotNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(snaps)
	if err := os.WriteFile(filepath.Join(dir, snaps[len(snaps)-1]), []byte("{rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	st3 := reopenAndCompare(t, dir, live)
	st3.Close()
}

// TestSnapshotRefusedAfterLatchedFailure: a store whose WAL latched a
// failure holds an in-memory mutation its caller was told is NOT
// durable; Snapshot must refuse rather than persist the phantom.
func TestSnapshotRefusedAfterLatchedFailure(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, -1)
	mustAppend(t, st, createdEvent("cmp-0000000000000001", "x", false))
	boom := errors.New("disk gone")
	st.mu.Lock()
	st.failed = boom
	st.mu.Unlock()
	if err := st.Snapshot(); !errors.Is(err, boom) {
		t.Fatalf("Snapshot on a failed store: %v, want the latched cause", err)
	}
	if err := st.Append(submissionsEvent("cmp-0000000000000001", "w1")); !errors.Is(err, boom) {
		t.Fatalf("Append on a failed store: %v, want the latched cause", err)
	}
}

func TestAppendRejectsIllegalTransitionWithoutFailingStore(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, -1)
	id := "cmp-0000000000000001"
	mustAppend(t, st, createdEvent(id, "x", false))
	// Settled without a close request is not a registry history.
	if err := st.Append(settledEvent(id)); err == nil {
		t.Fatal("append accepted settled on an open campaign")
	}
	// The store stays healthy: the bad event reached neither state nor
	// disk, and legal appends continue.
	if stats := st.Stats(); stats.Failed != "" {
		t.Fatalf("store latched failed: %s", stats.Failed)
	}
	mustAppend(t, st, submissionsEvent(id, "w1"))
	if st.LastSeq() != 2 {
		t.Fatalf("lastSeq = %d, want 2", st.LastSeq())
	}
	st.Close()
}

func TestClosedStoreRefusesAppends(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, -1)
	mustAppend(t, st, createdEvent("cmp-0000000000000001", "x", false))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	err := st.Append(submissionsEvent("cmp-0000000000000001", "w1"))
	if !errors.Is(err, imcerr.ErrConflict) {
		t.Fatalf("append after close: %v, want conflict", err)
	}
}

// TestMidLogCorruptionRefusesOpen plants damage in a non-final segment:
// silently dropping acknowledged events would be worse than refusing to
// start, so Open must error.
func TestMidLogCorruptionRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, 2) // snapshot+rotate after 2 events
	id := "cmp-0000000000000001"
	mustAppend(t, st,
		createdEvent(id, "x", false),
		submissionsEvent(id, "w1"), // rotates: wal-3 becomes live
		submissionsEvent(id, "w2"),
	)
	// Crash without Close, then delete the snapshot and re-create an
	// older, damaged segment so two segments exist with the damage in
	// the first.
	snaps, err := snapshotNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range snaps {
		os.Remove(filepath.Join(dir, name))
	}
	if err := os.WriteFile(filepath.Join(dir, walName(1)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Fsync: FsyncNever}); err == nil {
		t.Fatal("Open accepted a log with mid-history corruption")
	}
}

// TestConvertersRoundTrip covers the one converter pair left: the
// settle configuration's serializable core.
func TestConvertersRoundTrip(t *testing.T) {
	cfg := platform.DefaultConfig()
	cfg.TruthOptions.CopyProb = 0.8
	cfg.TruthOptions.Parallelism = 1
	cfg.Mechanism = platform.MechanismGreedyBid
	got := ConfigFromPlatform(cfg).ToPlatform()
	if got.Mechanism != cfg.Mechanism || got.TruthOptions.CopyProb != 0.8 || got.TruthOptions.Parallelism != 1 {
		t.Fatalf("config round trip diverged: %+v", got)
	}
}
