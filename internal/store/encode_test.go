package store

import (
	"encoding/json"
	"testing"

	"imc2/internal/gen"
	"imc2/internal/platform"
	"imc2/internal/randx"
	"imc2/internal/truth"
)

// TestEncodingMatchesJSONMarshal pins the WAL's event encoder to
// encoding/json: every event encodes to the bytes json.Marshal writes
// for it.
func TestEncodingMatchesJSONMarshal(t *testing.T) {
	odd := submissionsEvent(`c<&>"2`, "w\"<1>", "w&2")
	odd.Submissions = append(odd.Submissions, platform.RowsOf([]platform.Submission{
		{Worker: "w\u2028\n", Price: 1e21, Answers: map[string]string{"t2": "\\x\x01", "t1": "\u00e9\u2029"}},
		{Worker: "w4", Price: 1e-7, Answers: map[string]string{"t1": "<b>"}},
	})...)
	events := []Event{
		createdEvent("c1", "one", false),
		submissionsEvent("c1", "w1", "w2"),
		{Type: EventCloseRequested, Campaign: "c1"},
		settledEvent("c1"),
		createdEvent(`c<&>"2`, "two", true),
		{Type: EventOpened, Campaign: `c<&>"2`},
		odd,
		{Type: EventCancelled, Campaign: `c<&>"2`},
		createdEvent("c3", "three", false),
	}
	for i, ev := range events {
		ev.Seq = uint64(i + 1)
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendEvent([]byte("prefix"), ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "prefix"+string(want) {
			t.Fatalf("event %d encodes as\n%s\nwant\n%s", i, got[len("prefix"):], want)
		}
	}
}

// TestSnapshotEncodingMatchesJSONMarshal pins the snapshot encoder to
// encoding/json: a state holding drafts, rows, reports, audits (with a
// convergence history) and escaped names encodes to the bytes
// json.Marshal writes for its snapshotFile, and so do the empty and the
// nil-record edge cases.
func TestSnapshotEncodingMatchesJSONMarshal(t *testing.T) {
	odd := submissionsEvent(`c<&>"2`, "w\"<1>", "w&2")
	odd.Submissions = append(odd.Submissions, platform.RowsOf([]platform.Submission{
		{Worker: "w\u2028\n", Price: 1e21, Answers: map[string]string{"t2": "\\x\x01", "t1": "\u00e9\u2029"}},
		{Worker: "w4", Price: 1e-7, Answers: map[string]string{"t1": "<b>"}},
	})...)
	settled := settledEvent("c1")
	settled.Settled.Audit.Convergence = []truth.IterationStats{
		{Iteration: 1, DependenceSeconds: 0.25, Changed: 3},
		{Iteration: 2, EstimateSeconds: 1e-7, Changed: 1, Converged: true},
	}
	noAudit := settledEvent("c4")
	noAudit.Settled.Audit = nil
	var st State
	for _, ev := range []Event{
		createdEvent("c1", "one", false),
		submissionsEvent("c1", "w1", "w2"),
		submissionsEvent("c1", "w3"),
		{Type: EventCloseRequested, Campaign: "c1"},
		settled,
		createdEvent(`c<&>"2`, "", true),
		{Type: EventOpened, Campaign: `c<&>"2`},
		odd,
		createdEvent("c3", "draft", true),
		createdEvent("c4", "no audit", false),
		{Type: EventCloseRequested, Campaign: "c4"},
		noAudit,
		createdEvent("c5", "cancelled", false),
		submissionsEvent("c5", "w9"),
		{Type: EventCancelled, Campaign: "c5"},
	} {
		if err := st.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	for _, recs := range [][]*CampaignRecord{st.Campaigns(), nil, {}, {nil}, st.Campaigns()[3:]} {
		want, err := json.Marshal(snapshotFile{Version: snapshotVersion, LastSeq: 1 << 40, Campaigns: recs})
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendSnapshot([]byte("prefix"), 1<<40, recs)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "prefix"+string(want) {
			t.Fatalf("snapshot of %d records encodes as\n%s\nwant\n%s", len(recs), got[len("prefix"):], want)
		}
	}
}

// BenchmarkSnapshotEncodeFig5 encodes a snapshot holding one fig5-scale
// campaign's submissions (400 workers, 500 answers each): "append" is
// the snapshot encoder, "marshal" encoding/json over the same state.
func BenchmarkSnapshotEncodeFig5(b *testing.B) {
	spec := gen.DefaultSpec()
	spec.Workers, spec.Tasks, spec.Copiers = 400, 2000, 100
	spec.TasksPerWorker = 500
	spec.ParticipationDecay = 0.3
	c, err := gen.NewCampaign(spec, randx.New(5))
	if err != nil {
		b.Fatal(err)
	}
	ds := c.Dataset
	subs := make([]platform.Submission, ds.NumWorkers())
	for i := range subs {
		answers := make(map[string]string, len(ds.WorkerTasks(i)))
		for _, j := range ds.WorkerTasks(i) {
			answers[ds.Task(j).ID] = ds.ValueString(j, ds.ValueOf(i, j))
		}
		subs[i] = platform.Submission{Worker: ds.WorkerID(i), Price: c.Costs[i], Answers: answers}
	}
	recs := []*CampaignRecord{{
		ID:          "cmp-0000000000000001",
		Tasks:       ds.Tasks(),
		State:       platform.StateOpen,
		Config:      ConfigFromPlatform(platform.DefaultConfig()),
		Submissions: platform.RowsOf(subs),
	}}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := appendSnapshot(nil, 1, recs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(snapshotFile{Version: snapshotVersion, LastSeq: 1, Campaigns: recs}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
