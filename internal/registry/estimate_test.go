package registry

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"imc2/internal/model"
	"imc2/internal/platform"
	"imc2/internal/sched"
	"imc2/internal/truth"
)

// seedOpenCampaign creates a campaign with cfg on r and submits the full
// generated workload.
func seedOpenCampaign(t *testing.T, r *Registry, seed int64, cfg platform.Config) *Campaign {
	t.Helper()
	w := testWorkload(t, seed)
	c, err := r.Create("live", w.Dataset.Tasks(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.Dataset.NumWorkers(); i++ {
		if err := c.Submit(submissionFor(w, i)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// assembled rebuilds the dataset a settle assembles from c's
// submissions: tasks in publication order, submissions in acceptance
// order, task IDs sorted within each submission.
func assembled(t *testing.T, c *Campaign) *model.Dataset {
	t.Helper()
	b := model.NewBuilder()
	for _, task := range c.Tasks() {
		b.AddTask(task)
	}
	for _, sub := range c.p.SubmissionList() {
		ids := make([]string, 0, len(sub.Answers))
		for id := range sub.Answers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			b.AddObservation(sub.Worker, id, sub.Answers[id])
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestWarmCloseThroughRegistryByteIdentical drives the WarmStart seam
// through the registry: a campaign created with a WarmStart hook keeps
// it through the registry's scheduler-injected settle configuration,
// the settle resumes the hook's part-run engine, and the report is
// byte-identical to an untouched campaign's cold settle, with the
// scheduler wired in both cases.
func TestWarmCloseThroughRegistryByteIdentical(t *testing.T) {
	const seed = 17
	mkReg := func() *Registry {
		s := sched.New(sched.Config{MaxConcurrentSettles: 2})
		t.Cleanup(s.Close)
		return New(WithScheduler(s))
	}

	coldReg := mkReg()
	coldRep, err := seedOpenCampaign(t, coldReg, seed, platform.DefaultConfig()).Settle(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var eng *truth.Engine
	calls := 0
	cfg := platform.DefaultConfig()
	cfg.WarmStart = func(int) *truth.Engine {
		calls++
		return eng
	}
	warmReg := mkReg()
	warm := seedOpenCampaign(t, warmReg, seed, cfg)
	eng, err = truth.NewEngine(assembled(t, warm), cfg.TruthMethod, cfg.TruthOptions)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(1)
	warmRep, err := warm.Settle(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if calls != 1 || !eng.Done() || eng.Iterations() != coldRep.TruthIterations {
		t.Fatalf("WarmStart consulted %d times; engine at %d iterations (done %v), cold ran %d",
			calls, eng.Iterations(), eng.Done(), coldRep.TruthIterations)
	}
	if !reflect.DeepEqual(coldRep, warmRep) {
		t.Fatal("warm registry settle differs from cold")
	}
	cb, _ := json.Marshal(coldRep)
	wb, _ := json.Marshal(warmRep)
	if string(cb) != string(wb) {
		t.Fatalf("serialized reports differ\ncold: %s\nwarm: %s", cb, wb)
	}
}

// TestEstimateReadIsFreshAndConverged: on a scheduled registry the
// first estimate read of an open campaign is converged, covers every
// submission, leaves no scheduler state behind, and previews the
// settled truth; once settled the campaign reads empty.
func TestEstimateReadIsFreshAndConverged(t *testing.T) {
	s := sched.New(sched.Config{MaxConcurrentSettles: 1})
	t.Cleanup(s.Close)
	r := New(WithScheduler(s))
	c := seedOpenCampaign(t, r, 3, platform.DefaultConfig())

	snap, err := c.Estimate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Converged || snap.Covered != c.Submissions() || snap.Staleness != 0 || len(snap.Truth) == 0 {
		t.Fatalf("first read = %+v, want converged over %d submissions", snap, c.Submissions())
	}
	if st := s.Stats(); st.ActiveSettles != 0 || st.QueuedSettles != 0 || st.TotalCompleted != 1 {
		t.Fatalf("scheduler after one read = %+v, want one completed slot", st)
	}

	rep, err := c.Settle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Truth, rep.Truth) {
		t.Fatal("estimate truth differs from the settled report's")
	}
	after, err := c.Estimate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if after.Truth != nil || after.Covered != 0 || after.Staleness != c.Submissions() {
		t.Fatalf("settled read = %+v, want empty with staleness %d", after, c.Submissions())
	}
}
