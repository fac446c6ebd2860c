package platform

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"imc2/internal/gen"
	"imc2/internal/model"
	"imc2/internal/randx"
	"imc2/internal/truth"
)

// assembleSubs is the assembly the columnar log replaced, kept as its
// oracle: every task through a model.Builder, then the submissions in
// acceptance order. Each submission's task IDs are sorted only to fix
// the Builder's insertion order; value indices depend on acceptance
// order alone, because a submission adds at most one value per task.
func assembleSubs(tasks []model.Task, subs []Submission) (*model.Dataset, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("oracle: no submissions")
	}
	b := model.NewBuilder()
	for _, t := range tasks {
		b.AddTask(t)
	}
	for _, sub := range subs {
		ids := make([]string, 0, len(sub.Answers))
		for taskID := range sub.Answers {
			ids = append(ids, taskID)
		}
		sort.Strings(ids)
		for _, taskID := range ids {
			b.AddObservation(sub.Worker, taskID, sub.Answers[taskID])
		}
	}
	return b.Build()
}

// oracleBids aligns the submissions' prices with ds's worker indexing
// by looking each worker up.
func oracleBids(t *testing.T, ds *model.Dataset, subs []Submission) []float64 {
	t.Helper()
	bids := make([]float64, ds.NumWorkers())
	for _, sub := range subs {
		i, ok := ds.WorkerIndex(sub.Worker)
		if !ok {
			t.Fatalf("oracle lost worker %q", sub.Worker)
		}
		bids[i] = sub.Price
	}
	return bids
}

// sameDataset fails unless got matches want entry for entry. Lists are
// compared element-wise, so a task nobody answered may hold a nil list
// in one dataset and an empty one in the other.
func sameDataset(t *testing.T, what string, want, got *model.Dataset) {
	t.Helper()
	if got.NumWorkers() != want.NumWorkers() || got.NumTasks() != want.NumTasks() ||
		got.NumObservations() != want.NumObservations() {
		t.Fatalf("%s: shape %d×%d (%d answers), oracle %d×%d (%d answers)", what,
			got.NumWorkers(), got.NumTasks(), got.NumObservations(),
			want.NumWorkers(), want.NumTasks(), want.NumObservations())
	}
	for i := 0; i < want.NumWorkers(); i++ {
		if got.WorkerID(i) != want.WorkerID(i) {
			t.Fatalf("%s: worker %d is %q, oracle %q", what, i, got.WorkerID(i), want.WorkerID(i))
		}
		if !slices.Equal(got.WorkerTasks(i), want.WorkerTasks(i)) {
			t.Fatalf("%s: WorkerTasks(%d) = %v, oracle %v", what, i, got.WorkerTasks(i), want.WorkerTasks(i))
		}
		for j := 0; j < want.NumTasks(); j++ {
			if got.ValueOf(i, j) != want.ValueOf(i, j) {
				t.Fatalf("%s: ValueOf(%d, %d) = %d, oracle %d", what, i, j, got.ValueOf(i, j), want.ValueOf(i, j))
			}
		}
	}
	for j := 0; j < want.NumTasks(); j++ {
		if got.Task(j) != want.Task(j) {
			t.Fatalf("%s: task %d is %+v, oracle %+v", what, j, got.Task(j), want.Task(j))
		}
		if !slices.Equal(got.TaskWorkers(j), want.TaskWorkers(j)) {
			t.Fatalf("%s: TaskWorkers(%d) = %v, oracle %v", what, j, got.TaskWorkers(j), want.TaskWorkers(j))
		}
		if !slices.Equal(got.Values(j), want.Values(j)) {
			t.Fatalf("%s: Values(%d) = %q, oracle %q", what, j, got.Values(j), want.Values(j))
		}
	}
}

// settleBytes settles ds with cfg without touching the campaign state and
// renders the report and the audit (minus its wall-clock convergence
// times) as JSON, or the error text when the settle fails.
func settleBytes(t *testing.T, p *Platform, cfg Config, ds *model.Dataset, bids []float64) string {
	t.Helper()
	rep, audit, _, err := p.settleDataset(context.Background(), cfg, ds, bids)
	if err != nil {
		return "error: " + err.Error()
	}
	if audit != nil {
		audit.Convergence = nil
	}
	b, err := json.Marshal(struct {
		Report *Report
		Audit  *Audit
	}{rep, audit})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// shapeSubmissions renders a generated campaign's workers as sealed
// submissions in worker-index order.
func shapeSubmissions(t *testing.T, spec gen.CampaignSpec, seed int64) ([]model.Task, []Submission) {
	t.Helper()
	c, err := gen.NewCampaign(spec, randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	subs := make([]Submission, ds.NumWorkers())
	for i := range subs {
		answers := make(map[string]string, len(ds.WorkerTasks(i)))
		for _, j := range ds.WorkerTasks(i) {
			answers[ds.Task(j).ID] = ds.ValueString(j, ds.ValueOf(i, j))
		}
		subs[i] = Submission{Worker: ds.WorkerID(i), Price: c.Costs[i], Answers: answers}
	}
	return ds.Tasks(), subs
}

// TestColumnarAssemblyMatchesBuilderOracle is the contract of the
// columnar log: on the fig5 and sparse generator shapes (a quarter of
// perfbench's worker and task counts, the same answers per worker),
// accepted in a random order, the dataset built from every tenth prefix
// of the log equals the Builder oracle's over the same submissions —
// indices, adjacency lists, value dictionaries and bids — and a settle
// of either dataset yields byte-identical reports and audits.
func TestColumnarAssemblyMatchesBuilderOracle(t *testing.T) {
	fig5 := gen.DefaultSpec()
	fig5.Workers, fig5.Tasks, fig5.Copiers = 100, 500, 25
	fig5.TasksPerWorker = 500 / 4
	fig5.ParticipationDecay = 0.3
	fig5.RequirementLow, fig5.RequirementHigh = 1, 2
	sparse := gen.DefaultSpec()
	sparse.Workers, sparse.Tasks, sparse.Copiers = 200, 500, 40
	sparse.TasksPerWorker = 20
	sparse.MinProvidersPerTask = 4
	sparse.RequirementLow, sparse.RequirementHigh = 0.5, 1

	cfg := DefaultConfig()
	cfg.Mechanism = MechanismGreedyBid
	cfg.TruthOptions.CopyProb = 0.8
	cfg.TruthOptions.PriorDependence = 0.05
	cfg.TruthOptions.MaxIterations = 5
	for _, shape := range []struct {
		name string
		spec gen.CampaignSpec
	}{{"fig5", fig5}, {"sparse", sparse}} {
		for _, seed := range []int64{1, 5, 9} {
			t.Run(fmt.Sprintf("%s/seed=%d", shape.name, seed), func(t *testing.T) {
				tasks, subs := shapeSubmissions(t, shape.spec, seed)
				rand.New(rand.NewSource(seed)).Shuffle(len(subs), func(a, b int) {
					subs[a], subs[b] = subs[b], subs[a]
				})
				p, err := New(tasks)
				if err != nil {
					t.Fatal(err)
				}
				for k, sub := range subs {
					if err := p.Submit(sub); err != nil {
						t.Fatal(err)
					}
					if (k+1)%10 != 0 && k+1 != len(subs) {
						continue
					}
					what := fmt.Sprintf("prefix %d", k+1)
					ds, bids, err := p.assemble()
					if err != nil {
						t.Fatal(err)
					}
					want, err := assembleSubs(tasks, subs[:k+1])
					if err != nil {
						t.Fatal(err)
					}
					sameDataset(t, what, want, ds)
					wantBids := oracleBids(t, want, subs[:k+1])
					if !slices.Equal(bids, wantBids) {
						t.Fatalf("%s: bids differ from the oracle's", what)
					}
					if got, want := settleBytes(t, p, cfg, ds, bids), settleBytes(t, p, cfg, want, wantBids); got != want {
						t.Fatalf("%s: settle differs from the oracle's\nlog:    %.300s\noracle: %.300s", what, got, want)
					}
				}
			})
		}
	}
}

// TestSubmitCopiesAnswers: a caller that reuses its answer maps after
// Submit returns — blanking a value, adding an unpublished task — must
// not reach the campaign. The report equals one settled from untouched
// copies of the same submissions.
func TestSubmitCopiesAnswers(t *testing.T) {
	const seed = 13
	subs := genSubmissions(t, seed)
	clean := newPlatformWith(t, seed, subs, 0)
	reused := newPlatformWith(t, seed, subs, 0)
	for _, sub := range subs {
		answers := make(map[string]string, len(sub.Answers))
		for taskID, v := range sub.Answers {
			answers[taskID] = v
		}
		if err := clean.Submit(sub); err != nil {
			t.Fatal(err)
		}
		if err := reused.Submit(Submission{Worker: sub.Worker, Price: sub.Price, Answers: answers}); err != nil {
			t.Fatal(err)
		}
		for taskID := range answers {
			answers[taskID] = ""
		}
		answers["bogus"] = "x"
	}
	want, err := clean.Run(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := reused.Run(DefaultConfig())
	if err != nil {
		t.Fatalf("settle after the caller reused its answer maps: %v", err)
	}
	if string(reportBytes(t, got)) != string(reportBytes(t, want)) {
		t.Fatal("report changed when the caller reused its answer maps after Submit")
	}
}

// TestRejectedSubmitLeavesLogIntact: a submission refused after its
// answers were interned — a duplicate worker, a closed campaign, or an
// unpublished task met halfway through its answers — takes its cells
// and new dictionary values back, so the datasets of later prefixes
// still equal the oracle's.
func TestRejectedSubmitLeavesLogIntact(t *testing.T) {
	const seed = 3
	subs := genSubmissions(t, seed)
	p := newPlatformWith(t, seed, subs, 0)
	for k, sub := range subs {
		fresh := make(map[string]string, len(sub.Answers)+1)
		for taskID := range sub.Answers {
			fresh[taskID] = fmt.Sprintf("never-%d", k)
		}
		if k > 0 {
			if err := p.Submit(Submission{Worker: subs[0].Worker, Price: 1, Answers: fresh}); err == nil {
				t.Fatal("duplicate worker accepted")
			}
		}
		fresh["bogus"] = "bogus-value"
		if err := p.Submit(Submission{Worker: "intruder", Price: 1, Answers: fresh}); err == nil {
			t.Fatal("unpublished task accepted")
		}
		if err := p.Submit(sub); err != nil {
			t.Fatal(err)
		}
		ds, err := p.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		want, err := assembleSubs(p.tasks, subs[:k+1])
		if err != nil {
			t.Fatal(err)
		}
		sameDataset(t, fmt.Sprintf("prefix %d", k+1), want, ds)
	}
	if err := p.Cancel(); err != nil {
		t.Fatal(err)
	}
	late := Submission{Worker: "late", Price: 1, Answers: map[string]string{p.tasks[0].ID: "late-value"}}
	if err := p.Submit(late); err == nil {
		t.Fatal("cancelled campaign accepted a submission")
	}
	for j, dict := range p.log.Values {
		for _, v := range dict {
			if v == "late-value" || v == "bogus-value" || strings.HasPrefix(v, "never-") {
				t.Fatalf("rejected value left in task %d's dictionary: %q", j, dict)
			}
		}
	}
}

// TestEstimateRacesSubmit: estimates read while other goroutines
// submit each equal a cold truth.Discover over the oracle's assembly of
// exactly the prefix they cover. Run under -race it also checks that the
// log snapshot shares nothing a concurrent Submit writes.
func TestEstimateRacesSubmit(t *testing.T) {
	const seed = 19
	subs := genSubmissions(t, seed)
	p := newPlatformWith(t, seed, subs, 0)
	cfg := DefaultConfig()

	var (
		wg    sync.WaitGroup
		done  = make(chan struct{})
		reads atomic.Int64
		mu    sync.Mutex
		snaps []EstimateSnapshot
	)
	const writers, readers = 2, 2
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				snap, err := p.Estimate(context.Background(), cfg)
				if err != nil {
					t.Error(err)
				} else if snap.Covered > 0 {
					mu.Lock()
					snaps = append(snaps, snap)
					mu.Unlock()
				}
				reads.Add(1)
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for k := w; k < len(subs); k += writers {
				seen := reads.Load()
				if err := p.Submit(subs[k]); err != nil {
					t.Error(err)
				}
				// Let a read that starts after this submission finish
				// (each reader has at most one read in flight).
				for reads.Load() < seen+readers+1 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	writing.Wait()
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(snaps) == 0 {
		t.Fatal("no estimate covered a submission")
	}

	accepted := p.SubmissionList()
	for _, snap := range snaps {
		ds, err := assembleSubs(p.tasks, accepted[:snap.Covered])
		if err != nil {
			t.Fatal(err)
		}
		res, err := truth.Discover(ds, cfg.TruthMethod, cfg.TruthOptions)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(res.TruthMap(ds))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(snap.Truth)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) || snap.Iterations != res.Iterations || snap.Converged != res.Converged {
			t.Fatalf("estimate over %d submissions differs from a cold Discover of that prefix", snap.Covered)
		}
		for i, a := range res.WorkerAccuracy(ds) {
			if snap.WorkerAccuracy[ds.WorkerID(i)] != a {
				t.Fatalf("estimate over %d submissions: accuracy of %q differs", snap.Covered, ds.WorkerID(i))
			}
		}
	}
}
