package platform

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"imc2/internal/gen"
	"imc2/internal/imcerr"
	"imc2/internal/randx"
	"imc2/internal/truth"
)

// genSubmissions renders a generated campaign as a deterministic
// submission stream (worker-index order — the acceptance order every
// test below replays identically).
func genSubmissions(t *testing.T, seed int64) []Submission {
	t.Helper()
	spec := gen.DefaultSpec()
	spec.Workers = 24
	spec.Tasks = 20
	spec.Copiers = 6
	spec.TasksPerWorker = 12
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	spec.ParticipationDecay = 0.3
	c, err := gen.NewCampaign(spec, randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	subs := make([]Submission, 0, ds.NumWorkers())
	for i := 0; i < ds.NumWorkers(); i++ {
		answers := make(map[string]string)
		for _, j := range ds.WorkerTasks(i) {
			answers[ds.Task(j).ID] = ds.ValueString(j, ds.ValueOf(i, j))
		}
		subs = append(subs, Submission{Worker: ds.WorkerID(i), Price: c.Costs[i], Answers: answers})
	}
	return subs
}

// newPlatformWith builds an open platform holding the first k of subs.
func newPlatformWith(t *testing.T, seed int64, subs []Submission, k int) *Platform {
	t.Helper()
	spec := gen.DefaultSpec()
	spec.Workers = 24
	spec.Tasks = 20
	spec.Copiers = 6
	spec.TasksPerWorker = 12
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	spec.ParticipationDecay = 0.3
	c, err := gen.NewCampaign(spec, randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(c.Dataset.Tasks())
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs[:k] {
		if err := p.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// reportBytes canonicalizes a report for byte-identity comparison
// (JSON marshals map keys sorted, so equal reports yield equal bytes
// and differing float bit patterns yield differing bytes).
func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWarmSettleByteIdenticalToCold pins the WarmStart seam: a settle
// that resumes an engine already advanced one iteration must produce a
// report byte-identical to a cold settle of the same dataset — at every
// parallelism degree. (CI runs the package under -race, covering the
// concurrent variant.)
func TestWarmSettleByteIdenticalToCold(t *testing.T) {
	const seed = 9 // DATE runs 5 iterations here, so the settle resumes 4
	subs := genSubmissions(t, seed)
	for _, par := range []int{1, 2, 0} {
		cfg := DefaultConfig()
		cfg.TruthOptions.Parallelism = par

		cold := newPlatformWith(t, seed, subs, len(subs))
		coldRep, err := cold.Settle(context.Background(), cfg)
		if err != nil {
			t.Fatalf("par=%d cold settle: %v", par, err)
		}

		warm := newPlatformWith(t, seed, subs, len(subs))
		ds, err := assembleSubs(warm.tasks, subs)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := truth.NewEngine(ds, cfg.TruthMethod, cfg.TruthOptions)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(1)
		if eng.Iterations() != 1 || eng.Done() {
			t.Fatalf("par=%d: engine after Run(1) at iteration %d (done %v)", par, eng.Iterations(), eng.Done())
		}
		warmCfg := cfg
		warmCfg.WarmStart = func(frozenSubs int) *truth.Engine {
			if frozenSubs != len(subs) {
				t.Errorf("par=%d: WarmStart(%d), want %d frozen submissions", par, frozenSubs, len(subs))
			}
			return eng
		}
		warmRep, err := warm.Settle(context.Background(), warmCfg)
		if err != nil {
			t.Fatalf("par=%d warm settle: %v", par, err)
		}

		if !reflect.DeepEqual(coldRep, warmRep) {
			t.Fatalf("par=%d: warm report differs from cold", par)
		}
		cb, wb := reportBytes(t, coldRep), reportBytes(t, warmRep)
		if string(cb) != string(wb) {
			t.Fatalf("par=%d: serialized reports differ\ncold: %s\nwarm: %s", par, cb, wb)
		}
		// The settle really resumed the engine rather than running cold.
		if !eng.Done() || eng.Iterations() != coldRep.TruthIterations {
			t.Fatalf("par=%d: engine not resumed (iterations %d, done %v; cold ran %d)",
				par, eng.Iterations(), eng.Done(), coldRep.TruthIterations)
		}
	}
}

// TestEstimatePrefixFoldEqualsColdDiscover is the read-equivalence
// property: for any submission-stream prefix, arriving in arbitrary
// batches, Estimate equals a cold Discover over exactly that prefix —
// value for value, bit for bit on the worker weights, and with the same
// iteration count and convergence flag.
func TestEstimatePrefixFoldEqualsColdDiscover(t *testing.T) {
	const seed = 23
	subs := genSubmissions(t, seed)
	rng := rand.New(rand.NewSource(77))
	for _, method := range []truth.Method{truth.MethodDATE, truth.MethodNC, truth.MethodMV} {
		cfg := DefaultConfig()
		cfg.TruthMethod = method

		p := newPlatformWith(t, seed, subs, 0)
		next := 0
		for next < len(subs) {
			for batch := 1 + rng.Intn(6); batch > 0 && next < len(subs); batch-- {
				if err := p.Submit(subs[next]); err != nil {
					t.Fatal(err)
				}
				next++
			}
			snap, err := p.Estimate(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%v prefix %d: %v", method, next, err)
			}

			ds, err := assembleSubs(p.tasks, subs[:next])
			if err != nil {
				t.Fatal(err)
			}
			res, err := truth.Discover(ds, method, cfg.TruthOptions)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Staleness != 0 || snap.Covered != next || snap.Method != method {
				t.Fatalf("%v prefix %d: covered=%d staleness=%d method=%v", method, next, snap.Covered, snap.Staleness, snap.Method)
			}
			if snap.Converged != res.Converged || snap.Iterations != res.Iterations {
				t.Fatalf("%v prefix %d: progress (%d, %v) vs cold (%d, %v)",
					method, next, snap.Iterations, snap.Converged, res.Iterations, res.Converged)
			}
			if !reflect.DeepEqual(snap.Truth, res.TruthMap(ds)) {
				t.Fatalf("%v prefix %d: provisional truth diverges from cold Discover", method, next)
			}
			wantAcc := make(map[string]float64, ds.NumWorkers())
			for i, a := range res.WorkerAccuracy(ds) {
				wantAcc[ds.WorkerID(i)] = a
			}
			if !reflect.DeepEqual(snap.WorkerAccuracy, wantAcc) {
				t.Fatalf("%v prefix %d: provisional weights diverge from cold Discover", method, next)
			}
		}
	}
}

// TestWarmStartStaleEstimateFallsBackCold: a WarmStart hook that has no
// engine covering the frozen submissions returns nil, and the settle
// runs cold — still byte-identical to the baseline.
func TestWarmStartStaleEstimateFallsBackCold(t *testing.T) {
	const seed = 31
	subs := genSubmissions(t, seed)
	cfg := DefaultConfig()

	cold := newPlatformWith(t, seed, subs, len(subs))
	coldRep, err := cold.Settle(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	p := newPlatformWith(t, seed, subs, len(subs))
	calls := 0
	warmCfg := cfg
	warmCfg.WarmStart = func(int) *truth.Engine {
		calls++
		return nil
	}
	rep, err := p.Settle(context.Background(), warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("WarmStart consulted %d times, want 1", calls)
	}
	if string(reportBytes(t, rep)) != string(reportBytes(t, coldRep)) {
		t.Fatal("stale-fallback report differs from cold baseline")
	}
}

// TestEstimateOnlyWhileOpen: drafts, empty campaigns and settled
// campaigns read an empty estimate whose staleness counts every
// accepted submission.
func TestEstimateOnlyWhileOpen(t *testing.T) {
	const seed = 7
	subs := genSubmissions(t, seed)
	cfg := DefaultConfig()

	empty := newPlatformWith(t, seed, subs, 0)
	if snap, err := empty.Estimate(context.Background(), cfg); err != nil || snap.Truth != nil || snap.Staleness != 0 {
		t.Fatalf("empty estimate = (%+v, %v), want empty", snap, err)
	}
	draft, err := NewDraft(empty.Tasks())
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := draft.Estimate(context.Background(), cfg); err != nil || snap.Truth != nil {
		t.Fatalf("draft estimate = (%+v, %v), want empty", snap, err)
	}

	p := newPlatformWith(t, seed, subs, len(subs))
	if _, err := p.Settle(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	snap, err := p.Estimate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Truth != nil || snap.Converged || snap.Covered != 0 || snap.Staleness != len(subs) {
		t.Fatalf("settled estimate = %+v, want empty with staleness %d", snap, len(subs))
	}
}

// queueFullAdmission rejects every acquire with the scheduler's
// backpressure classification, recording the key it was asked for.
type queueFullAdmission struct{ key *string }

func (a queueFullAdmission) Acquire(_ context.Context, key string) (func(), error) {
	*a.key = key
	return nil, imcerr.New(imcerr.CodeUnavailable, "test: queue full")
}

// TestEstimateUnavailableUnderBackpressure: a backpressure rejection
// from the shared scheduler fails the read as unavailable (503 +
// Retry-After on the wire), and the admission key is derived from the
// settle key.
func TestEstimateUnavailableUnderBackpressure(t *testing.T) {
	const seed = 7
	subs := genSubmissions(t, seed)
	var key string
	cfg := DefaultConfig()
	cfg.Admission = queueFullAdmission{&key}
	cfg.SettleKey = "cmp-test"
	p := newPlatformWith(t, seed, subs, len(subs))
	snap, err := p.Estimate(context.Background(), cfg)
	if imcerr.CodeOf(err) != imcerr.CodeUnavailable {
		t.Fatalf("err = %v, want unavailable", err)
	}
	if key != "cmp-test#estimate" {
		t.Fatalf("admission key = %q", key)
	}
	if snap.Truth != nil || snap.Covered != 0 {
		t.Fatalf("rejected read still carries an estimate: %+v", snap)
	}
}
