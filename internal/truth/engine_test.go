package truth

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"imc2/internal/model"
)

// runResumed drives an engine to completion in installments whose sizes
// are chosen by rng — including zero-budget Run(0) tails — exercising
// every pause point a resumed run could hit.
func runResumed(e *Engine, rng *rand.Rand) {
	for !e.Done() {
		switch rng.Intn(3) {
		case 0:
			e.Step()
		case 1:
			e.Run(1 + rng.Intn(3))
		default:
			e.Run(0)
		}
	}
}

// requireIdenticalResults compares two results bit for bit: an engine
// resumed across pauses must be indistinguishable from a straight run.
func requireIdenticalResults(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: results differ\nwant: iters=%d converged=%v truth=%v\ngot:  iters=%d converged=%v truth=%v",
			label, want.Iterations, want.Converged, want.Truth,
			got.Iterations, got.Converged, got.Truth)
	}
}

// TestEngineResumeBitIdenticalToDiscover is the tentpole invariant at
// the engine level: splitting a run across arbitrary Step/Run
// installments — at any parallelism degree — produces exactly the
// Result of a one-shot Discover, including the iteration count and the
// full accuracy/dependence/independence trajectories.
func TestEngineResumeBitIdenticalToDiscover(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	methods := []Method{MethodDATE, MethodNC, MethodED, MethodMV}
	for trial := 0; trial < 25; trial++ {
		ds := randomDataset(rng)
		for _, m := range methods {
			for _, par := range []int{1, 2, 0} {
				opt := DefaultOptions()
				opt.Parallelism = par
				want, err := Discover(ds, m, opt)
				if err != nil {
					t.Fatalf("trial %d %v par=%d: %v", trial, m, par, err)
				}
				e, err := NewEngine(ds, m, opt)
				if err != nil {
					t.Fatalf("trial %d %v par=%d: %v", trial, m, par, err)
				}
				runResumed(e, rng)
				requireIdenticalResults(t,
					fmt.Sprintf("trial %d %v par=%d", trial, m, par),
					want, e.Result())
			}
		}
	}
}

// TestTracedAndUntracedRunsIdentical pins the unified loop body: a
// Trace observes the run but must not change it. Traced and untraced
// runs return identical Results — truth, matrices, Iterations, and
// Converged — and the recorder's accounting agrees with the Result.
func TestTracedAndUntracedRunsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		ds := randomDataset(rng)
		for _, m := range []Method{MethodDATE, MethodNC, MethodED} {
			plain, err := Discover(ds, m, DefaultOptions())
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, m, err)
			}
			rec := &recorder{}
			opt := DefaultOptions()
			opt.Trace = rec
			traced, err := Discover(ds, m, opt)
			if err != nil {
				t.Fatalf("trial %d %v traced: %v", trial, m, err)
			}
			requireIdenticalResults(t, fmt.Sprintf("trial %d %v traced-vs-untraced", trial, m), plain, traced)
			if len(rec.Iterations) != traced.Iterations {
				t.Fatalf("trial %d %v: recorder saw %d iterations, result says %d",
					trial, m, len(rec.Iterations), traced.Iterations)
			}
			last := rec.Iterations[len(rec.Iterations)-1]
			if last.Converged != traced.Converged {
				t.Fatalf("trial %d %v: recorder converged=%v, result converged=%v",
					trial, m, last.Converged, traced.Converged)
			}
			if traced.Converged && last.Changed != 0 {
				t.Fatalf("trial %d %v: converged run's final delta = %d, want 0", trial, m, last.Changed)
			}
		}
	}
}

// TestEngineSetTraceMidRun resumes a paused, untraced engine under a
// recorder: the result must still match a straight run, and the
// recorder must see exactly the resumed iterations with the original
// numbering.
func TestEngineSetTraceMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var ds *model.Dataset
	var want *Result
	// Find a dataset that needs at least 3 iterations so the pause point
	// is interior.
	for {
		ds = randomDataset(rng)
		var err error
		want, err = Discover(ds, MethodDATE, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if want.Iterations >= 3 {
			break
		}
	}
	e, err := NewEngine(ds, MethodDATE, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	rec := &recorder{}
	e.SetTrace(rec)
	e.Run(0)
	requireIdenticalResults(t, "resume under trace", want, e.Result())
	if len(rec.Iterations) != want.Iterations-2 {
		t.Fatalf("recorder saw %d iterations, want %d", len(rec.Iterations), want.Iterations-2)
	}
	if first := rec.Iterations[0].Iteration; first != 3 {
		t.Fatalf("resumed numbering starts at %d, want 3", first)
	}
}

// TestEngineStepAfterDoneIsNoOp: a finished engine must refuse further
// work without perturbing its result.
func TestEngineStepAfterDoneIsNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := randomDataset(rng)
	for _, m := range []Method{MethodDATE, MethodMV} {
		e, err := NewEngine(ds, m, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		e.Run(0)
		before := e.Iterations()
		changed, done := e.Step()
		if changed != 0 || !done {
			t.Fatalf("%v: Step after done = (%d, %v)", m, changed, done)
		}
		if e.Iterations() != before {
			t.Fatalf("%v: Step after done advanced iterations %d → %d", m, before, e.Iterations())
		}
	}
}

// TestEngineMaxIterationsBudget: an engine capped below convergence
// stops at the cap and reports done — matching Discover under the same
// cap.
func TestEngineMaxIterationsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 10; trial++ {
		ds := randomDataset(rng)
		opt := DefaultOptions()
		opt.MaxIterations = 1
		want, err := Discover(ds, MethodDATE, opt)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(ds, MethodDATE, opt)
		if err != nil {
			t.Fatal(err)
		}
		if e.Done() {
			t.Fatal("fresh engine reports done")
		}
		e.Step()
		if !e.Done() || e.Iterations() != 1 {
			t.Fatalf("after cap: done=%v iterations=%d", e.Done(), e.Iterations())
		}
		requireIdenticalResults(t, "capped run", want, e.Result())
	}
}

// TestArgmaxValueLowestIndexTieBreak pins the documented tie-break:
// equal supports elect the lowest index, i.e. the first-appearing
// value, at both the unit level and through a full Discover.
func TestArgmaxValueLowestIndexTieBreak(t *testing.T) {
	cases := []struct {
		support []float64
		want    int32
	}{
		{[]float64{1, 1}, 0},
		{[]float64{2, 3, 3}, 1},
		{[]float64{0, 0, 0, 0}, 0},
		{[]float64{5}, 0},
		{[]float64{1, 2, 2, 3, 3}, 3},
	}
	for _, c := range cases {
		if got := argmaxValue(c.support); got != c.want {
			t.Errorf("argmaxValue(%v) = %d, want %d", c.support, got, c.want)
		}
	}

	// Dataset-level: two values with perfectly symmetric support. The
	// value observed first ("first") must win under every method.
	b := model.NewBuilder()
	b.AddTask(model.Task{ID: "t", NumFalse: 1, Requirement: 1, Value: 5})
	b.AddObservation("w0", "t", "first")
	b.AddObservation("w1", "t", "second")
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodMV, MethodNC, MethodDATE, MethodED} {
		res, err := Discover(ds, m, DefaultOptions())
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got := res.TruthMap(ds)["t"]; got != "first" {
			t.Errorf("%v broke the tie toward %q, want the first-appearing value", m, got)
		}
	}
}

// TestEngineValidation: engine construction enforces the same
// preconditions as Discover.
func TestEngineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := randomDataset(rng)
	if _, err := NewEngine(nil, MethodDATE, DefaultOptions()); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := NewEngine(ds, Method(99), DefaultOptions()); err == nil {
		t.Error("unknown method accepted")
	}
	bad := DefaultOptions()
	bad.CopyProb = 2
	if _, err := NewEngine(ds, MethodDATE, bad); err == nil {
		t.Error("invalid options accepted")
	}
}
