package truth

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"imc2/internal/gen"
	"imc2/internal/model"
	"imc2/internal/randx"
)

// The pair table must reproduce the row pass (rowPassDependence) bit for
// bit: the same integer tuples, the same closed form per cell and the
// same k-order Kahan sums. These tests hold it to that after every pass,
// on arbitrary states and along real runs.

// syncPath names what the next computeDependence does to the table:
// "build", "index" (count and intern every pair), "none" (no truth
// moved) or "move" (per-pair tuple moves), mirroring pairTable.sync.
func syncPath(s *state) string {
	pt := s.pairs
	switch {
	case pt == nil:
		return "build"
	case pt.upOff == nil:
		return "index"
	case slices.Equal(s.truth, pt.counted):
		return "none"
	}
	return "move"
}

// sameBits fails unless two float matrices are bitwise equal.
func sameBits(t *testing.T, label, name string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s has %d rows, oracle %d", label, name, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: %s row %d has %d cells, oracle %d", label, name, i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
				t.Fatalf("%s: %s[%d][%d] = %.17g, oracle %.17g", label, name, i, k, got[i][k], want[i][k])
			}
		}
	}
}

// requireSameState compares everything one iteration leaves behind:
// dependence, the ordering totals, truth, both accuracy forms (the
// per-worker A_i and the per-observation A_i^j, one cell per answered
// task) and independence.
func requireSameState(t *testing.T, label string, got, want *state) {
	t.Helper()
	sameBits(t, label, "dep", got.dep, want.dep)
	sameBits(t, label, "totalDep", [][]float64{got.totalDep}, [][]float64{want.totalDep})
	for j := range want.truth {
		if got.truth[j] != want.truth[j] {
			t.Fatalf("%s: truth[%d] = %d, oracle %d", label, j, got.truth[j], want.truth[j])
		}
	}
	sameBits(t, label, "accW", [][]float64{got.accW}, [][]float64{want.accW})
	for i, row := range got.acc {
		if len(row) != len(got.ds.WorkerTasks(i)) {
			t.Fatalf("%s: accuracy row %d has %d cells, want one per answered task (%d)", label, i, len(row), len(got.ds.WorkerTasks(i)))
		}
	}
	sameBits(t, label, "accuracy", got.acc, want.acc)
	sameBits(t, label, "independence", got.indep, want.indep)
}

// oracleState is a state positioned like a fresh engine's.
func oracleState(ds *model.Dataset, opt Options) *state {
	o := newState(ds, opt, opt.falseModelOrUniform())
	o.dep = newFilledMatrix(o.n, o.n, opt.PriorDependence)
	o.totalDep = make([]float64, o.n)
	return o
}

// lockstepAgainstRowPass steps an engine and a row-pass state side by
// side and requires bitwise-equal states after every iteration. It
// returns how often each table path ran.
func lockstepAgainstRowPass(t *testing.T, label string, ds *model.Dataset, method Method, opt Options) map[string]int {
	t.Helper()
	e, err := NewEngine(ds, method, opt)
	if err != nil {
		t.Fatal(err)
	}
	o := oracleState(ds, opt)
	prev := make([]int32, o.m)
	paths := map[string]int{}
	for !e.Done() {
		paths[syncPath(e.s)]++
		changed, _ := e.Step()
		copy(prev, o.truth)
		rowPassDependence(o)
		o.computeIndependence(method == MethodED)
		o.estimate()
		it := fmt.Sprintf("%siteration %d", label, e.Iterations())
		requireSameState(t, it, e.s, o)
		if want := countChanged(prev, o.truth); changed != want {
			t.Fatalf("%s: %d truths changed, oracle %d", it, changed, want)
		}
	}
	return paths
}

// reducedShapes are perfbench's fig5 and sparse-gb campaigns at a quarter
// of the workers and tasks, with the same answers per worker.
func reducedShapes() []struct {
	name string
	spec gen.CampaignSpec
} {
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
	return []struct {
		name string
		spec gen.CampaignSpec
	}{{"fig5", fig5}, {"sparse", sparse}}
}

// TestDependencePairTableLockstepOracle runs DATE and ED through the
// pair table and through the row pass in lockstep, at parallelism 1, 2
// and 0 (GOMAXPROCS), and requires every iteration to agree bit for
// bit: DATE on the paper's fixtures and on reduced generator campaigns,
// ED on the fixtures. ED's dependence pass is DATE's; only its
// independence pass differs, and its 720 sampled orderings per large
// group would make the reduced campaigns' runs dominate the test.
func TestDependencePairTableLockstepOracle(t *testing.T) {
	type run struct {
		name   string
		ds     *model.Dataset
		method Method
	}
	t1, _ := table1Dataset(t)
	cop, _ := copierScenario(t, 8, 4, 60)
	runs := []run{
		{"table1/DATE", t1, MethodDATE},
		{"table1/ED", t1, MethodED},
		{"copiers/DATE", cop, MethodDATE},
		{"copiers/ED", cop, MethodED},
	}
	for _, shape := range reducedShapes() {
		for _, seed := range []int64{1, 5, 9} {
			c, err := gen.NewCampaign(shape.spec, randx.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run{fmt.Sprintf("%s/seed=%d/DATE", shape.name, seed), c.Dataset, MethodDATE})
		}
	}
	paths := map[string]int{}
	for _, r := range runs {
		for _, par := range []int{1, 2, 0} {
			t.Run(fmt.Sprintf("%s/par=%d", r.name, par), func(t *testing.T) {
				opt := DefaultOptions()
				opt.CopyProb = 0.8
				opt.PriorDependence = 0.05
				opt.Parallelism = par
				for p, n := range lockstepAgainstRowPass(t, "", r.ds, r.method, opt) {
					paths[p] += n
				}
			})
		}
	}
	for _, p := range []string{"build", "index", "move"} {
		if paths[p] == 0 {
			t.Fatalf("runs missed table path %q: %v", p, paths)
		}
	}
	t.Logf("table paths: %v", paths)
}

// passAgainstRowPass runs one pair-table pass on s and the row pass on a
// copy of s's inputs, and requires bitwise-equal dep and totalDep.
func passAgainstRowPass(t *testing.T, label string, s, o *state) {
	t.Helper()
	copy(o.accW, s.accW)
	copy(o.truth, s.truth)
	s.computeDependence()
	rowPassDependence(o)
	sameBits(t, label, "dep", s.dep, o.dep)
	sameBits(t, label, "totalDep", [][]float64{s.totalDep}, [][]float64{o.totalDep})
}

// TestDependencePairTableRandomStatesOracle moves the pass's inputs to
// arbitrary points between passes — random accuracies, and the truth of
// none, one, a few or every task moved to any provided value — so the
// table's tuple moves, for any number of moved tasks, run against the
// row pass.
func TestDependencePairTableRandomStatesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	paths := map[string]int{}
	for trial := 0; trial < 200; trial++ {
		ds := oracleDataset(rng, 4+2*(trial%2))
		opt := DefaultOptions()
		opt.CopyProb = 0.05 + 0.9*rng.Float64()
		opt.PriorDependence = 0.01 + 0.5*rng.Float64()
		opt.Parallelism = 1 + rng.Intn(4)
		s, o := oracleState(ds, opt), oracleState(ds, opt)
		for round := 0; round < 6; round++ {
			randomizeState(rng, o) // random accuracies and a random truth
			copy(s.accW, o.accW)
			var moved int
			switch round % 3 {
			case 0:
				moved = s.m
			case 1:
				moved = min(rng.Intn(3), s.m)
			default:
				moved = rng.Intn(s.m + 1)
			}
			for _, j := range rng.Perm(s.m)[:moved] {
				s.truth[j] = o.truth[j]
			}
			paths[syncPath(s)]++
			passAgainstRowPass(t, fmt.Sprintf("trial %d round %d", trial, round), s, o)
		}
	}
	for _, p := range []string{"build", "index", "none", "move"} {
		if paths[p] == 0 {
			t.Fatalf("trials missed table path %q: %v", p, paths)
		}
	}
}

// TestDependencePairTableFlipABAOracle flips one task's truth A→B→A→B→A,
// so the table is indexed at the first flip and every later flip is
// applied as tuple moves, and checks every pass against the row pass.
// A third value on the flipped task stays same-false throughout.
func TestDependencePairTableFlipABAOracle(t *testing.T) {
	b := model.NewBuilder()
	for j := 0; j < 12; j++ {
		b.AddTask(model.Task{ID: fmt.Sprintf("t%d", j), NumFalse: 1 + j%3, Requirement: 1, Value: 5})
	}
	// Task t0: workers 0–3 say v0 ("A"), 4–6 say v2 ("B"), 7 says v1.
	for i := 0; i < 8; i++ {
		v := "v0"
		switch {
		case i >= 4 && i < 7:
			v = "v2"
		case i == 7:
			v = "v1"
		}
		b.AddObservation(fmt.Sprintf("w%d", i), "t0", v)
	}
	// Tasks t1–t11: every worker answers, agreeing in overlapping blocks.
	for j := 1; j < 12; j++ {
		for i := 0; i < 8; i++ {
			b.AddObservation(fmt.Sprintf("w%d", i), fmt.Sprintf("t%d", j), fmt.Sprintf("v%d", (i+j)/3%4))
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, bv := valueIndex(t, ds, 0, "v0"), valueIndex(t, ds, 0, "v2")
	opt := DefaultOptions()
	s, o := oracleState(ds, opt), oracleState(ds, opt)
	rng := rand.New(rand.NewSource(23))
	for step, et := range []int32{a, bv, a, bv, a} {
		for i := range s.accW {
			s.accW[i] = rng.Float64()
		}
		s.truth[0] = et
		want := []string{"build", "index", "move", "move", "move"}[step]
		if path := syncPath(s); path != want {
			t.Fatalf("step %d: table path %q, want %q", step, path, want)
		}
		passAgainstRowPass(t, fmt.Sprintf("step %d", step), s, o)
	}
}

// valueIndex resolves a value string of task j.
func valueIndex(t *testing.T, ds *model.Dataset, j int, v string) int32 {
	t.Helper()
	for x, s := range ds.Values(j) {
		if s == v {
			return int32(x)
		}
	}
	t.Fatalf("task %d has no value %q", j, v)
	return 0
}

// workCounter records the dependence counters of a traced run.
type workCounter struct{ its []IterationStats }

func (w *workCounter) ObserveIteration(it IterationStats) { w.its = append(w.its, it) }

// TestTraceCountsDependenceWork pins the trace's dependence counters
// against brute force: SharingPairs is the number of worker pairs that
// share a value on a co-observed task, a pass that counts every pair
// evaluates both directions of each, and a pass that moves tuples
// evaluates one sigmoid per distinct (worker, tuple).
func TestTraceCountsDependenceWork(t *testing.T) {
	shape := reducedShapes()[1].spec
	c, err := gen.NewCampaign(shape, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.CopyProb = 0.8
	opt.PriorDependence = 0.05
	opt.MaxIterations = 12
	w := &workCounter{}
	opt.Trace = w
	e, err := NewEngine(c.Dataset, MethodDATE, opt)
	if err != nil {
		t.Fatal(err)
	}
	moves := 0
	for !e.Done() {
		path := syncPath(e.s)
		pairs, distinct := bruteDependenceWork(e.s)
		e.Step()
		it := w.its[len(w.its)-1]
		if it.SharingPairs != pairs {
			t.Fatalf("iteration %d: SharingPairs %d, brute force %d", it.Iteration, it.SharingPairs, pairs)
		}
		want := 2 * pairs
		if path == "index" || path == "move" || path == "none" {
			want = distinct
			moves++
		}
		if it.Sigmoids != want {
			t.Fatalf("iteration %d (%s): Sigmoids %d, want %d", it.Iteration, path, it.Sigmoids, want)
		}
	}
	if moves == 0 || w.its[0].Sigmoids <= w.its[1].Sigmoids {
		t.Fatalf("no tuple-moving pass, or it evaluated no fewer sigmoids: %+v", w.its[:2])
	}
}

// bruteDependenceWork counts, under s's current truth, the pairs that
// share a value and the distinct (worker, tuple) combinations among them.
func bruteDependenceWork(s *state) (pairs, distinct int) {
	ix := s.depIndex()
	w := 2 + len(ix.agree)
	cnt := make([]int32, s.n*w)
	seen := map[string]bool{}
	for i := 0; i < s.n; i++ {
		s.countRow(ix, i, cnt)
		for k := i + 1; k < s.n; k++ {
			c := cnt[k*w : (k+1)*w]
			if !sharesValue(c) {
				continue
			}
			pairs++
			seen[fmt.Sprint(i, c)] = true
			seen[fmt.Sprint(k, c)] = true
		}
	}
	return pairs, len(seen)
}
