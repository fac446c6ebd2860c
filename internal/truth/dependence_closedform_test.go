package truth

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"imc2/internal/gen"
	"imc2/internal/model"
	"imc2/internal/randx"
)

// oracleDataset builds a random sparse dataset for the oracle tests:
// mixed false-domain sizes (several agreement classes), low-density
// tasks that end up with a single provider, and worker/task groups that
// never meet, so cross-group pairs never co-observe. Values are drawn
// from v0…v<nValues-1>.
func oracleDataset(rng *rand.Rand, nValues int) *model.Dataset {
	n, m := 2+rng.Intn(30), 1+rng.Intn(40)
	groups := 1 + rng.Intn(3)
	density := 0.05 + 0.6*rng.Float64()
	b := model.NewBuilder()
	for j := 0; j < m; j++ {
		b.AddTask(model.Task{ID: fmt.Sprintf("t%d", j), NumFalse: 1 + rng.Intn(4), Requirement: 1, Value: 5})
	}
	b.AddObservation("w0", "t0", "v0")
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if (i == 0 && j == 0) || i%groups != j%groups || rng.Float64() >= density {
				continue
			}
			b.AddObservation(fmt.Sprintf("w%d", i), fmt.Sprintf("t%d", j), fmt.Sprintf("v%d", rng.Intn(nValues)))
		}
	}
	ds, err := b.Build()
	if err != nil {
		panic(err)
	}
	return ds
}

// randomizeState moves the inputs of the dependence pass to an arbitrary
// point: accuracies anywhere in [0, 1] (clamped inside the pass) and any
// provided value as each task's truth.
func randomizeState(rng *rand.Rand, s *state) {
	for i := range s.accW {
		switch rng.Intn(10) {
		case 0:
			s.accW[i] = 0
		case 1:
			s.accW[i] = 1
		default:
			s.accW[i] = rng.Float64()
		}
	}
	for j := range s.truth {
		if v := len(s.ds.Values(j)); v > 0 {
			s.truth[j] = int32(rng.Intn(v))
		}
	}
}

// coObserved reports, per ordered worker pair, whether the two answered
// a common task.
func coObserved(ds *model.Dataset) [][]bool {
	n := ds.NumWorkers()
	co := make([][]bool, n)
	for i := range co {
		co[i] = make([]bool, n)
	}
	for j := 0; j < ds.NumTasks(); j++ {
		ws := ds.TaskWorkers(j)
		for a := range ws {
			for b := a + 1; b < len(ws); b++ {
				co[ws[a]][ws[b]], co[ws[b]][ws[a]] = true, true
			}
		}
	}
	return co
}

// passCoverage counts the oracle-test situations a trial exercised.
type passCoverage struct {
	multiClass, singletonTasks, priorPairs, coPairs int
}

// checkPassAgainstOracle runs computeDependence and the old per-task pass
// from the same state and compares them: co-observed cells within 1e-10,
// pairs that share no task bit-identical (both are the exact prior), the
// diagonal zero, and the ordering-seed totals within 1e-8.
func checkPassAgainstOracle(t *testing.T, label string, s *state, cov *passCoverage) {
	t.Helper()
	s.computeDependence()
	got := newZeroMatrix(s.n, s.n)
	for i := range got {
		copy(got[i], s.dep[i])
	}
	gotTotal := append([]float64(nil), s.totalDep...)
	oracleComputeDependence(s)

	co := coObserved(s.ds)
	for i := 0; i < s.n; i++ {
		for k := 0; k < s.n; k++ {
			g, w := got[i][k], s.dep[i][k]
			switch {
			case i == k:
				if g != 0 {
					t.Fatalf("%s: dep[%d][%d] = %v, want 0", label, i, k, g)
				}
			case !co[i][k]:
				cov.priorPairs++
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: never co-observed dep[%d][%d] = %v, oracle %v (must be bit-identical)", label, i, k, g, w)
				}
			default:
				cov.coPairs++
				if math.Abs(g-w) > 1e-10 || math.IsNaN(g) {
					t.Fatalf("%s: dep[%d][%d] = %.17g, oracle %.17g (|Δ| %.3g > 1e-10)", label, i, k, g, w, math.Abs(g-w))
				}
			}
		}
		if math.Abs(gotTotal[i]-s.totalDep[i]) > 1e-8 {
			t.Fatalf("%s: totalDep[%d] = %.17g, oracle %.17g", label, i, gotTotal[i], s.totalDep[i])
		}
	}
	if len(s.depIx.agree) > 1 {
		cov.multiClass++
	}
	for j := 0; j < s.m; j++ {
		if len(s.ds.TaskWorkers(j)) == 1 {
			cov.singletonTasks++
		}
	}
}

// runOracleTrials drives checkPassAgainstOracle over random datasets and
// options, three randomized states per engine so the count rows and
// caches are reused across passes.
func runOracleTrials(t *testing.T, seed int64, trials, nValues int) passCoverage {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var cov passCoverage
	for trial := 0; trial < trials; trial++ {
		ds := oracleDataset(rng, nValues)
		opt := DefaultOptions()
		opt.CopyProb = 0.05 + 0.9*rng.Float64()
		opt.PriorDependence = 0.01 + 0.5*rng.Float64()
		opt.Parallelism = 1 + rng.Intn(4)
		if rng.Intn(2) == 0 {
			opt.FalseValues = ZipfFalse{S: 1.3}
		}
		s := newState(ds, opt, opt.falseModelOrUniform())
		s.dep = newFilledMatrix(s.n, s.n, opt.PriorDependence)
		s.totalDep = make([]float64, s.n)
		for round := 0; round < 3; round++ {
			randomizeState(rng, s)
			checkPassAgainstOracle(t, fmt.Sprintf("trial %d round %d", trial, round), s, &cov)
		}
	}
	return cov
}

func requireCoverage(t *testing.T, cov passCoverage) {
	t.Helper()
	if cov.multiClass == 0 || cov.singletonTasks == 0 || cov.priorPairs == 0 || cov.coPairs == 0 {
		t.Fatalf("trials missed a case: %+v", cov)
	}
}

// TestDependenceMatchesOracle checks one closed-form pass against the old
// per-task pass from identical states on random datasets.
func TestDependenceMatchesOracle(t *testing.T) {
	requireCoverage(t, runOracleTrials(t, 11, 300, 4))
}

// requireRunsAgree compares a full DATE run against the oracle run: the
// same truth vector, iteration count and convergence, and every
// dependence posterior and accuracy within 1e-4. Independence is not
// compared cell by cell: eq. 16's greedy order starts from the provider
// with the least total dependence, and two copiers of one source tie up
// to the last bits, so a last-bit change can swap which of them counts
// as the original (I ≈ 1 against I ≈ 0) without moving the truth.
func requireRunsAgree(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("iterations/converged %d/%v, oracle %d/%v", got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	for j := range want.Truth {
		if got.Truth[j] != want.Truth[j] {
			t.Fatalf("truth[%d] = %d, oracle %d", j, got.Truth[j], want.Truth[j])
		}
	}
	for _, m := range []struct {
		name      string
		got, want [][]float64
	}{
		{"dependence", got.Dependence, want.Dependence},
		{"accuracy", got.Accuracy, want.Accuracy},
	} {
		worst := 0.0
		for i := range m.want {
			for k := range m.want[i] {
				worst = max(worst, math.Abs(m.got[i][k]-m.want[i][k]))
			}
		}
		if worst > 1e-4 {
			t.Fatalf("%s: max |Δ| %.3g > 1e-4", m.name, worst)
		}
		t.Logf("%s: max |Δ| %.3g", m.name, worst)
	}
}

// discoverAgainstOracle generates a campaign and runs DATE with
// platformd's settle options (r=0.8, α=0.05, MaxIterations 100) through
// both passes.
func discoverAgainstOracle(t *testing.T, spec gen.CampaignSpec, seed int64) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-scale oracle run")
	}
	c, err := gen.NewCampaign(spec, randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.CopyProb = 0.8
	opt.PriorDependence = 0.05
	got, err := Discover(c.Dataset, MethodDATE, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleDiscover(c.Dataset, opt)
	t.Logf("%d iterations", want.Iterations)
	requireRunsAgree(t, got, want)
}

// TestDiscoverMatchesOracleFig5 is the full-run check at fig5 scale:
// 400 workers (100 copiers) × 2000 tasks, 500 answers per worker.
func TestDiscoverMatchesOracleFig5(t *testing.T) {
	spec := gen.DefaultSpec()
	spec.Workers, spec.Tasks, spec.Copiers = 400, 2000, 100
	spec.TasksPerWorker = 500
	spec.ParticipationDecay = 0.3
	spec.RequirementLow, spec.RequirementHigh = 1, 2
	discoverAgainstOracle(t, spec, 5)
}

// TestDiscoverMatchesOracleSparse is the full-run check on the sparse
// shape where DATE needs dozens of iterations: 800 workers (160 copiers)
// × 2000 tasks, 20 answers per worker, at least 4 providers per task.
func TestDiscoverMatchesOracleSparse(t *testing.T) {
	spec := gen.DefaultSpec()
	spec.Workers, spec.Tasks, spec.Copiers = 800, 2000, 160
	spec.TasksPerWorker = 20
	spec.MinProvidersPerTask = 4
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	discoverAgainstOracle(t, spec, 5)
}
