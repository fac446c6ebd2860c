package truth

import (
	"math"
	"testing"

	"imc2/internal/model"
)

func mustDiscover(t *testing.T, ds *model.Dataset, m Method, opt Options) *Result {
	t.Helper()
	res, err := Discover(ds, m, opt)
	if err != nil {
		t.Fatalf("Discover(%v): %v", m, err)
	}
	return res
}

func TestDiscoverValidation(t *testing.T) {
	ds, _ := table1Dataset(t)
	if _, err := Discover(nil, MethodDATE, DefaultOptions()); err == nil {
		t.Error("nil dataset accepted")
	}
	bad := DefaultOptions()
	bad.CopyProb = 0
	if _, err := Discover(ds, MethodDATE, bad); err == nil {
		t.Error("invalid options accepted")
	}
	if _, err := Discover(ds, Method(42), DefaultOptions()); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestMajorityVoteTable1(t *testing.T) {
	ds, truth := table1Dataset(t)
	res := mustDiscover(t, ds, MethodMV, DefaultOptions())
	est := res.TruthMap(ds)
	// Voting elects the copied false majorities for Carey and Halevy.
	if est["Carey"] != "BEA" {
		t.Errorf("MV Carey = %q, want BEA (copied majority)", est["Carey"])
	}
	if est["Halevy"] != "UW" {
		t.Errorf("MV Halevy = %q, want UW (copied majority)", est["Halevy"])
	}
	if est["Bernstein"] != "MSR" {
		t.Errorf("MV Bernstein = %q, want MSR", est["Bernstein"])
	}
	if p := precisionOf(t, ds, res, truth); p > 0.6+1e-9 {
		t.Errorf("MV precision = %v, expected <= 3/5 on Table 1", p)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Errorf("MV should converge in one pass, got %d/%v", res.Iterations, res.Converged)
	}
}

func TestDATETable1DetectsDependence(t *testing.T) {
	ds, truth := table1Dataset(t)
	opt := DefaultOptions()
	opt.CopyProb = 0.8 // the Table-1 copiers copy nearly everything
	res := mustDiscover(t, ds, MethodDATE, opt)

	mv := mustDiscover(t, ds, MethodMV, DefaultOptions())
	if pd, pm := precisionOf(t, ds, res, truth), precisionOf(t, ds, mv, truth); pd < pm {
		t.Errorf("DATE precision %v below MV %v on Table 1", pd, pm)
	}

	// The copier trio must look more dependent than the honest pair.
	idx := func(w string) int {
		i, ok := ds.WorkerIndex(w)
		if !ok {
			t.Fatalf("worker %q missing", w)
		}
		return i
	}
	pair := func(a, b string) float64 {
		return res.Dependence[idx(a)][idx(b)] + res.Dependence[idx(b)][idx(a)]
	}
	if copiers, honest := pair("w4", "w5"), pair("w1", "w2"); copiers <= honest {
		t.Errorf("dependence(w4,w5) = %v not above dependence(w1,w2) = %v", copiers, honest)
	}
}

func TestDATEBeatsVotingWithCopiers(t *testing.T) {
	ds, truth := copierScenario(t, 6, 4, 40)
	opt := DefaultOptions()

	date := mustDiscover(t, ds, MethodDATE, opt)
	mv := mustDiscover(t, ds, MethodMV, opt)
	nc := mustDiscover(t, ds, MethodNC, opt)

	pd := precisionOf(t, ds, date, truth)
	pm := precisionOf(t, ds, mv, truth)
	pn := precisionOf(t, ds, nc, truth)

	if pm >= 0.95 {
		t.Fatalf("scenario too easy: MV precision %v", pm)
	}
	if pd <= pm {
		t.Errorf("DATE precision %v not above MV %v", pd, pm)
	}
	if pd <= pn {
		t.Errorf("DATE precision %v not above NC %v", pd, pn)
	}
	if pd < 0.9 {
		t.Errorf("DATE precision %v below 0.9 on the copier scenario", pd)
	}
}

func TestDATEIdentifiesCopierDirectionality(t *testing.T) {
	ds, _ := copierScenario(t, 6, 4, 40)
	res := mustDiscover(t, ds, MethodDATE, DefaultOptions())

	h0, _ := ds.WorkerIndex("h00")
	c0, _ := ds.WorkerIndex("c00")
	h3, _ := ds.WorkerIndex("h03")

	depCopier := res.Dependence[c0][h0] + res.Dependence[h0][c0]
	depHonest := res.Dependence[h3][h0] + res.Dependence[h0][h3]
	if depCopier <= depHonest {
		t.Errorf("copier pair dependence %v not above honest pair %v", depCopier, depHonest)
	}
	if depCopier < 0.5 {
		t.Errorf("copier pair dependence %v too weak", depCopier)
	}
}

func TestDATECopiersGetDiscounted(t *testing.T) {
	ds, _ := copierScenario(t, 6, 4, 40)
	res := mustDiscover(t, ds, MethodDATE, DefaultOptions())

	c0, _ := ds.WorkerIndex("c00")
	h3, _ := ds.WorkerIndex("h03")
	mean := res.MeanIndependence(ds)
	if ic, ih := mean[c0], mean[h3]; ic >= ih {
		t.Errorf("copier mean independence %v not below honest %v", ic, ih)
	}
}

func TestDATEConvergesOnCleanData(t *testing.T) {
	ds, truth := copierScenario(t, 8, 0, 30)
	res := mustDiscover(t, ds, MethodDATE, DefaultOptions())
	if !res.Converged {
		t.Error("DATE did not converge on clean data")
	}
	if res.Iterations >= DefaultOptions().MaxIterations {
		t.Errorf("DATE took %d iterations", res.Iterations)
	}
	if p := precisionOf(t, ds, res, truth); p < 0.95 {
		t.Errorf("DATE precision on clean data = %v", p)
	}
}

func TestResultInvariants(t *testing.T) {
	ds, _ := copierScenario(t, 5, 3, 25)
	for _, method := range []Method{MethodDATE, MethodMV, MethodNC, MethodED} {
		t.Run(method.String(), func(t *testing.T) {
			res := mustDiscover(t, ds, method, DefaultOptions())
			if len(res.Truth) != ds.NumTasks() {
				t.Fatalf("truth length %d != tasks %d", len(res.Truth), ds.NumTasks())
			}
			for j, v := range res.Truth {
				if v == model.NotAnswered {
					continue
				}
				if int(v) < 0 || int(v) >= len(ds.Values(j)) {
					t.Fatalf("truth[%d] = %d out of range", j, v)
				}
			}
			if len(res.TaskIndependence) != ds.NumTasks() {
				t.Fatalf("independence has %d task rows, want %d", len(res.TaskIndependence), ds.NumTasks())
			}
			for j, row := range res.TaskIndependence {
				if len(row) != len(ds.TaskWorkers(j)) {
					t.Fatalf("independence row %d has %d cells for %d providers", j, len(row), len(ds.TaskWorkers(j)))
				}
				for b, in := range row {
					if in < 0 || in > 1 || math.IsNaN(in) {
						t.Fatalf("independence[%d][%d] = %v out of [0,1]", j, b, in)
					}
				}
			}
			if len(res.Accuracy) != ds.NumWorkers() {
				t.Fatalf("accuracy has %d worker rows, want %d", len(res.Accuracy), ds.NumWorkers())
			}
			for i, row := range res.Accuracy {
				if len(row) != len(ds.WorkerTasks(i)) {
					t.Fatalf("accuracy row %d has %d cells for %d answered tasks", i, len(row), len(ds.WorkerTasks(i)))
				}
				for t2, a := range row {
					if a < 0 || a > 1 || math.IsNaN(a) {
						t.Fatalf("accuracy[%d][%d] = %v out of [0,1]", i, t2, a)
					}
				}
			}
			if res.Dependence != nil {
				for i := range res.Dependence {
					for k, d := range res.Dependence[i] {
						if d < 0 || d > 1 || math.IsNaN(d) {
							t.Fatalf("dependence[%d][%d] = %v out of [0,1]", i, k, d)
						}
					}
					if res.Dependence[i][i] != 0 {
						t.Fatalf("self-dependence[%d] = %v", i, res.Dependence[i][i])
					}
				}
			}
		})
	}
}

func TestDATEDeterministic(t *testing.T) {
	ds, _ := copierScenario(t, 6, 4, 40)
	a := mustDiscover(t, ds, MethodDATE, DefaultOptions())
	b := mustDiscover(t, ds, MethodDATE, DefaultOptions())
	for j := range a.Truth {
		if a.Truth[j] != b.Truth[j] {
			t.Fatalf("truth differs at task %d between identical runs", j)
		}
	}
	if a.Iterations != b.Iterations {
		t.Fatalf("iterations differ: %d vs %d", a.Iterations, b.Iterations)
	}
}

func TestEDDeterministicAndComparable(t *testing.T) {
	ds, truth := copierScenario(t, 6, 4, 40)
	a := mustDiscover(t, ds, MethodED, DefaultOptions())
	b := mustDiscover(t, ds, MethodED, DefaultOptions())
	for j := range a.Truth {
		if a.Truth[j] != b.Truth[j] {
			t.Fatalf("ED truth differs at task %d between identical runs", j)
		}
	}
	pe := precisionOf(t, ds, a, truth)
	pm := precisionOf(t, ds, mustDiscover(t, ds, MethodMV, DefaultOptions()), truth)
	if pe <= pm {
		t.Errorf("ED precision %v not above MV %v", pe, pm)
	}
}

func TestNCMatchesDATEWithoutCopiers(t *testing.T) {
	// With no copiers both methods should be near-perfect; NC and DATE may
	// differ slightly but both must recover the truth.
	ds, truth := copierScenario(t, 9, 0, 30)
	nc := mustDiscover(t, ds, MethodNC, DefaultOptions())
	date := mustDiscover(t, ds, MethodDATE, DefaultOptions())
	if p := precisionOf(t, ds, nc, truth); p < 0.95 {
		t.Errorf("NC precision = %v on copier-free data", p)
	}
	if p := precisionOf(t, ds, date, truth); p < 0.95 {
		t.Errorf("DATE precision = %v on copier-free data", p)
	}
}

func TestWorkerAccuracyRanksHonestAboveCopier(t *testing.T) {
	ds, _ := copierScenario(t, 6, 4, 40)
	res := mustDiscover(t, ds, MethodDATE, DefaultOptions())
	acc := res.WorkerAccuracy(ds)
	h1, _ := ds.WorkerIndex("h01")
	c0, _ := ds.WorkerIndex("c00")
	// h01 errs on 8 of 40 tasks; c00 replicates h00's errors on most tasks.
	// After discounting, the honest non-template worker should not rank
	// below the copier by much; both must be in (0, 1).
	for _, i := range []int{h1, c0} {
		if acc[i] <= 0 || acc[i] >= 1 {
			t.Fatalf("worker accuracy %v outside (0,1)", acc[i])
		}
	}
	if len(acc) != ds.NumWorkers() {
		t.Fatalf("accuracy vector length %d", len(acc))
	}
}

func TestSimilarityExtensionMergesPresentations(t *testing.T) {
	// Split support: the true answer appears as two spellings (3+2
	// providers), a false answer has 4 providers. Plain voting elects the
	// false answer; similarity-aware support merges the spellings.
	b := model.NewBuilder()
	b.AddTask(model.Task{ID: "t", NumFalse: 3, Requirement: 1, Value: 5})
	for i, val := range []string{
		"Information Technology", "Information Technology", "Information Technology",
		"InformationTechnology", "InformationTechnology",
		"Biology", "Biology", "Biology", "Biology",
	} {
		b.AddObservation(workerName(i), "t", val)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	plain := DefaultOptions()
	resPlain := mustDiscover(t, ds, MethodNC, plain)
	if got := resPlain.TruthMap(ds)["t"]; got != "Biology" {
		t.Fatalf("without similarity: truth = %q, want Biology (plurality)", got)
	}

	simOpt := DefaultOptions()
	simOpt.Similarity = func(a, b string) float64 {
		if (a == "Information Technology" && b == "InformationTechnology") ||
			(b == "Information Technology" && a == "InformationTechnology") {
			return 1
		}
		return 0
	}
	simOpt.SimilarityWeight = 1
	resSim := mustDiscover(t, ds, MethodNC, simOpt)
	got := resSim.TruthMap(ds)["t"]
	if got != "Information Technology" && got != "InformationTechnology" {
		t.Fatalf("with similarity: truth = %q, want a merged presentation", got)
	}
}

func workerName(i int) string {
	return string(rune('a'+i%26)) + "w"
}
