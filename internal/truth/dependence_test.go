package truth

import (
	"math"
	"testing"

	"imc2/internal/model"
	"imc2/internal/numeric"
)

// twoWorkerDataset: both answer two tasks; same value on task A, different
// values on task B. Domain size 2 (num false = 2 → agreement 1/2).
func twoWorkerDataset(t *testing.T) *model.Dataset {
	t.Helper()
	ds, err := model.NewBuilder().
		AddTask(model.Task{ID: "A", NumFalse: 2, Requirement: 1, Value: 5}).
		AddTask(model.Task{ID: "B", NumFalse: 2, Requirement: 1, Value: 5}).
		AddObservation("w1", "A", "x").
		AddObservation("w2", "A", "x").
		AddObservation("w1", "B", "a").
		AddObservation("w2", "B", "b").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestDependenceHandComputed verifies eq. 15 against a value worked out by
// hand. With ε=0.5, α=0.2, r=0.5, num=2:
//
//	task A (same true): Ps = 0.25, dep term = 0.5·0.5 + 0.25·0.5 = 0.375
//	task B (different): contributes −ln(1−r) = ln 2
//	logRatio = ln(4) + ln(0.25/0.375) + ln 2 = 1.6740
//	P(dep)   = sigmoid(−1.6740) = 0.15786
func TestDependenceHandComputed(t *testing.T) {
	ds := twoWorkerDataset(t)
	opt := DefaultOptions()
	opt.CopyProb = 0.5
	opt.InitAccuracy = 0.5
	opt.PriorDependence = 0.2

	s := newState(ds, opt, UniformFalse{})
	s.dep = newFilledMatrix(s.n, s.n, opt.PriorDependence)
	s.totalDep = make([]float64, s.n)
	s.computeDependence()

	want := 1 / (1 + math.Exp(math.Log(4)+math.Log(0.25/0.375)+math.Log(2)))
	if math.Abs(want-0.15786) > 1e-4 {
		t.Fatalf("hand-computed reference drifted: %v", want)
	}
	for _, pair := range [][2]int{{0, 1}, {1, 0}} {
		got := s.dep[pair[0]][pair[1]]
		if !numeric.AlmostEqual(got, want, 1e-9) {
			t.Errorf("dep[%d][%d] = %v, want %v", pair[0], pair[1], got, want)
		}
	}
}

func TestDependenceSymmetricWhenAccuraciesEqual(t *testing.T) {
	ds := twoWorkerDataset(t)
	s := newState(ds, DefaultOptions(), UniformFalse{})
	s.dep = newFilledMatrix(s.n, s.n, 0.2)
	s.totalDep = make([]float64, s.n)
	s.computeDependence()
	if s.dep[0][1] != s.dep[1][0] {
		t.Fatalf("equal accuracies must give symmetric dependence: %v vs %v",
			s.dep[0][1], s.dep[1][0])
	}
}

func TestDependenceDirectionFavorsCopierOfAccurateSource(t *testing.T) {
	// Worker "src" is highly accurate, worker "cp" is not. They share a
	// false value. P(cp→src) explains the shared false value by copying
	// from an accurate source less well than P(src→cp): copying from an
	// inaccurate source makes a shared FALSE value more likely. Verify the
	// asymmetry falls out of eq. 11–12's accuracy asymmetry.
	b := model.NewBuilder()
	for _, id := range []string{"t1", "t2", "t3", "t4"} {
		b.AddTask(model.Task{ID: id, NumFalse: 4, Requirement: 1, Value: 5})
	}
	// Ground-truth-ish estimates come from the other three voters.
	for i := 0; i < 3; i++ {
		w := workerName(i + 10)
		b.AddObservation(w, "t1", "v1")
		b.AddObservation(w, "t2", "v2")
		b.AddObservation(w, "t3", "v3")
		b.AddObservation(w, "t4", "v4")
	}
	// src: right on t1-t3, shares false "zz" on t4.
	b.AddObservation("src", "t1", "v1")
	b.AddObservation("src", "t2", "v2")
	b.AddObservation("src", "t3", "v3")
	b.AddObservation("src", "t4", "zz")
	// cp: wrong everywhere, shares false "zz" on t4.
	b.AddObservation("cp", "t1", "x1")
	b.AddObservation("cp", "t2", "x2")
	b.AddObservation("cp", "t3", "x3")
	b.AddObservation("cp", "t4", "zz")
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	opt := DefaultOptions()
	s := newState(ds, opt, UniformFalse{})
	s.dep = newFilledMatrix(s.n, s.n, opt.PriorDependence)
	s.totalDep = make([]float64, s.n)

	// Give the workers their intuitive accuracies before measuring.
	iSrc, _ := ds.WorkerIndex("src")
	iCp, _ := ds.WorkerIndex("cp")
	s.accW[iSrc] = 0.75
	s.accW[iCp] = 0.2
	s.computeDependence()

	// Hypothesis "cp copies from src" must beat "src copies from cp":
	// the shared false value is far more likely if the copied source is
	// inaccurate, and eq. 12's dep term uses the source's accuracy.
	if s.dep[iSrc][iCp] <= s.dep[iCp][iSrc] {
		t.Errorf("P(src→cp) = %v should exceed P(cp→src) = %v",
			s.dep[iSrc][iCp], s.dep[iCp][iSrc])
	}
}

func TestDependenceNoSharedTasksStaysAtPrior(t *testing.T) {
	ds, err := model.NewBuilder().
		AddTask(model.Task{ID: "A", NumFalse: 2, Requirement: 1, Value: 5}).
		AddTask(model.Task{ID: "B", NumFalse: 2, Requirement: 1, Value: 5}).
		AddObservation("w1", "A", "x").
		AddObservation("w2", "B", "y").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	s := newState(ds, opt, UniformFalse{})
	s.dep = newFilledMatrix(s.n, s.n, opt.PriorDependence)
	s.totalDep = make([]float64, s.n)
	s.computeDependence()
	if !numeric.AlmostEqual(s.dep[0][1], opt.PriorDependence, 1e-12) {
		t.Errorf("dependence with no shared tasks = %v, want prior %v",
			s.dep[0][1], opt.PriorDependence)
	}
}

func TestSharedFalseValuesStrongerEvidenceThanSharedTrue(t *testing.T) {
	// Pair 1 shares a true value; pair 2 shares a false value. Same number
	// of shared tasks. The shared-false pair must look more dependent
	// (the core intuition of §III-A).
	build := func(sharedVal string, majority string) *model.Dataset {
		b := model.NewBuilder()
		b.AddTask(model.Task{ID: "t", NumFalse: 4, Requirement: 1, Value: 5})
		// Three independent voters fix the estimated truth to `majority`.
		for i := 0; i < 3; i++ {
			b.AddObservation(workerName(i+10), "t", majority)
		}
		b.AddObservation("p1", "t", sharedVal)
		b.AddObservation("p2", "t", sharedVal)
		ds, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}

	depOf := func(ds *model.Dataset) float64 {
		opt := DefaultOptions()
		s := newState(ds, opt, UniformFalse{})
		s.dep = newFilledMatrix(s.n, s.n, opt.PriorDependence)
		s.totalDep = make([]float64, s.n)
		s.computeDependence()
		i1, _ := ds.WorkerIndex("p1")
		i2, _ := ds.WorkerIndex("p2")
		return s.dep[i1][i2]
	}

	sameTrue := depOf(build("maj", "maj"))  // pair agrees with the majority
	sameFalse := depOf(build("odd", "maj")) // pair shares a minority value
	if sameFalse <= sameTrue {
		t.Errorf("shared-false dependence %v not above shared-true %v", sameFalse, sameTrue)
	}
}

func TestIndependenceGreedySingletonAndPair(t *testing.T) {
	ds := twoWorkerDataset(t)
	opt := DefaultOptions()
	opt.CopyProb = 0.5
	s := newState(ds, opt, UniformFalse{})
	s.dep = newFilledMatrix(s.n, s.n, 0.4) // pretend strong dependence
	for i := range s.dep {
		s.dep[i][i] = 0
	}
	s.totalDep = make([]float64, s.n)
	s.computeIndependence(false)

	jA, _ := ds.TaskIndex("A")
	jB, _ := ds.TaskIndex("B")
	// Task A: both provided "x" — seed gets I=1, the other 1−r·dep = 0.8.
	// Independence is per observation, indexed by position in
	// TaskWorkers, which is worker order here.
	got := []float64{s.indep[jA][0], s.indep[jA][1]}
	if !(got[0] == 1 && numeric.AlmostEqual(got[1], 0.8, 1e-12)) &&
		!(got[1] == 1 && numeric.AlmostEqual(got[0], 0.8, 1e-12)) {
		t.Errorf("pair independence = %v, want {1, 0.8}", got)
	}
	// Task B: singleton groups → both fully independent.
	if s.indep[jB][0] != 1 || s.indep[jB][1] != 1 {
		t.Errorf("singleton independence = %v, %v, want 1, 1", s.indep[jB][0], s.indep[jB][1])
	}
}

// TestIndependenceGreedyTiesWithinTolerance pins the greedy's append
// step: two providers whose dependence on the seed differs by less than
// tieTolerance (relative) are a tie, broken to the lower worker index,
// so rounding in how a posterior was summed cannot reorder a group. A
// larger gap still orders by dependence.
func TestIndependenceGreedyTiesWithinTolerance(t *testing.T) {
	ds, err := model.NewBuilder().
		AddTask(model.Task{ID: "A", NumFalse: 2, Requirement: 1, Value: 5}).
		AddObservation("w0", "A", "x").
		AddObservation("w1", "A", "x").
		AddObservation("w2", "A", "x").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	const r, d10, d21, d12 = 0.5, 0.5, 0.1, 0.3
	for _, tc := range []struct {
		gap        float64 // dep[2][0] = d10·(1+gap)
		w2BeforeW1 bool
	}{
		{0, false},
		{1e-15, false}, // a rounding difference: still a tie
		{1e-9, true},
	} {
		opt := DefaultOptions()
		opt.CopyProb = r
		s := newState(ds, opt, UniformFalse{})
		s.dep = newZeroMatrix(3, 3)
		s.dep[1][0], s.dep[2][0] = d10, d10*(1+tc.gap)
		s.dep[2][1], s.dep[1][2] = d21, d12
		s.totalDep = make([]float64, s.n) // seed: w0, the lowest index
		s.computeIndependence(false)
		ind := s.indep[0]
		want := []float64{1, 1 - r*d10, (1 - r*s.dep[2][0]) * (1 - r*d21)}
		if tc.w2BeforeW1 {
			want = []float64{1, (1 - r*d10) * (1 - r*d12), 1 - r*s.dep[2][0]}
		}
		for b := range want {
			if !numeric.AlmostEqual(ind[b], want[b], 1e-15) {
				t.Errorf("gap %g: independence %v, want %v", tc.gap, ind, want)
				break
			}
		}
	}
}

func TestIndependenceEnumerationAveragesOrders(t *testing.T) {
	// For a pair with symmetric dependence d, enumeration averages the two
	// orders: each worker gets (1 + (1−r·d))/2.
	ds := twoWorkerDataset(t)
	opt := DefaultOptions()
	opt.CopyProb = 0.5
	s := newState(ds, opt, UniformFalse{})
	s.dep = newFilledMatrix(s.n, s.n, 0.4)
	for i := range s.dep {
		s.dep[i][i] = 0
	}
	s.totalDep = make([]float64, s.n)
	s.computeIndependence(true)

	jA, _ := ds.TaskIndex("A")
	want := (1 + (1 - 0.5*0.4)) / 2
	for _, i := range []int{0, 1} {
		if !numeric.AlmostEqual(s.indep[jA][i], want, 1e-12) {
			t.Errorf("enumerated independence[%d] = %v, want %v", i, s.indep[jA][i], want)
		}
	}
}

func TestPermuteVisitsAllPermutations(t *testing.T) {
	seen := map[[3]int]bool{}
	permute([]int{0, 1, 2}, 0, func(p []int) {
		seen[[3]int{p[0], p[1], p[2]}] = true
	})
	if len(seen) != 6 {
		t.Fatalf("permute visited %d permutations, want 6", len(seen))
	}
}
