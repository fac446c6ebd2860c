package truth

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestRankDependentPairs(t *testing.T) {
	ds, _ := copierScenario(t, 6, 4, 40)
	res := mustDiscover(t, ds, MethodDATE, DefaultOptions())

	pairs := res.RankDependentPairs()
	n := ds.NumWorkers()
	if len(pairs) != n*(n-1)/2 {
		t.Fatalf("pairs = %d, want %d", len(pairs), n*(n-1)/2)
	}
	// Sorted descending by total.
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Total() > pairs[i-1].Total()+1e-12 {
			t.Fatalf("pairs not sorted at %d", i)
		}
	}
	// The top pair should involve the copied source h00 or a copier.
	top := pairs[0]
	h0, _ := ds.WorkerIndex("h00")
	isCopier := func(i int) bool {
		id := ds.WorkerID(i)
		return id[0] == 'c'
	}
	if top.A != h0 && top.B != h0 && !isCopier(top.A) && !isCopier(top.B) {
		t.Errorf("top pair (%s, %s) involves no copier and not the source",
			ds.WorkerID(top.A), ds.WorkerID(top.B))
	}
	// A < B invariant.
	for _, p := range pairs {
		if p.A >= p.B {
			t.Fatalf("pair ordering violated: %+v", p)
		}
	}
}

func TestRankDependentPairsNilForMV(t *testing.T) {
	ds, _ := copierScenario(t, 4, 2, 20)
	res := mustDiscover(t, ds, MethodMV, DefaultOptions())
	if res.RankDependentPairs() != nil || res.TopDependentPairs(5) != nil {
		t.Error("MV should have no dependence ranking")
	}
	if res.CopierScores() != nil {
		t.Error("MV should have no copier scores")
	}
}

// oracleRankPairs is the ranking as RankDependentPairs first computed
// it: a reflection-based stable sort on the total over pairs generated in
// (A, B) order.
func oracleRankPairs(r *Result) []DependentPair {
	n := len(r.Dependence)
	var pairs []DependentPair
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			pairs = append(pairs, DependentPair{A: a, B: b, AtoB: r.Dependence[a][b], BtoA: r.Dependence[b][a]})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].Total() > pairs[j].Total() })
	return pairs
}

// TestTopDependentPairsMatchesFullRanking pins TopDependentPairs and the
// typed sort of RankDependentPairs to the old full ranking, element for
// element, on fixtures dominated by exact ties: posteriors drawn from a
// handful of values, and DATE results where most pairs never co-observe
// and share the constant prior posterior.
func TestTopDependentPairsMatchesFullRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var fixtures []*Result
	levels := []float64{0.05, 0.1, 0.3, 0.5, 0.9}
	for _, n := range []int{1, 2, 3, 7, 40} {
		dep := newZeroMatrix(n, n)
		for i := range dep {
			for k := range dep[i] {
				if i != k {
					dep[i][k] = levels[rng.Intn(len(levels))]
				}
			}
		}
		fixtures = append(fixtures, &Result{Dependence: dep})
	}
	for trial := 0; trial < 20; trial++ {
		ds := oracleDataset(rng, 4)
		fixtures = append(fixtures, mustDiscover(t, ds, MethodDATE, DefaultOptions()))
	}
	ties := 0
	for f, res := range fixtures {
		want := oracleRankPairs(res)
		if got := res.RankDependentPairs(); !reflect.DeepEqual(got, want) && len(want) > 0 {
			t.Fatalf("fixture %d: RankDependentPairs differs from the stable-sort ranking", f)
		}
		for _, k := range []int{-1, 0, 1, 2, 5, 20, len(want) - 1, len(want), len(want) + 5} {
			got := res.TopDependentPairs(k)
			w := want[:max(0, min(k, len(want)))]
			if len(got) != len(w) || (len(w) > 0 && !reflect.DeepEqual(got, w)) {
				t.Fatalf("fixture %d k=%d: TopDependentPairs = %v, want %v", f, k, got, w)
			}
		}
		for p := 1; p < len(want); p++ {
			if want[p].Total() == want[p-1].Total() {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("fixtures produced no tied totals")
	}
}

func TestCopierScoresSeparateCopiers(t *testing.T) {
	ds, _ := copierScenario(t, 6, 4, 40)
	res := mustDiscover(t, ds, MethodDATE, DefaultOptions())
	scores := res.CopierScores()
	if len(scores) != ds.NumWorkers() {
		t.Fatalf("scores = %d entries", len(scores))
	}
	// Mean score of copiers must exceed mean score of honest workers
	// (excluding the copied source h00, which legitimately scores high —
	// direction is hard to pin down from a snapshot).
	var copier, honest float64
	var nc, nh int
	for i := 0; i < ds.NumWorkers(); i++ {
		id := ds.WorkerID(i)
		switch {
		case id[0] == 'c':
			copier += scores[i]
			nc++
		case id != "h00":
			honest += scores[i]
			nh++
		}
	}
	if copier/float64(nc) <= honest/float64(nh) {
		t.Errorf("copier mean score %v not above honest %v",
			copier/float64(nc), honest/float64(nh))
	}
}

func TestMeanIndependenceBounds(t *testing.T) {
	ds, _ := copierScenario(t, 6, 4, 40)
	res := mustDiscover(t, ds, MethodDATE, DefaultOptions())
	mi := res.MeanIndependence(ds)
	for i, v := range mi {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("mean independence[%d] = %v", i, v)
		}
	}
}
