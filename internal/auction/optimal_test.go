package auction

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestOptimalHandComputed(t *testing.T) {
	in := handInstance()
	o, err := Optimal(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(o.SocialCost-4.2) > 1e-12 {
		t.Fatalf("optimal cost = %v, want 4.2 ({w0,w1,w2})", o.SocialCost)
	}
	if len(o.Winners) != 3 || !o.IsWinner(0) || !o.IsWinner(1) || !o.IsWinner(2) {
		t.Fatalf("optimal winners = %v, want {0,1,2}", o.Winners)
	}
	if !SatisfiesCoverage(in, o.Winners) {
		t.Fatal("optimal coverage violated")
	}
	// VCG individual rationality.
	for _, i := range o.Winners {
		if o.Payments[i] < in.Bids[i]-1e-9 {
			t.Errorf("VCG payment[%d] = %v below bid %v", i, o.Payments[i], in.Bids[i])
		}
	}
}

func TestOptimalAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng, 8, 3)
		got, err := OptimalCost(in)
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want, found := bruteForce(in)
		if !found {
			t.Fatalf("trial %d: brute force found no cover but solver did", trial)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: optimal %v != brute force %v", trial, got, want)
		}
	}
}

// bruteForce enumerates all 2^n subsets.
func bruteForce(in *Instance) (float64, bool) {
	n, m := in.NumWorkers(), in.NumTasks()
	best := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		total := make([]float64, m)
		cost := 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			cost += in.Bids[i]
			for t, j := range in.TaskSets[i] {
				total[j] += in.Accuracy[i][t]
			}
		}
		ok := true
		for j := 0; j < m; j++ {
			if total[j] < in.Requirements[j]-covered {
				ok = false
				break
			}
		}
		if ok && cost < best {
			best = cost
		}
	}
	return best, !math.IsInf(best, 1)
}

func TestOptimalInfeasible(t *testing.T) {
	in := handInstance()
	in.Requirements = []float64{10, 10}
	if _, err := Optimal(in); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestOptimalRefusesLargeInstances(t *testing.T) {
	n := maxExactWorkers + 1
	in := &Instance{
		Bids:         make([]float64, n),
		TaskSets:     make([][]int, n),
		Accuracy:     make([][]float64, n),
		Requirements: []float64{0.5},
	}
	for i := 0; i < n; i++ {
		in.Bids[i] = 1
		in.TaskSets[i] = []int{0}
		in.Accuracy[i] = []float64{0.9}
	}
	if _, err := Optimal(in); err == nil {
		t.Fatal("oversized instance accepted")
	}
	if _, err := OptimalCost(in); err == nil {
		t.Fatal("oversized instance accepted by OptimalCost")
	}
}

func TestTheoreticalBoundFinite(t *testing.T) {
	in := handInstance()
	b := TheoreticalBound(in)
	if math.IsInf(b, 1) || b <= 0 {
		t.Fatalf("bound = %v, want finite positive", b)
	}
	// The bound must dominate the worst-case ratio 1 on this instance.
	if b < 1 {
		t.Fatalf("bound = %v below 1", b)
	}
}

func TestCoverageSlack(t *testing.T) {
	in := handInstance()
	slack := CoverageSlack(in, []int{0, 3})
	// task 0: 0.6+0.5−1 = 0.1; task 1: same.
	for j, s := range slack {
		if math.Abs(s-0.1) > 1e-12 {
			t.Errorf("slack[%d] = %v, want 0.1", j, s)
		}
	}
	if !SatisfiesCoverage(in, []int{0, 3}) {
		t.Error("covering set rejected")
	}
	if SatisfiesCoverage(in, []int{1}) {
		t.Error("non-covering set accepted")
	}
}

func TestPlatformUtilityAndSocialWelfare(t *testing.T) {
	in := handInstance()
	o, err := ReverseAuction(in)
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{5, 6}
	u0 := PlatformUtility(in, values, o)
	if want := 11 - o.TotalPayment; math.Abs(u0-want) > 1e-12 {
		t.Errorf("platform utility = %v, want %v", u0, want)
	}
	costs := in.Bids
	uw := SocialWelfare(in, values, o, costs)
	if want := 11 - o.SocialCost; math.Abs(uw-want) > 1e-12 {
		t.Errorf("social welfare = %v, want %v", uw, want)
	}
}
