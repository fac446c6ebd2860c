package auction

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"imc2/internal/imcerr"
)

// The hand-worked run of Algorithm 2 on handInstance():
//
//	selection: ratios b/cov = {2/1.2, 1/0.5, 1.2/0.5, 4/1.0}
//	  → w0 (1.67), then residual (0.4,0.4): w1 (2.5), then w2 (3.0)
//	payments: each winner's critical value works out to 4.0 (replacement
//	  by w3 in the final round dominates the max).
func TestReverseAuctionHandComputed(t *testing.T) {
	in := handInstance()
	o, err := ReverseAuction(in)
	if err != nil {
		t.Fatal(err)
	}
	wantWinners := []int{0, 1, 2}
	got := append([]int(nil), o.Winners...)
	sort.Ints(got)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("winners = %v, want %v", o.Winners, wantWinners)
	}
	if math.Abs(o.SocialCost-4.2) > 1e-12 {
		t.Errorf("social cost = %v, want 4.2", o.SocialCost)
	}
	for _, i := range wantWinners {
		if math.Abs(o.Payments[i]-4.0) > 1e-9 {
			t.Errorf("payment[%d] = %v, want 4.0", i, o.Payments[i])
		}
	}
	if o.Payments[3] != 0 {
		t.Errorf("loser payment = %v, want 0", o.Payments[3])
	}
	if !SatisfiesCoverage(in, o.Winners) {
		t.Error("winner set violates coverage")
	}
}

func TestReverseAuctionMatchesOptimalHere(t *testing.T) {
	in := handInstance()
	o, err := ReverseAuction(in)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := OptimalCost(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt-4.2) > 1e-12 {
		t.Fatalf("OPT = %v, want 4.2", opt)
	}
	if math.Abs(o.SocialCost-opt) > 1e-12 {
		t.Errorf("greedy social cost %v != OPT %v on this instance", o.SocialCost, opt)
	}
}

func TestReverseAuctionInfeasible(t *testing.T) {
	in := handInstance()
	in.Requirements = []float64{10, 10}
	if _, err := ReverseAuction(in); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestReverseAuctionMonopolist(t *testing.T) {
	in := &Instance{
		Bids:         []float64{1},
		TaskSets:     [][]int{{0}},
		Accuracy:     [][]float64{{0.9}},
		Requirements: []float64{0.5},
	}
	_, err := ReverseAuction(in)
	if !errors.Is(err, ErrMonopolist) {
		t.Fatalf("err = %v, want ErrMonopolist", err)
	}
	if imcerr.CodeOf(err) != imcerr.CodeMonopolist {
		t.Fatalf("CodeOf(%v) = %v, want %v", err, imcerr.CodeOf(err), imcerr.CodeMonopolist)
	}
}

// TestCriticalPaymentPropagatesNonMonopolistErrors pins the error
// classification of the payment stage: a payment rerun can fail only by
// running out of candidates in W\{i}, and only that is ErrMonopolist (with
// the oracle's exact message); an instance the full worker set cannot
// cover keeps its own identity, ErrInfeasible, and is never conflated into
// ErrMonopolist.
func TestCriticalPaymentPropagatesNonMonopolistErrors(t *testing.T) {
	mono := &Instance{
		Bids:         []float64{1},
		TaskSets:     [][]int{{0}},
		Accuracy:     [][]float64{{0.9}},
		Requirements: []float64{0.5},
	}
	_, err := ReverseAuction(mono)
	if !errors.Is(err, ErrMonopolist) {
		t.Fatalf("err = %v, want ErrMonopolist", err)
	}
	if _, want := oracleReverseAuction(mono); want == nil || err.Error() != want.Error() {
		t.Fatalf("err = %q, oracle %v", err, want)
	}

	in := handInstance()
	in.Requirements = []float64{10, 10}
	_, err = ReverseAuction(in)
	if errors.Is(err, ErrMonopolist) {
		t.Fatalf("infeasible instance conflated into ErrMonopolist: %v", err)
	}
	if !errors.Is(err, ErrInfeasible) || imcerr.CodeOf(err) != imcerr.CodeInfeasible {
		t.Fatalf("err = %v (code %v), want ErrInfeasible", err, imcerr.CodeOf(err))
	}
}

func TestReverseAuctionValidatesInput(t *testing.T) {
	in := handInstance()
	in.Bids[0] = -3
	if _, err := ReverseAuction(in); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

// randomInstance builds a feasible random SOAC instance.
func randomInstance(rng *rand.Rand, n, m int) *Instance {
	in := &Instance{
		Bids:         make([]float64, n),
		TaskSets:     make([][]int, n),
		Accuracy:     make([][]float64, n),
		Requirements: make([]float64, m),
	}
	for i := 0; i < n; i++ {
		in.Bids[i] = 1 + 9*rng.Float64()
		for j := 0; j < m; j++ {
			if rng.Float64() < 0.6 {
				in.TaskSets[i] = append(in.TaskSets[i], j)
				in.Accuracy[i] = append(in.Accuracy[i], 0.3+0.6*rng.Float64())
			}
		}
	}
	total := make([]float64, m)
	for i := 0; i < n; i++ {
		for t, j := range in.TaskSets[i] {
			total[j] += in.Accuracy[i][t]
		}
	}
	for j := 0; j < m; j++ {
		in.Requirements[j] = (0.2 + 0.5*rng.Float64()) * total[j]
	}
	return in
}

func TestReverseAuctionPropertiesOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(rng, 8+rng.Intn(6), 3+rng.Intn(4))
		o, err := ReverseAuction(in)
		if errors.Is(err, ErrMonopolist) {
			continue // instance without replacements: no critical payment
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checked++
		if !SatisfiesCoverage(in, o.Winners) {
			t.Fatalf("trial %d: coverage violated", trial)
		}
		for _, i := range o.Winners {
			// Individual rationality at truthful bids (Lemma 2).
			if o.Payments[i] < in.Bids[i]-1e-9 {
				t.Fatalf("trial %d: payment %v below bid %v", trial, o.Payments[i], in.Bids[i])
			}
		}
		for i := range in.Bids {
			if !o.IsWinner(i) && o.Payments[i] != 0 {
				t.Fatalf("trial %d: loser %d paid %v", trial, i, o.Payments[i])
			}
		}
	}
	if checked < 30 {
		t.Fatalf("only %d/60 random instances were usable", checked)
	}
}

func TestReverseAuctionApproximationVsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	worst := 1.0
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng, 10, 4)
		o, err := ReverseAuction(in)
		if err != nil {
			continue
		}
		opt, err := OptimalCost(in)
		if err != nil {
			t.Fatalf("trial %d optimal: %v", trial, err)
		}
		if o.SocialCost < opt-1e-9 {
			t.Fatalf("trial %d: greedy %v below optimal %v", trial, o.SocialCost, opt)
		}
		ratio := o.SocialCost / opt
		if ratio > worst {
			worst = ratio
		}
		if bound := TheoreticalBound(in); ratio > bound {
			t.Fatalf("trial %d: ratio %v exceeds theoretical bound %v", trial, ratio, bound)
		}
	}
	t.Logf("worst empirical approximation ratio over 40 instances: %.3f", worst)
	if worst > 3 {
		t.Errorf("greedy ratio %v is far above expectations for these densities", worst)
	}
}

// TestTruthfulness verifies Myerson's two conditions empirically: bidding
// the true cost weakly dominates deviations, and the selection rule is
// monotone.
func TestTruthfulness(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	deviations := []float64{0.25, 0.5, 0.8, 1.25, 2, 4}
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(rng, 9, 3)
		truthful, err := ReverseAuction(in)
		if err != nil {
			continue
		}
		// Treat submitted bids as true costs.
		costs := append([]float64(nil), in.Bids...)
		for i := 0; i < in.NumWorkers(); i++ {
			uTruth := truthful.Utility(i, costs[i])
			if uTruth < -1e-9 {
				t.Fatalf("trial %d: negative truthful utility %v", trial, uTruth)
			}
			for _, f := range deviations {
				dev := &Instance{
					Bids:         append([]float64(nil), in.Bids...),
					TaskSets:     in.TaskSets,
					Accuracy:     in.Accuracy,
					Requirements: in.Requirements,
				}
				dev.Bids[i] = costs[i] * f
				o, err := ReverseAuction(dev)
				if err != nil {
					continue
				}
				if u := o.Utility(i, costs[i]); u > uTruth+1e-6 {
					t.Fatalf("trial %d: worker %d gains %v > %v by bidding %v×cost",
						trial, i, u, uTruth, f)
				}
			}
		}
	}
}

func TestSelectionMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng, 8, 3)
		base, err := ReverseAuction(in)
		if err != nil {
			continue
		}
		for _, i := range base.Winners {
			lower := &Instance{
				Bids:         append([]float64(nil), in.Bids...),
				TaskSets:     in.TaskSets,
				Accuracy:     in.Accuracy,
				Requirements: in.Requirements,
			}
			lower.Bids[i] = in.Bids[i] / 2
			o, err := ReverseAuction(lower)
			if err != nil {
				continue
			}
			if !o.IsWinner(i) {
				t.Fatalf("trial %d: winner %d lost by lowering its bid", trial, i)
			}
		}
	}
}
