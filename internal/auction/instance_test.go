package auction

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// handInstance is a 4-worker, 2-task instance small enough to verify by
// hand (see reverse_test.go for the worked selection and payments).
func handInstance() *Instance {
	return &Instance{
		Bids: []float64{2, 1, 1.2, 4},
		TaskSets: [][]int{
			{0, 1},
			{0},
			{1},
			{0, 1},
		},
		Accuracy: [][]float64{ // aligned with TaskSets
			{0.6, 0.6},
			{0.5},
			{0.5},
			{0.5, 0.5},
		},
		Requirements: []float64{1, 1},
	}
}

func TestInstanceValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Instance)
		wantSub string
	}{
		{"valid", func(in *Instance) {}, ""},
		{"no workers", func(in *Instance) { in.Bids = nil; in.TaskSets = nil; in.Accuracy = nil }, "no workers"},
		{"no tasks", func(in *Instance) { in.Requirements = nil }, "no tasks"},
		{"negative bid", func(in *Instance) { in.Bids[0] = -1 }, "bid[0]"},
		{"NaN bid", func(in *Instance) { in.Bids[1] = math.NaN() }, "bid[1]"},
		{"negative requirement", func(in *Instance) { in.Requirements[0] = -2 }, "requirement[0]"},
		{"bad task index", func(in *Instance) { in.TaskSets[0] = []int{0, 7} }, "outside"},
		{"duplicate task", func(in *Instance) { in.TaskSets[0] = []int{1, 1} }, "twice"},
		{"accuracy out of range", func(in *Instance) { in.Accuracy[0][0] = 1.5 }, "outside [0,1]"},
		{
			// A dense row (one entry per task) is not aligned with a
			// one-task set.
			"row length mismatch",
			func(in *Instance) { in.Accuracy[2] = []float64{0, 0.5} },
			"accuracy row",
		},
		{
			"array mismatch",
			func(in *Instance) { in.TaskSets = in.TaskSets[:2] },
			"inconsistent",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := handInstance()
			tt.mutate(in)
			err := in.Validate()
			if tt.wantSub == "" {
				if err != nil {
					t.Fatalf("valid instance rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Fatalf("error %q missing %q", err, tt.wantSub)
			}
		})
	}
}

func TestFeasible(t *testing.T) {
	in := handInstance()
	if !in.Feasible() {
		t.Fatal("hand instance should be feasible")
	}
	in.Requirements = []float64{5, 5}
	if in.Feasible() {
		t.Fatal("requirement 5 cannot be met by total accuracy <= 1.6")
	}
}

func TestOutcomeHelpers(t *testing.T) {
	in := handInstance()
	o := finishOutcome(in, []int{0, 2}, []float64{3, 0, 2, 0}, "test")
	if o.SocialCost != 2+1.2 {
		t.Errorf("SocialCost = %v, want 3.2", o.SocialCost)
	}
	if o.TotalPayment != 5 {
		t.Errorf("TotalPayment = %v, want 5", o.TotalPayment)
	}
	if !o.IsWinner(0) || o.IsWinner(1) {
		t.Error("IsWinner wrong")
	}
	if got := o.Utility(0, 1.5); got != 1.5 {
		t.Errorf("winner utility = %v, want 1.5", got)
	}
	if got := o.Utility(1, 1.5); got != 0 {
		t.Errorf("loser utility = %v, want 0", got)
	}
}

func TestCoverageStateIncremental(t *testing.T) {
	in := handInstance()
	cs := newCoverageIndex(in).newState()
	if got := cs.cov[0]; got != 1.2 {
		t.Fatalf("initial cov(w0) = %v, want 1.2", got)
	}
	if got := cs.cov[3]; got != 1.0 {
		t.Fatalf("initial cov(w3) = %v, want 1.0", got)
	}
	cs.apply(0) // residuals become (0.4, 0.4)
	if got := cs.cov[1]; math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("cov(w1) after w0 = %v, want 0.4", got)
	}
	if got := cs.cov[3]; math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("cov(w3) after w0 = %v, want 0.8", got)
	}
	if cs.done() {
		t.Fatal("not done yet")
	}
	cs.apply(3) // covers the rest
	if !cs.done() {
		t.Fatalf("should be done, remain = %v", cs.remain)
	}
	if got := cs.cov[1]; got != 0 {
		t.Fatalf("cov(w1) when done = %v, want 0", got)
	}

	// On random instances every incrementally maintained cov_k stays
	// equal to Σ_{j∈T_k} min(Θ'_j, A_k^j) recomputed from the residuals,
	// through resets and copies as well as applies.
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 100; trial++ {
		in := randomInstance(rng, 2+rng.Intn(12), 1+rng.Intn(8))
		ix := newCoverageIndex(in)
		cs, cp := ix.newState(), ix.newState()
		check := func(s *coverageState, when string) {
			t.Helper()
			for k, ts := range in.TaskSets {
				want := 0.0
				for t, j := range ts {
					want += min2(s.residual[j], in.Accuracy[k][t])
				}
				if math.Abs(s.cov[k]-want) > 1e-12 {
					t.Fatalf("trial %d %s: cov[%d] = %v, from scratch %v", trial, when, k, s.cov[k], want)
				}
			}
		}
		for _, i := range rng.Perm(in.NumWorkers()) {
			cs.apply(i)
			check(cs, fmt.Sprintf("after apply(%d)", i))
			cp.copyFrom(cs)
			check(cp, "after copy")
		}
		cs.reset()
		check(cs, "after reset")
	}
}
