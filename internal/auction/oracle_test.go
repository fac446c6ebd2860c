package auction

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"imc2/internal/gen"
	"imc2/internal/randx"
	"imc2/internal/truth"
)

// The reference implementation of Algorithm 2 that ReverseAuction
// replaced: a map-backed coverage state, rebuilt for every run, and one
// selection rerun from scratch over W\{i} per winner i. ReverseAuction
// must reproduce it bit for bit.

// oracleCoverage maintains cov_k with per-worker task→position maps.
type oracleCoverage struct {
	in       *Instance
	residual []float64
	cov      []float64
	contrib  [][]float64
	byTask   [][]int
	pos      []map[int]int
	remain   float64
}

// min2 is the compare-and-branch minimum the coverage state used before
// it moved to the builtin min. The oracle keeps it, so the bit-for-bit
// comparisons pin the builtin against it, sign of zero included.
func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func newOracleCoverage(in *Instance) *oracleCoverage {
	n, m := in.NumWorkers(), in.NumTasks()
	s := &oracleCoverage{
		in:       in,
		residual: make([]float64, m),
		cov:      make([]float64, n),
		contrib:  make([][]float64, n),
		byTask:   make([][]int, m),
		pos:      make([]map[int]int, n),
	}
	copy(s.residual, in.Requirements)
	for _, q := range in.Requirements {
		s.remain += q
	}
	for i, ts := range in.TaskSets {
		s.contrib[i] = make([]float64, len(ts))
		s.pos[i] = make(map[int]int, len(ts))
		for t, j := range ts {
			c := min2(s.residual[j], in.Accuracy[i][t])
			s.contrib[i][t] = c
			s.cov[i] += c
			s.byTask[j] = append(s.byTask[j], i)
			s.pos[i][j] = t
		}
	}
	return s
}

func (s *oracleCoverage) done() bool { return s.remain <= covered }

func (s *oracleCoverage) apply(i int) {
	for t, j := range s.in.TaskSets[i] {
		dec := min2(s.residual[j], s.in.Accuracy[i][t])
		if dec <= 0 {
			continue
		}
		newResidual := s.residual[j] - dec
		if newResidual < covered {
			newResidual = 0
		}
		s.remain -= s.residual[j] - newResidual
		s.residual[j] = newResidual
		for _, k := range s.byTask[j] {
			t := s.pos[k][j]
			newC := min2(newResidual, s.in.Accuracy[k][t])
			s.cov[k] += newC - s.contrib[k][t]
			s.contrib[k][t] = newC
		}
	}
	if s.remain < covered {
		s.remain = 0
	}
}

func oracleSelectWinners(in *Instance, skip int, observe func(selected int, cs *oracleCoverage)) ([]int, error) {
	cs := newOracleCoverage(in)
	selected := make([]bool, in.NumWorkers())
	var winners []int
	for !cs.done() {
		best, bestRatio := -1, math.Inf(1)
		for k := 0; k < in.NumWorkers(); k++ {
			if k == skip || selected[k] {
				continue
			}
			cov := cs.cov[k]
			if cov <= covered {
				continue
			}
			ratio := in.Bids[k] / cov
			if ratio < bestRatio {
				best, bestRatio = k, ratio
			}
		}
		if best < 0 {
			return nil, ErrInfeasible
		}
		if observe != nil {
			observe(best, cs)
		}
		selected[best] = true
		winners = append(winners, best)
		cs.apply(best)
	}
	return winners, nil
}

func oracleCriticalPayment(in *Instance, i int) (float64, error) {
	payment := 0.0
	_, err := oracleSelectWinners(in, i, func(k int, cs *oracleCoverage) {
		covI, covK := cs.cov[i], cs.cov[k]
		if covI <= covered || covK <= covered {
			return
		}
		if p := in.Bids[k] * covI / covK; p > payment {
			payment = p
		}
	})
	if err != nil {
		return 0, fmt.Errorf("%w (worker %d)", ErrMonopolist, i)
	}
	return payment, nil
}

func oracleReverseAuction(in *Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	winners, err := oracleSelectWinners(in, -1, nil)
	if err != nil {
		return nil, err
	}
	payments := make([]float64, in.NumWorkers())
	for _, i := range winners {
		p, err := oracleCriticalPayment(in, i)
		if err != nil {
			return nil, fmt.Errorf("payment for worker %d: %w", i, err)
		}
		payments[i] = p
	}
	return finishOutcome(in, winners, payments, "ReverseAuction"), nil
}

// oracleCase draws a small instance that may be feasible, infeasible or
// have an irreplaceable winner. With intBids the bids are small integers
// and the accuracies quarters, so equal b_k/cov_k ratios (ties the
// selection breaks by index) are common.
func oracleCase(rng *rand.Rand, intBids bool) *Instance {
	n, m := 3+rng.Intn(14), 1+rng.Intn(6)
	in := &Instance{
		Bids:         make([]float64, n),
		TaskSets:     make([][]int, n),
		Accuracy:     make([][]float64, n),
		Requirements: make([]float64, m),
	}
	density := 0.4 + 0.5*rng.Float64()
	total := make([]float64, m)
	for i := 0; i < n; i++ {
		in.Bids[i] = 1 + 9*rng.Float64()
		if intBids {
			in.Bids[i] = float64(1 + rng.Intn(3))
		}
		for j := 0; j < m; j++ {
			if rng.Float64() >= density {
				continue
			}
			a := 0.3 + 0.6*rng.Float64()
			if intBids {
				a = float64(1+rng.Intn(3)) / 4
			}
			in.TaskSets[i] = append(in.TaskSets[i], j)
			in.Accuracy[i] = append(in.Accuracy[i], a)
			total[j] += a
		}
	}
	tight := 0.4 + 0.8*rng.Float64() // past 1, a task may be unsatisfiable
	for j := range in.Requirements {
		in.Requirements[j] = tight * (0.2 + 0.8*rng.Float64()) * total[j]
	}
	return in
}

// edgeCase draws a small instance from the values at which a minimum's
// compare-and-branch and its builtin form could part, or at which a
// coverage update lands exactly on a boundary:
//   - accuracies equal to the task's requirement and to the residuals
//     that other accuracies leave behind (q/2, q/4, q−q/4, q−q/2−q/4),
//     so min(Θ', A) is often taken between equal operands;
//   - accuracies of exactly 0 and 1, and requirements above 1;
//   - zero requirements, which no worker can reduce;
//   - −0 as a requirement, an accuracy or a bid (Validate admits it).
//
// Bids are small integers or zero, so ratio ties are common.
func edgeCase(rng *rand.Rand) *Instance {
	negZero := math.Copysign(0, -1)
	n, m := 2+rng.Intn(9), 1+rng.Intn(5)
	in := &Instance{
		Bids:         make([]float64, n),
		TaskSets:     make([][]int, n),
		Accuracy:     make([][]float64, n),
		Requirements: make([]float64, m),
	}
	for j := range in.Requirements {
		switch r := rng.Intn(8); {
		case r == 0:
			in.Requirements[j] = 0
		case r == 1:
			in.Requirements[j] = negZero
		case r < 5:
			in.Requirements[j] = float64(1+rng.Intn(8)) / 4
		default:
			in.Requirements[j] = 0.05 + 1.5*rng.Float64()
		}
	}
	for i := range in.Bids {
		switch r := rng.Intn(10); {
		case r == 0:
			in.Bids[i] = 0
		case r == 1:
			in.Bids[i] = negZero
		default:
			in.Bids[i] = float64(1 + rng.Intn(3))
		}
		for j, q := range in.Requirements {
			if rng.Intn(3) == 0 {
				continue
			}
			menu := [...]float64{0, negZero, 1, q, q / 2, q / 4, q - q/4, q - q/2 - q/4}
			a := menu[rng.Intn(len(menu))]
			if a > 1 {
				a = 1
			}
			in.TaskSets[i] = append(in.TaskSets[i], j)
			in.Accuracy[i] = append(in.Accuracy[i], a)
		}
	}
	return in
}

// requireSameOutcome asserts zero-tolerance agreement: the same error
// class and text, or the same winners in order and the same bits in
// every payment and aggregate.
func requireSameOutcome(t *testing.T, label string, got *Outcome, gotErr error, want *Outcome, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err = %v, oracle err = %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		for _, class := range []error{ErrInfeasible, ErrMonopolist} {
			if errors.Is(gotErr, class) != errors.Is(wantErr, class) {
				t.Fatalf("%s: err %q and oracle err %q differ in class %v", label, gotErr, wantErr, class)
			}
		}
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: err %q, oracle err %q", label, gotErr, wantErr)
		}
		return
	}
	if fmt.Sprint(got.Winners) != fmt.Sprint(want.Winners) {
		t.Fatalf("%s: winners %v, oracle %v", label, got.Winners, want.Winners)
	}
	if len(got.Payments) != len(want.Payments) {
		t.Fatalf("%s: %d payments, oracle %d", label, len(got.Payments), len(want.Payments))
	}
	for i := range want.Payments {
		if math.Float64bits(got.Payments[i]) != math.Float64bits(want.Payments[i]) {
			t.Fatalf("%s: payment[%d] = %v, oracle %v", label, i, got.Payments[i], want.Payments[i])
		}
	}
	if math.Float64bits(got.SocialCost) != math.Float64bits(want.SocialCost) ||
		math.Float64bits(got.TotalPayment) != math.Float64bits(want.TotalPayment) {
		t.Fatalf("%s: cost/total %v/%v, oracle %v/%v",
			label, got.SocialCost, got.TotalPayment, want.SocialCost, want.TotalPayment)
	}
	if got.Mechanism != want.Mechanism {
		t.Fatalf("%s: mechanism %q, oracle %q", label, got.Mechanism, want.Mechanism)
	}
}

func TestReverseAuctionMatchesOracle(t *testing.T) {
	generators := []struct {
		name   string
		draw   func(rng *rand.Rand, trial int) *Instance
		trials int
		// minimum case mix: feasible, infeasible, monopolist
		feasible, infeasible, monopolist int
	}{
		{"random", func(rng *rand.Rand, trial int) *Instance { return oracleCase(rng, trial%3 == 0) }, 6000, 2500, 250, 1000},
		{"edge", func(rng *rand.Rand, _ int) *Instance { return edgeCase(rng) }, 6000, 1500, 500, 500},
	}
	for g, src := range generators {
		t.Run(src.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41 + int64(g)))
			var feasible, infeasible, monopolist int
			for trial := 0; trial < src.trials; trial++ {
				in := src.draw(rng, trial)
				want, wantErr := oracleReverseAuction(in)
				got, gotErr := ReverseAuction(in)
				requireSameOutcome(t, fmt.Sprintf("trial %d", trial), got, gotErr, want, wantErr)
				switch {
				case wantErr == nil:
					feasible++
				case errors.Is(wantErr, ErrInfeasible):
					infeasible++
				case errors.Is(wantErr, ErrMonopolist):
					monopolist++
				default:
					t.Fatalf("trial %d: unexpected oracle error %v", trial, wantErr)
				}
			}
			t.Logf("feasible %d, infeasible %d, monopolist %d", feasible, infeasible, monopolist)
			if feasible < src.feasible || infeasible < src.infeasible || monopolist < src.monopolist {
				t.Fatalf("case mix too thin: feasible %d, infeasible %d, monopolist %d", feasible, infeasible, monopolist)
			}
		})
	}
}

// TestReverseAuctionPrefixPriceCounts pins a case where worker 1's payment
// comes from a step of the full run's prefix rather than from its rerun's
// suffix. In exact arithmetic no prefix price exceeds b_1 and the
// suffix's first price is at least b_1; here b_0/cov_0 and b_1/cov_1 round
// to one ratio, and the step-0 price b_0·cov_1/cov_0 rounds one ulp above
// b_1 while the suffix's price rounds below it. Worker 0's selection also
// lowers cov_1 (task 2), so the prefix price must be read before it.
// Worker 2 replaces worker 1, worker 3 replaces worker 0.
func TestReverseAuctionPrefixPriceCounts(t *testing.T) {
	in := &Instance{
		Bids:         []float64{9.189518900343645, 7.9, 7.9, 1000},
		TaskSets:     [][]int{{0, 2}, {1, 2}, {1}, {0}},
		Accuracy:     [][]float64{{0.517, 0.5}, {0.422, 0.5}, {0.95}, {1}},
		Requirements: []float64{0.517, 0.422, 0.16},
	}
	want, wantErr := oracleReverseAuction(in)
	got, gotErr := ReverseAuction(in)
	requireSameOutcome(t, "prefix case", got, gotErr, want, wantErr)
	prefixPrice := in.Bids[0] * (0.422 + 0.16) / (0.517 + 0.16)
	if fmt.Sprint(got.Winners) != "[0 1]" || got.Payments[1] != prefixPrice || prefixPrice <= in.Bids[1] {
		t.Fatalf("winners %v, payment[1] = %v: want [0 1] and the step-0 price %v above b_1",
			got.Winners, got.Payments[1], prefixPrice)
	}
}

// TestReverseAuctionMatchesOracleFig5 compares on the fig5-scale instance
// the platform settles (400 workers × 2000 tasks, 500 tasks per worker,
// accuracies from three DATE iterations), where each payment rerun
// resumes dozens of steps in.
func TestReverseAuctionMatchesOracleFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5-scale oracle rerun takes seconds")
	}
	in := fig5Instance(t)
	want, wantErr := oracleReverseAuction(in)
	got, gotErr := ReverseAuction(in)
	requireSameOutcome(t, "fig5", got, gotErr, want, wantErr)
	if wantErr != nil || len(want.Winners) < 10 {
		t.Fatalf("fig5 instance should settle with many winners: %v, %v", want, wantErr)
	}
}

// fig5Instance builds the auction instance a fig5 settle builds: 400
// workers × 2000 tasks, 500 tasks per worker, accuracies from three DATE
// iterations, task sets shared with the dataset.
func fig5Instance(t *testing.T) *Instance {
	t.Helper()
	spec := gen.DefaultSpec()
	spec.Workers = 400
	spec.Tasks = 2000
	spec.Copiers = 100
	spec.TasksPerWorker = 500
	spec.ParticipationDecay = 0.3
	spec.RequirementLow, spec.RequirementHigh = 1, 2
	c, err := gen.NewCampaign(spec, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	opt := truth.DefaultOptions()
	opt.CopyProb = 0.8
	opt.PriorDependence = 0.05
	opt.MaxIterations = 3
	res, err := truth.Discover(c.Dataset, truth.MethodDATE, opt)
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	in := &Instance{
		Bids:         c.Costs,
		TaskSets:     make([][]int, ds.NumWorkers()),
		Accuracy:     res.Accuracy,
		Requirements: make([]float64, ds.NumTasks()),
	}
	for i := range in.TaskSets {
		in.TaskSets[i] = ds.WorkerTasks(i)
	}
	for j := range in.Requirements {
		in.Requirements[j] = ds.Task(j).Requirement
	}
	return in
}

// TestCoverageStateMatchesMapOracle pins the shared state to the
// map-backed one it replaced: after every apply, every coverage, residual
// and the remaining total carry the same bits, so every mechanism built
// on it selects and prices exactly as before. The map-backed state keeps
// each entry's contribution and takes minima with min2, the shared one
// recomputes both sides of the update with the builtin min; on the edge
// instances the two meet equal operands (an accuracy equal to the old or
// the new residual) thousands of times, −0 among them.
func TestCoverageStateMatchesMapOracle(t *testing.T) {
	generators := []struct {
		name string
		draw func(rng *rand.Rand, trial int) *Instance
		// minimum count of entry updates whose accuracy equals the
		// task's old or new residual
		equal int
	}{
		{"random", func(rng *rand.Rand, trial int) *Instance { return oracleCase(rng, trial%3 == 0) }, 0},
		{"edge", func(rng *rand.Rand, _ int) *Instance { return edgeCase(rng) }, 1000},
	}
	for g, src := range generators {
		t.Run(src.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(43 + int64(g)))
			equal := 0
			for trial := 0; trial < 300; trial++ {
				in := src.draw(rng, trial)
				equal += requireSameCoverage(t, fmt.Sprintf("trial %d", trial), in, rng.Perm(in.NumWorkers()))
			}
			t.Logf("%d entry updates at an equal operand", equal)
			if equal < src.equal {
				t.Fatalf("%d entry updates at an equal operand, want at least %d", equal, src.equal)
			}
		})
	}
}

// requireSameCoverage applies order to the shared state and to the
// map-backed oracle, compares the bits of every coverage, residual and
// the remaining total before the first and after every apply, and
// returns how many entry updates met an accuracy equal to the task's old
// or new residual.
func requireSameCoverage(t *testing.T, label string, in *Instance, order []int) (equal int) {
	t.Helper()
	want := newOracleCoverage(in)
	got := newCoverageIndex(in).newState()
	for step := 0; ; step++ {
		for k := range want.cov {
			if math.Float64bits(got.cov[k]) != math.Float64bits(want.cov[k]) {
				t.Fatalf("%s step %d: cov[%d] = %v, oracle %v", label, step, k, got.cov[k], want.cov[k])
			}
		}
		for j := range want.residual {
			if math.Float64bits(got.residual[j]) != math.Float64bits(want.residual[j]) {
				t.Fatalf("%s step %d: residual[%d] = %v, oracle %v", label, step, j, got.residual[j], want.residual[j])
			}
		}
		if math.Float64bits(got.remain) != math.Float64bits(want.remain) {
			t.Fatalf("%s step %d: remain = %v, oracle %v", label, step, got.remain, want.remain)
		}
		if step == len(order) {
			return equal
		}
		i := order[step]
		old := slices.Clone(want.residual)
		want.apply(i)
		got.apply(i)
		for _, j := range in.TaskSets[i] {
			if want.residual[j] == old[j] {
				continue // the task's entries were not updated
			}
			for _, k := range want.byTask[j] {
				a := in.Accuracy[k][want.pos[k][j]]
				if a == old[j] || a == want.residual[j] {
					equal++
				}
			}
		}
	}
}
