package truth

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"imc2/internal/gen"
	"imc2/internal/model"
	"imc2/internal/randx"
)

// This file keeps the greedy ordering of eq. 16 that independenceGreedy
// replaced, as the reference it is held to bit for bit. Each step scans
// the remaining providers for the maximal dependence, splices the pick
// out, multiplies its I over the whole ordered prefix, and scans the
// remaining providers again to raise their maxima: every in-group cell
// is read twice.

// oracleIndScratch is the old greedy's buffers: the ordered prefix (as
// workers), the remaining providers (as positions), and — aligned with
// the latter — each remaining provider's maximal dependence on the
// prefix.
type oracleIndScratch struct {
	ordered   []int
	remaining []int
	bestDep   []float64
}

func (sc *oracleIndScratch) ensure(g int) {
	if cap(sc.ordered) < g {
		sc.ordered = make([]int, g)
		sc.remaining = make([]int, g)
		sc.bestDep = make([]float64, g)
	}
}

// oracleIndependence returns the independence matrix the old greedy
// derives from s's dependence state (dep, totalDep), task by task and
// serially, without touching s.
func oracleIndependence(s *state) [][]float64 {
	o := *s
	o.indep = newTaskMatrix(s.ds, 1)
	var sc oracleIndScratch
	for j := 0; j < o.m; j++ {
		vals := o.ds.TaskValues(j)
		for v := range o.ds.Values(j) {
			var group []int
			for b, vb := range vals {
				if vb == int32(v) {
					group = append(group, b)
				}
			}
			switch len(group) {
			case 0:
			case 1:
				o.indep[j][group[0]] = 1
			default:
				o.oracleIndependenceGreedy(j, group, &sc)
			}
		}
	}
	return o.indep
}

// oracleIndependenceGreedy is the greedy ordering as it was: lines 16–22
// of Algorithm 1 for one provider group, given as positions in
// TaskWorkers(j).
func (s *state) oracleIndependenceGreedy(j int, group []int, sc *oracleIndScratch) {
	r := s.opt.CopyProb
	ws, ind := s.ds.TaskWorkers(j), s.indep[j]
	sc.ensure(len(group))

	// Seed: the provider with minimal total dependence (most plausibly
	// independent), ties to the lower worker index for determinism.
	seedPos := 0
	for p := 1; p < len(group); p++ {
		if s.totalDep[ws[group[p]]] < s.totalDep[ws[group[seedPos]]] {
			seedPos = p
		}
	}

	ordered := sc.ordered[:0]
	remaining := sc.remaining[:len(group)]
	copy(remaining, group)
	remaining[seedPos], remaining[len(remaining)-1] = remaining[len(remaining)-1], remaining[seedPos]
	seed := remaining[len(remaining)-1]
	remaining = remaining[:len(remaining)-1]
	sort.Ints(remaining) // deterministic scan order
	ordered = append(ordered, ws[seed])
	ind[seed] = 1

	// bestDep[p] tracks max_{k∈ordered} dep[remaining[p]][k], spliced in
	// lockstep with remaining so the pair stays aligned.
	bestDep := sc.bestDep[:len(remaining)]
	for p, b := range remaining {
		bestDep[p] = s.dep[ws[b]][ws[seed]]
	}

	for len(remaining) > 0 {
		// Pick the remaining provider with maximal dependence on the
		// ordered set, ties to the lower worker index. Posteriors within
		// tieTolerance of each other are ties: two copiers of one source
		// have the same posterior up to the rounding of their sums, and
		// that rounding must not decide the order.
		bestPos, beat := 0, bestDep[0]*(1+tieTolerance)
		for p := 1; p < len(remaining); p++ {
			if bestDep[p] > beat {
				bestPos, beat = p, bestDep[p]*(1+tieTolerance)
			}
		}
		next := remaining[bestPos]
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
		bestDep = append(bestDep[:bestPos], bestDep[bestPos+1:]...)

		// I(next) = Π over already-ordered providers (eq. 16).
		depNext := s.dep[ws[next]]
		prod := 1.0
		for _, k := range ordered {
			prod *= 1 - r*depNext[k]
		}
		ind[next] = prod
		ordered = append(ordered, ws[next])

		for p, b := range remaining {
			if d := s.dep[ws[b]][ws[next]]; d > bestDep[p] {
				bestDep[p] = d
			}
		}
	}
}

// TestIndependenceGreedyMatchesOracle holds the one-pass greedy to the
// old one bit for bit: after every DATE iteration on the fixtures and on
// reduced generator campaigns at parallelism 1, 2 and 0, and on random
// dependence states full of exact ties and near-ties.
func TestIndependenceGreedyMatchesOracle(t *testing.T) {
	t1, _ := table1Dataset(t)
	cop, _ := copierScenario(t, 8, 4, 60)
	type run struct {
		name string
		ds   *model.Dataset
	}
	runs := []run{{"table1", t1}, {"copiers", cop}}
	for _, shape := range reducedShapes() {
		for _, seed := range []int64{1, 5, 9} {
			c, err := gen.NewCampaign(shape.spec, randx.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run{fmt.Sprintf("%s/seed=%d", shape.name, seed), c.Dataset})
		}
	}
	for _, r := range runs {
		for _, par := range []int{1, 2, 0} {
			t.Run(fmt.Sprintf("%s/par=%d", r.name, par), func(t *testing.T) {
				opt := DefaultOptions()
				opt.CopyProb = 0.8
				opt.PriorDependence = 0.05
				opt.Parallelism = par
				e, err := NewEngine(r.ds, MethodDATE, opt)
				if err != nil {
					t.Fatal(err)
				}
				for !e.Done() {
					e.Step()
					label := fmt.Sprintf("iteration %d", e.Iterations())
					sameBits(t, label, "independence", e.s.indep, oracleIndependence(e.s))
				}
			})
		}
	}

	// Random states draw most posteriors and totals from a small palette,
	// exactly or moved by a relative gap on either side of tieTolerance,
	// so seeds and appends keep meeting exact ties and near-ties.
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		gaps := []float64{0, 1e-15, -1e-15, 4e-13, -4e-13, 9.9e-13, -9.9e-13, 1.01e-12, -1.01e-12, 3e-12, 1e-9}
		draw := func(palette []float64) float64 {
			switch rng.Intn(3) {
			case 0:
				return rng.Float64()
			default:
				return palette[rng.Intn(len(palette))] * (1 + gaps[rng.Intn(len(gaps))])
			}
		}
		for trial := 0; trial < 300; trial++ {
			ds := oracleDataset(rng, 1+rng.Intn(3))
			opt := DefaultOptions()
			opt.CopyProb = 0.05 + 0.9*rng.Float64()
			opt.Parallelism = 1 + rng.Intn(4)
			s := oracleState(ds, opt)
			palette := make([]float64, 1+rng.Intn(4))
			for x := range palette {
				palette[x] = rng.Float64() / 2
			}
			for i, row := range s.dep {
				for k := range row {
					if k != i {
						row[k] = draw(palette)
					}
				}
				s.totalDep[i] = draw(palette) * float64(s.n)
			}
			s.computeIndependence(false)
			sameBits(t, fmt.Sprintf("trial %d", trial), "independence", s.indep, oracleIndependence(s))
		}
	})
}
