package truth

import "imc2/internal/randx"

// computeIndependence is step 2 of Algorithm 1: for every task j and every
// value v, it estimates I — the probability that each provider of v
// produced the value independently rather than copying it from another
// provider of v (eq. 16).
//
// Exact computation must consider every possible dependence structure
// inside the provider group W, which is exponential; DATE orders the group
// greedily instead:
//
//  1. seed with the provider with the globally lowest total dependence
//     probability (Algorithm 1 line 16),
//  2. repeatedly append the provider with the maximal dependence on any
//     already-ordered provider (line 19),
//  3. give each appended provider I = Π_{k ordered before} (1 − r·P(i→k|D))
//     (line 20).
//
// When exact is true (MethodED), the greedy ordering is replaced by
// averaging I over all |W|! orderings for groups up to edExactLimit and
// over edSamples deterministic random orderings for larger groups.
func (s *state) computeIndependence(exact bool) {
	// Task-parallel: task j only writes its own independence row, and
	// per-group results never mix across tasks, so the schedule cannot
	// affect the output. Each pool slot owns the greedy pass's scratch.
	// A group lists its providers by position in TaskWorkers(j), which
	// is ascending by worker, so position order is worker order.
	scratch := s.indScratchSlots()
	s.doSlots(s.m, func(slot, j int) {
		sc := scratch[slot]
		vals := s.ds.TaskValues(j)
		for v := range s.ds.Values(j) {
			group := sc.providers[:0]
			for b, vb := range vals {
				if vb == int32(v) {
					group = append(group, b)
				}
			}
			sc.providers = group
			switch {
			case len(group) == 0:
				continue
			case len(group) == 1:
				s.indep[j][group[0]] = 1
			case exact:
				s.independenceByEnumeration(j, group)
			default:
				s.independenceGreedy(j, group, sc)
			}
		}
	})
}

// indScratch is one pool slot's reusable buffers for the greedy ordering:
// the provider group and one greedySlot per provider of it.
type indScratch struct {
	providers []int
	slots     []greedySlot
}

// greedySlot is a provider the greedy ordering has not placed yet: its
// position in TaskWorkers(j), its dependence row, and its maximal
// dependence on and eq. 16 product over the ordered prefix.
type greedySlot struct {
	pos        int
	row        []float64
	best, prod float64
}

// indScratchSlots lazily allocates one scratch set per pool slot,
// reusing them across iterations.
func (s *state) indScratchSlots() []*indScratch {
	if s.indScratch == nil {
		s.indScratch = make([]*indScratch, s.par)
		for slot := range s.indScratch {
			s.indScratch[slot] = &indScratch{}
		}
	}
	return s.indScratch
}

func (sc *indScratch) ensure(g int) {
	if cap(sc.slots) < g {
		sc.slots = make([]greedySlot, g)
	}
}

// tieTolerance is the relative gap below which the greedy ordering
// treats two dependence posteriors as equal.
const tieTolerance = 1e-12

// independenceGreedy implements lines 16–22 of Algorithm 1 for one
// provider group, given as positions in TaskWorkers(j), ascending.
//
// Every provider not yet ordered keeps a slot with its maximal
// dependence on the ordered prefix and its eq. 16 product over that
// prefix, multiplied in join order. When provider y joins, its slot is
// spliced out and one pass over the others reads each dep[x][y] once: it
// multiplies x's product by 1 − r·dep[x][y], raises x's maximum, and
// picks the provider that joins next, whose I is then its product as it
// stands. Each in-group cell is read at most once.
func (s *state) independenceGreedy(j int, group []int, sc *indScratch) {
	r := s.opt.CopyProb
	ws, ind := s.ds.TaskWorkers(j), s.indep[j]
	sc.ensure(len(group))

	// Seed: the provider with minimal total dependence (most plausibly
	// independent), ties to the lower worker index for determinism. It
	// joins first, over an empty prefix, so its I is 1.
	bestPos := 0
	for p := 1; p < len(group); p++ {
		if s.totalDep[ws[group[p]]] < s.totalDep[ws[group[bestPos]]] {
			bestPos = p
		}
	}
	slots := sc.slots[:len(group)]
	for p, b := range group {
		slots[p] = greedySlot{pos: b, row: s.dep[ws[b]], prod: 1}
	}

	for len(slots) > 0 {
		joined := slots[bestPos]
		ind[joined.pos] = joined.prod // I = Π over the ordered prefix (eq. 16)
		y := ws[joined.pos]
		slots = append(slots[:bestPos], slots[bestPos+1:]...)

		// Pick the next provider with maximal dependence on the ordered
		// set, ties to the lower worker index: the slots stay ascending.
		// Posteriors within tieTolerance of each other are ties: two
		// copiers of one source have the same posterior up to the
		// rounding of their sums, and that rounding must not decide the
		// order. Posteriors are non-negative, so any beats −1.
		beat := -1.0
		for p := range slots {
			sl := &slots[p]
			d := sl.row[y]
			sl.prod *= 1 - r*d
			if d > sl.best {
				sl.best = d
			}
			if sl.best > beat {
				bestPos, beat = p, sl.best*(1+tieTolerance)
			}
		}
	}
}

// ED enumerates every ordering of a provider group of up to
// edExactLimit workers and samples edSamples orderings of a larger one.
// 720 = 6!, so a sampled group gets as many orderings as the largest
// enumerated one.
const (
	edExactLimit = 6
	edSamples    = 720
)

// independenceByEnumeration averages I over orderings of the provider
// group: exactly (all permutations) for small groups, or over a
// deterministic sample of random orderings for large ones. This is the ED
// baseline of §VII-A; its cost grows factorially with the group size.
func (s *state) independenceByEnumeration(j int, group []int) {
	r := s.opt.CopyProb
	ws := s.ds.TaskWorkers(j)
	g := len(group)
	sums := make([]float64, g)
	count := 0

	accumulate := func(perm []int) {
		// perm is an ordering of positions into group; position 0 is fully
		// independent, later positions discount against predecessors.
		for pos := 1; pos < g; pos++ {
			i := ws[group[perm[pos]]]
			prod := 1.0
			for q := 0; q < pos; q++ {
				prod *= 1 - r*s.dep[i][ws[group[perm[q]]]]
			}
			sums[perm[pos]] += prod
		}
		sums[perm[0]] += 1
		count++
	}

	if g <= edExactLimit {
		perm := make([]int, g)
		for i := range perm {
			perm[i] = i
		}
		permute(perm, 0, accumulate)
	} else {
		// Deterministic sampling: the stream depends only on the group's
		// identity, keeping ED reproducible run to run. randx.New wraps
		// the same generator the previous direct math/rand use did, so
		// sampled-ED results are bit-identical across the migration.
		seed := int64(j)*1_000_003 + int64(ws[group[0]])*31 + int64(g)
		rng := randx.New(seed)
		perm := make([]int, g)
		for i := range perm {
			perm[i] = i
		}
		for k := 0; k < edSamples; k++ {
			rng.Shuffle(g, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			accumulate(perm)
		}
	}

	for pos, b := range group {
		s.indep[j][b] = sums[pos] / float64(count)
	}
}

// permute invokes visit with every permutation of xs[k:] (Heap-style
// recursive generation; xs is reused between calls).
func permute(xs []int, k int, visit func([]int)) {
	if k == len(xs)-1 {
		visit(xs)
		return
	}
	for i := k; i < len(xs); i++ {
		xs[k], xs[i] = xs[i], xs[k]
		permute(xs, k+1, visit)
		xs[k], xs[i] = xs[i], xs[k]
	}
}
