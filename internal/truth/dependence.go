package truth

import (
	"math"
	"slices"

	"imc2/internal/numeric"
)

// computeDependence is step 1 of Algorithm 1: for every ordered worker
// pair (i, k) it computes P(i→k | D), the posterior probability that i
// copies from k, via the Bayesian analysis of eq. 7–15.
//
// The per-pair evidence decomposes over the tasks both workers answered:
//
//	same true value  (t ∈ Ts): indep term Ps = Aᵢ·Aₖ
//	                           dep term      Aₖ·r + Ps·(1−r)        (eq. 11)
//	same false value (t ∈ Tf): indep term Pf = (1−Aᵢ)(1−Aₖ)·agree
//	                           dep term      (1−Aₖ)·r + Pf·(1−r)    (eq. 12)
//	different values (t ∈ Td): both terms share Pd, leaving −ln(1−r) (eq. 13)
//
// where agree is the false-value agreement probability (1/num under the
// uniform model of §II-B, generalized by eq. 22). The posterior follows
// eq. 15:
//
//	P(i→k|D) = sigmoid(−[ln((1−α)/α) + Σ_t (ln indepTerm − ln depTerm)])
//
// Every term cancels the source's accuracy Aₖ, so a task's contribution
// to the i→k log-ratio depends only on its class and on Aᵢ:
//
//	same true:  ln(AᵢAₖ) − ln(Aₖ(r + Aᵢ(1−r)))          = τᵢ
//	            τᵢ = ln Aᵢ − ln(r + Aᵢ(1−r))
//	same false: ln((1−Aᵢ)(1−Aₖ)g) − ln((1−Aₖ)(r + (1−Aᵢ)g(1−r))) = φᵢ(g)
//	            φᵢ(g) = ln((1−Aᵢ)g) − ln(r + (1−Aᵢ)g(1−r))
//	different:  δ = −ln(1−r)
//
// so, with d, t and f^g the numbers of co-observed tasks in each class
// (g running over the distinct agreement values),
//
//	ln-ratio(i→k) = ln((1−α)/α) + d·δ + t·τᵢ + Σ_g f^g·φᵢ(g)
//
// and k→i is the same with τₖ and φₖ. The counts are symmetric, so one
// count serves both directions.
//
// Cost. Whether two workers share a value on some co-observed task does
// not depend on the truth, and neither does d: the truth only moves a
// shared value between the same-true and same-false columns. So the pass
// keeps a pair table (pairTable), built once per engine. The first pass
// counts every pair by row-parallel integer counting, keeps each row's
// value-sharing partners, and evaluates both directions of those pairs
// straight from the counts, which is all a one-iteration run needs. A
// pair that shares no value has the posterior disagree[d], which
// depends on neither truth nor accuracy (the prior when d = 0); the
// first pass writes those cells and no later pass touches them. The
// second pass counts once more, serially, and interns each value-sharing
// pair's tuple (d, t, f^g…) in both workers' partner lists. From then
// on an iteration costs:
//
//   - O(n·G) logarithms for the per-worker terms;
//   - integer tuple moves for the pairs of the tasks whose truth changed
//     since the table last counted: a move swaps the pair's tuple ID in
//     both workers' lists, and is exact for any number of changed tasks;
//   - one sigmoid per distinct (worker, tuple): a posterior depends only
//     on the worker's τ/φ and the tuple, so a row fill memoizes it by
//     tuple ID (depMemo), and unit i writes row i alone;
//   - the totalDep sums, which read the columns four rows at a time.
//
// Integer counts and a fixed-order closed form per cell make the result
// independent of the parallelism degree and of which goroutine counts
// which row, and equal, bit for bit, to recounting and re-evaluating
// every pair each iteration.
func (s *state) computeDependence() {
	ix := s.depIndex()
	r := s.opt.CopyProb
	nc := len(ix.agree)
	for i := 0; i < s.n; i++ {
		ai := clampAcc(s.accW[i])
		s.depTau[i] = math.Log(ai) - math.Log(r+ai*(1-r))
		for c, agree := range ix.agree {
			pf := (1 - ai) * agree
			s.depPhi[i*nc+c] = math.Log(pf) - math.Log(r+pf*(1-r))
		}
	}

	if s.pairs == nil {
		s.buildPairs(ix)
	} else {
		s.pairs.sync(s, ix)
		pt, memos := s.pairs, s.depMemoSlots()
		s.doSlots(s.n, func(slot, i int) {
			pt.fillRow(s, ix, i, memos[slot])
		})
		s.depEvals = 0
		for _, m := range memos {
			s.depEvals += m.evals
			m.evals = 0
		}
	}
	s.sumDependence()
}

// pairPosterior is P(i→k | D) for a value-sharing pair with tuple c.
func (s *state) pairPosterior(ix *depIndex, i int, c []int32) float64 {
	nc := len(ix.agree)
	d, t, fs := c[0], c[1], c[2:]
	lr := s.logPriorRatio + float64(d)*ix.delta + float64(t)*s.depTau[i]
	for cl, f := range fs {
		lr += float64(f) * s.depPhi[i*nc+cl]
	}
	return numeric.Sigmoid(-lr)
}

// sumDependence caches Σ_{k≠i} dep[i][k] + dep[k][i] for the ordering
// seed (Algorithm 1 line 16). A unit sums four consecutive rows in
// lockstep: the column reads dep[k][i…i+4) share a cache line and the
// four Kahan chains overlap, while each row still adds its terms in k
// order.
func (s *state) sumDependence() {
	dep := s.dep
	s.do((s.n+3)/4, func(blk int) {
		lo := 4 * blk
		if lo+4 > s.n {
			for i := lo; i < s.n; i++ {
				var sum numeric.KahanSum
				for k, row := range dep {
					if k != i {
						sum.Add(dep[i][k] + row[i])
					}
				}
				s.totalDep[i] = sum.Sum()
			}
			return
		}
		n := len(dep)
		r0, r1, r2, r3 := dep[lo][:n], dep[lo+1][:n], dep[lo+2][:n], dep[lo+3][:n]
		var s0, s1, s2, s3 numeric.KahanSum
		for k, row := range dep {
			c := row[lo : lo+4 : lo+4]
			if uint(k-lo) < 4 {
				// The block's own columns: each row skips its diagonal.
				if k != lo {
					s0.Add(r0[k] + c[0])
				}
				if k != lo+1 {
					s1.Add(r1[k] + c[1])
				}
				if k != lo+2 {
					s2.Add(r2[k] + c[2])
				}
				if k != lo+3 {
					s3.Add(r3[k] + c[3])
				}
				continue
			}
			s0.Add(r0[k] + c[0])
			s1.Add(r1[k] + c[1])
			s2.Add(r2[k] + c[2])
			s3.Add(r3[k] + c[3])
		}
		s.totalDep[lo], s.totalDep[lo+1], s.totalDep[lo+2], s.totalDep[lo+3] = s0.Sum(), s1.Sum(), s2.Sum(), s3.Sum()
	})
}

// pairTable holds the co-observation tuple of every value-sharing worker
// pair, counted under the truth vector counted. A tuple is
// [different, same-true, same-false per agreement class].
type pairTable struct {
	// w is the tuple width, 2 + the number of agreement classes.
	w int
	// hi[i] lists, ascending, the workers k > i that share a value with
	// i. The set never changes.
	hi [][]int32
	// Once indexed (upOff non-nil), the pair (i, hi[i][x]) has interned
	// tuple upTup[upOff[i]+x]. Worker k's lower-index partners,
	// ascending, are loK[loOff[k]:loOff[k+1]], with the same pairs' tuple
	// IDs alongside in loTup.
	upOff []int32
	upTup []int32
	loOff []int32
	loK   []int32
	loTup []int32
	// tuples[u*w:(u+1)*w] is interned tuple u, and ids an open-addressing
	// table of tuple IDs (−1 when empty) kept at most half full. moved
	// is move scratch.
	tuples []int32
	ids    []int32
	moved  []int32
	// counted is the truth vector the tuples reflect, and sharing the
	// number of value-sharing pairs.
	counted []int32
	sharing int
}

// buildPairs is the first pass: it counts every row under the current
// truth, finds each row's value-sharing partners, writes the final
// posterior of every other pair and the zero diagonal, and writes both
// directions of every value-sharing pair's posterior straight from the
// counts. The counts are not kept: a run that stops after one pass needs
// no index, and index counts again when a second pass needs one.
func (s *state) buildPairs(ix *depIndex) {
	w := 2 + len(ix.agree)
	pt := &pairTable{w: w, hi: make([][]int32, s.n), counted: slices.Clone(s.truth)}
	rows := s.depCountSlots(w)
	s.doSlots(s.n, func(slot, i int) {
		cnt := rows[slot]
		s.countRow(ix, i, cnt)
		pt.hi[i] = s.splitRow(ix, i, cnt, w)
		dep := s.dep
		for _, k := range pt.hi[i] {
			c := cnt[int(k)*w : int(k+1)*w]
			dep[i][k], dep[k][i] = s.pairPosterior(ix, i, c), s.pairPosterior(ix, int(k), c)
		}
	})
	for _, hi := range pt.hi {
		pt.sharing += len(hi)
	}
	s.pairs = pt
	s.depEvals = 2 * pt.sharing
}

// splitRow writes row i's diagonal and the posterior of each pair (i, k),
// k > i, that shares no value, and returns the value-sharing partners.
func (s *state) splitRow(ix *depIndex, i int, cnt []int32, w int) []int32 {
	dep := s.dep
	dep[i][i] = 0
	shared := 0
	for k := i + 1; k < s.n; k++ {
		if c := cnt[k*w : (k+1)*w]; sharesValue(c) {
			shared++
		} else {
			dep[i][k], dep[k][i] = ix.disagree[c[0]], ix.disagree[c[0]]
		}
	}
	hi := make([]int32, 0, shared)
	for k := i + 1; len(hi) < shared; k++ {
		if sharesValue(cnt[k*w : (k+1)*w]) {
			hi = append(hi, int32(k))
		}
	}
	return hi
}

// sharesValue reports whether a counted tuple has any same-value task.
func sharesValue(c []int32) bool {
	return slices.ContainsFunc(c[1:], func(f int32) bool { return f > 0 })
}

// countRow counts, into cnt[k*w:(k+1)*w] for every k > i, the tasks
// workers i and k co-observed, classified under the current truth. Two
// workers share a value only when they gave the same value index:
// presentation variants are the estimate's concern (eq. 21) or are
// merged before inference (MergePresentations).
//
// Whether a later provider gave i's value is unpredictable, so the
// column is selected without a branch: value indices are non-negative,
// so uint32(x^vi)−1 has its top bit set exactly when x == vi.
func (s *state) countRow(ix *depIndex, i int, cnt []int32) {
	w := 2 + len(ix.agree)
	clear(cnt[(i+1)*w:])
	for t, j := range s.ds.WorkerTasks(i) {
		ws, vals := s.ds.TaskWorkers(j), s.ds.TaskValues(j)
		p := int(ix.pos[i][t])
		vi := vals[p]
		sameCol := s.sameColumn(ix, j, vi, s.truth[j])
		later, laterVals := ws[p+1:], vals[p+1:len(ws)]
		for b, k := range later {
			eq := int((uint32(laterVals[b]^vi) - 1) >> 31)
			cnt[k*w+eq*sameCol]++
		}
	}
}

// sameColumn is the tuple column of a shared value v on task j when the
// task's truth is et: 1 (same true) when v is the truth, otherwise task
// j's same-false class.
func (s *state) sameColumn(ix *depIndex, j int, v, et int32) int {
	if v == et {
		return 1
	}
	return 2 + int(ix.class[j])
}

// sync brings the partner lists up to the current truth. The first call
// indexes the table under it; each later call, for every task whose
// truth moved since the last, moves one count between columns of every
// value-sharing pair whose lower worker's value changes class.
func (pt *pairTable) sync(s *state, ix *depIndex) {
	if pt.upOff == nil {
		pt.index(s, ix)
		return
	}
	for j, et := range s.truth {
		if old := pt.counted[j]; et != old {
			pt.move(s, ix, j, old, et)
			pt.counted[j] = et
		}
	}
}

// index counts every row under the current truth, interns each pair's
// tuple and lays out both workers' partner lists, each ascending by
// partner. It runs serially, once per table, so one count row serves
// every row and no counts are stored.
func (pt *pairTable) index(s *state, ix *depIndex) {
	n, w := len(pt.hi), pt.w
	pt.upOff, pt.loOff = make([]int32, n+1), make([]int32, n+1)
	for i, hi := range pt.hi {
		pt.upOff[i+1] = pt.upOff[i] + int32(len(hi))
		for _, k := range hi {
			pt.loOff[k+1]++
		}
	}
	for k := 0; k < n; k++ {
		pt.loOff[k+1] += pt.loOff[k]
	}
	pt.upTup = make([]int32, pt.sharing)
	pt.loK, pt.loTup = make([]int32, pt.sharing), make([]int32, pt.sharing)
	cnt := s.depCountSlots(w)[0]
	// Rows are visited in ascending order, so every lower-partner list
	// fills ascending.
	next := slices.Clone(pt.loOff[:n])
	for i, hi := range pt.hi {
		s.countRow(ix, i, cnt)
		for x, k := range hi {
			u := pt.intern(cnt[int(k)*w : int(k+1)*w])
			pt.upTup[int(pt.upOff[i])+x] = u
			pt.loK[next[k]], pt.loTup[next[k]] = int32(i), u
			next[k]++
		}
	}
	copy(pt.counted, s.truth)
}

// intern returns tuple c's ID, adding it if new.
func (pt *pairTable) intern(c []int32) int32 {
	if 2*(len(pt.tuples)/pt.w+1) > len(pt.ids) {
		pt.rehash(max(64, 2*len(pt.ids)))
	}
	mask := uint32(len(pt.ids) - 1)
	for h := hashTuple(c) & mask; ; h = (h + 1) & mask {
		u := pt.ids[h]
		if u < 0 {
			u = int32(len(pt.tuples) / pt.w)
			pt.tuples = append(pt.tuples, c...)
			pt.ids[h] = u
			return u
		}
		if slices.Equal(pt.tuple(u), c) {
			return u
		}
	}
}

// rehash rebuilds ids with size slots (a power of two).
func (pt *pairTable) rehash(size int) {
	pt.ids = make([]int32, size)
	for h := range pt.ids {
		pt.ids[h] = -1
	}
	mask := uint32(size - 1)
	for u := 0; u < len(pt.tuples)/pt.w; u++ {
		h := hashTuple(pt.tuple(int32(u))) & mask
		for pt.ids[h] >= 0 {
			h = (h + 1) & mask
		}
		pt.ids[h] = int32(u)
	}
}

// tuple returns interned tuple u.
func (pt *pairTable) tuple(u int32) []int32 {
	return pt.tuples[int(u)*pt.w : int(u+1)*pt.w]
}

// hashTuple mixes a tuple's counts into a probe start for ids.
func hashTuple(c []int32) uint32 {
	h := uint32(0)
	for _, x := range c {
		h = (h ^ uint32(x)) * 0x9e3779b1
		h ^= h >> 15
	}
	return h
}

// move re-classifies task j's shared values from truth old to truth et.
func (pt *pairTable) move(s *state, ix *depIndex, j int, old, et int32) {
	ws, vals := s.ds.TaskWorkers(j), s.ds.TaskValues(j)
	for a, vi := range vals {
		from, to := s.sameColumn(ix, j, vi, old), s.sameColumn(ix, j, vi, et)
		if from == to {
			continue
		}
		i := ws[a]
		for b := a + 1; b < len(ws); b++ {
			if vals[b] == vi {
				k := ws[b]
				x, _ := slices.BinarySearch(pt.hi[i], int32(k))
				up := int(pt.upOff[i]) + x
				y, _ := slices.BinarySearch(pt.loK[pt.loOff[k]:pt.loOff[k+1]], int32(i))
				lo := int(pt.loOff[k]) + y
				moved := append(pt.moved[:0], pt.tuple(pt.upTup[up])...)
				moved[from]--
				moved[to]++
				pt.moved = moved
				u := pt.intern(moved)
				pt.upTup[up], pt.loTup[lo] = u, u
			}
		}
	}
}

// fillRow writes P(i→k | D) for every value-sharing partner k of i.
func (pt *pairTable) fillRow(s *state, ix *depIndex, i int, m *depMemo) {
	if m.gen++; m.gen == 0 {
		// The stamp wrapped: clear it so no old row's entry matches.
		clear(m.stamp)
		m.gen = 1
	}
	row := s.dep[i]
	m.fill(s, ix, pt, i, row, pt.hi[i], pt.upTup[pt.upOff[i]:pt.upOff[i+1]])
	lo, hi := pt.loOff[i], pt.loOff[i+1]
	m.fill(s, ix, pt, i, row, pt.loK[lo:hi], pt.loTup[lo:hi])
}

// depMemo is one pool slot's posterior memo, indexed by tuple ID. An
// entry is valid only for the row fill that stamped it with gen: the
// worker's τ/φ differ from row to row and from iteration to iteration.
type depMemo struct {
	gen   uint32
	stamp []uint32
	val   []float64
	// evals counts the sigmoids evaluated since the last pass.
	evals int
}

// fill sets row[ks[e]] to worker i's posterior for tuple us[e],
// evaluating each tuple on the row's first use of it.
func (m *depMemo) fill(s *state, ix *depIndex, pt *pairTable, i int, row []float64, ks, us []int32) {
	gen, stamp, val := m.gen, m.stamp, m.val
	for e, u := range us {
		if stamp[u] != gen {
			val[u] = s.pairPosterior(ix, i, pt.tuple(u))
			stamp[u] = gen
			m.evals++
		}
		row[ks[e]] = val[u]
	}
}

// depMemoSlots returns one memo per pool slot, grown to cover every
// interned tuple.
func (s *state) depMemoSlots() []*depMemo {
	if s.depMemos == nil {
		s.depMemos = make([]*depMemo, s.par)
		for slot := range s.depMemos {
			s.depMemos[slot] = &depMemo{}
		}
	}
	tuples := len(s.pairs.tuples) / s.pairs.w
	for _, m := range s.depMemos {
		if grow := tuples - len(m.stamp); grow > 0 {
			m.stamp = append(m.stamp, make([]uint32, grow)...)
			m.val = append(m.val, make([]float64, grow)...)
		}
	}
	return s.depMemos
}

// depIndex is the dataset-derived layout the dependence pass counts
// over, built once per engine (the dataset is immutable).
type depIndex struct {
	// pos[i][t] is worker i's position in TaskWorkers(WorkerTasks(i)[t]).
	pos [][]int32
	// class[j] indexes task j's false-value agreement probability in
	// agree, which lists the distinct values in first-task order.
	class []int32
	agree []float64
	// delta is δ = −ln(1−r), and disagree[d] the posterior of a pair
	// whose d co-observed tasks all differ, Sigmoid(−(ln((1−α)/α) + d·δ)),
	// up to the most tasks any worker answered.
	delta    float64
	disagree []float64
}

// depIndex returns the engine's dependence layout, building it and the
// per-worker term buffers on first use.
func (s *state) depIndex() *depIndex {
	if s.depIx != nil {
		return s.depIx
	}
	ix := &depIndex{
		pos:   make([][]int32, s.n),
		class: make([]int32, s.m),
	}
	// pos holds one entry per observation; carve it from one backing
	// array.
	backing := make([]int32, s.ds.NumObservations())
	for i := range ix.pos {
		nt := len(s.ds.WorkerTasks(i))
		ix.pos[i], backing = backing[:0:nt], backing[nt:]
	}
	for j := 0; j < s.m; j++ {
		for b, k := range s.ds.TaskWorkers(j) {
			// Tasks are visited in ascending order, which is the order
			// of every WorkerTasks list.
			ix.pos[k] = append(ix.pos[k], int32(b))
		}
		c := 0
		for c < len(ix.agree) && ix.agree[c] != s.agreement[j] {
			c++
		}
		if c == len(ix.agree) {
			ix.agree = append(ix.agree, s.agreement[j])
		}
		ix.class[j] = int32(c)
	}
	maxTasks := 0
	for i := 0; i < s.n; i++ {
		maxTasks = max(maxTasks, len(s.ds.WorkerTasks(i)))
	}
	ix.delta = -math.Log1p(-s.opt.CopyProb)
	ix.disagree = make([]float64, maxTasks+1)
	ix.disagree[0] = numeric.Sigmoid(-s.logPriorRatio)
	for d := 1; d <= maxTasks; d++ {
		ix.disagree[d] = numeric.Sigmoid(-(s.logPriorRatio + float64(d)*ix.delta))
	}
	s.depIx = ix
	s.depTau = make([]float64, s.n)
	s.depPhi = make([]float64, s.n*len(ix.agree))
	return ix
}

// depCountSlots lazily allocates one n-by-width count row per pool
// slot, reused every iteration.
func (s *state) depCountSlots(width int) [][]int32 {
	if s.depCounts == nil {
		s.depCounts = make([][]int32, s.par)
		for slot := range s.depCounts {
			s.depCounts[slot] = make([]int32, s.n*width)
		}
	}
	return s.depCounts
}
