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
// count serves both directions. An iteration costs O(n·G) logarithms
// for the per-worker terms, integer counting over the co-observed pairs,
// and one sigmoid per ordered pair that shares a value. A pair with no
// shared value (t = f = 0) depends on d alone, so its posterior comes
// from a per-engine table; d = 0, a pair that never co-observes, is the
// prior, Sigmoid(−ln((1−α)/α)).
//
// Integer counts and a fixed-order closed form per cell make the result
// independent of the parallelism degree and of which goroutine counts
// which row.
func (s *state) computeDependence() {
	// The §IV-A completion: with SimilarityInDependence, values that are
	// presentations of each other classify as the same value, and
	// presentations of the estimated truth classify as true. Without it,
	// systematic spelling variance manufactures shared-"false" values —
	// the copier signature — between honest workers (ablation A2).
	equiv := s.valueEquivalence()
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

	// Row-owned: unit i counts its pairs with every k > i into its slot's
	// count row and writes both dep[i][k] and dep[k][i], so no two units
	// share a cell. A count row holds, per k, [different, same-true,
	// same-false per agreement class].
	w := 2 + nc
	rows := s.depCountSlots(w)
	s.doSlots(s.n, func(slot, i int) {
		cnt := rows[slot]
		clear(cnt[(i+1)*w:])
		for t, j := range s.ds.WorkerTasks(i) {
			ws, vals := s.ds.TaskWorkers(j), ix.vals[j]
			p := int(ix.pos[i][t])
			vi := vals[p]
			// TaskWorkers is ascending, so i is the lower-index worker of
			// every pair counted here and vi decides true versus false
			// (which matters only under a non-transitive similarity).
			sameCol := 2 + int(ix.class[j])
			if vi == s.truth[j] || (equiv != nil && equiv.same(j, vi, s.truth[j])) {
				sameCol = 1
			}
			for b := p + 1; b < len(ws); b++ {
				col := 0
				if vk := vals[b]; vk == vi || (equiv != nil && equiv.same(j, vi, vk)) {
					col = sameCol
				}
				cnt[ws[b]*w+col]++
			}
		}

		dep, tau, phi, lr0 := s.dep, s.depTau, s.depPhi, s.logPriorRatio
		row := dep[i]
		row[i] = 0
		for k := i + 1; k < s.n; k++ {
			c := cnt[k*w : (k+1)*w]
			d, t, fs := c[0], c[1], c[2:]
			if t == 0 && !slices.ContainsFunc(fs, func(f int32) bool { return f > 0 }) {
				row[k], dep[k][i] = ix.disagree[d], ix.disagree[d]
				continue
			}
			lrIK := lr0 + float64(d)*ix.delta + float64(t)*tau[i]
			lrKI := lr0 + float64(d)*ix.delta + float64(t)*tau[k]
			for cl, f := range fs {
				lrIK += float64(f) * phi[i*nc+cl]
				lrKI += float64(f) * phi[k*nc+cl]
			}
			row[k], dep[k][i] = numeric.Sigmoid(-lrIK), numeric.Sigmoid(-lrKI)
		}
	})

	// Cache Σ_{k≠i} dep[i][k] + dep[k][i] for the ordering seed
	// (Algorithm 1 line 16). Row-parallel over the finished posterior.
	s.do(s.n, func(i int) {
		var sum numeric.KahanSum
		for k := 0; k < s.n; k++ {
			if k == i {
				continue
			}
			sum.Add(s.dep[i][k] + s.dep[k][i])
		}
		s.totalDep[i] = sum.Sum()
	})
}

// depIndex is the dataset-derived layout the dependence pass counts
// over, built once per engine (the dataset is immutable).
type depIndex struct {
	// vals[j][b] is the value worker TaskWorkers(j)[b] gave for task j.
	vals [][]int32
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
		vals:  make([][]int32, s.m),
		pos:   make([][]int32, s.n),
		class: make([]int32, s.m),
	}
	// Both layouts hold one entry per observation; carve them from one
	// backing array each.
	backing := make([]int32, 2*s.ds.NumObservations())
	for i := range ix.pos {
		nt := len(s.ds.WorkerTasks(i))
		ix.pos[i], backing = backing[:0:nt], backing[nt:]
	}
	for j := 0; j < s.m; j++ {
		ws := s.ds.TaskWorkers(j)
		ix.vals[j], backing = backing[:len(ws):len(ws)], backing[len(ws):]
		for b, k := range ws {
			ix.vals[j][b] = s.ds.ValueOf(k, j)
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
