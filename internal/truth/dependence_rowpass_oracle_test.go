package truth

import (
	"math"
	"slices"

	"imc2/internal/numeric"
)

// This file keeps the row pass that the pair table replaced, as the
// reference the table is held to bit for bit. Every call recounts all
// co-observed pairs under the current truth, visits all n² pairs, calls
// the sigmoid twice per value-sharing pair, writes dep[k][i] down a
// column and Kahan-sums totalDep column-wise. It shares the engine's
// dataset layout (depIndex), which depends on the dataset alone, and
// owns its count rows.

// rowPassDependence overwrites s.dep, s.totalDep and the per-worker log
// terms exactly as the row pass did.
func rowPassDependence(s *state) {
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
	// count row and writes both dep[i][k] and dep[k][i].
	w := 2 + nc
	rows := make([][]int32, s.par)
	for slot := range rows {
		rows[slot] = make([]int32, s.n*w)
	}
	s.doSlots(s.n, func(slot, i int) {
		cnt := rows[slot]
		clear(cnt[(i+1)*w:])
		for t, j := range s.ds.WorkerTasks(i) {
			ws, vals := s.ds.TaskWorkers(j), s.ds.TaskValues(j)
			p := int(ix.pos[i][t])
			vi := vals[p]
			sameCol := 2 + int(ix.class[j])
			if vi == s.truth[j] {
				sameCol = 1
			}
			for b := p + 1; b < len(ws); b++ {
				col := 0
				if vals[b] == vi {
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
