package truth

import (
	"math"

	"imc2/internal/model"
	"imc2/internal/numeric"
)

// This file keeps the per-task dependence pass that computeDependence
// replaced, as the reference its closed form is tested against: every
// co-observed task adds its eq. 11–13 log terms to a per-shard partial
// matrix, and the shards are folded into the prior in shard order. It is
// the serial path of the old implementation, which was bit-identical to
// its parallel path. It reads the same state (accW, truth, agreement,
// logPriorRatio).

// oracleDepShardSize and oracleMaxDepShards fix the old shard layout.
const (
	oracleDepShardSize = 256
	oracleMaxDepShards = 16
)

func oracleDepShardCount(m int) int {
	s := (m + oracleDepShardSize - 1) / oracleDepShardSize
	return max(1, min(s, oracleMaxDepShards))
}

// oracleComputeDependence overwrites s.dep and s.totalDep the way the
// per-task pass did.
func oracleComputeDependence(s *state) {
	shards := oracleDepShardCount(s.m)
	acc, partial := newFilledMatrix(s.n, s.n, s.logPriorRatio), newZeroMatrix(s.n, s.n)
	for sh := 0; sh < shards; sh++ {
		lo, hi := sh*s.m/shards, (sh+1)*s.m/shards
		oracleAccumulate(s, partial, lo, hi)
		for i := range acc {
			for k := range acc[i] {
				acc[i][k] += partial[i][k]
			}
		}
	}
	for i := 0; i < s.n; i++ {
		for k := 0; k < s.n; k++ {
			if i == k {
				s.dep[i][k] = 0
				continue
			}
			s.dep[i][k] = numeric.Sigmoid(-acc[i][k])
		}
	}
	for i := 0; i < s.n; i++ {
		var sum numeric.KahanSum
		for k := 0; k < s.n; k++ {
			if k != i {
				sum.Add(s.dep[i][k] + s.dep[k][i])
			}
		}
		s.totalDep[i] = sum.Sum()
	}
}

// oracleAccumulate adds the evidence of tasks [lo, hi) into partial
// (zeroed first); partial[i][k] accumulates the i→k hypothesis.
func oracleAccumulate(s *state, partial [][]float64, lo, hi int) {
	r := s.opt.CopyProb
	logOneMinusR := math.Log1p(-r)
	for i := range partial {
		for k := range partial[i] {
			partial[i][k] = 0
		}
	}
	for j := lo; j < hi; j++ {
		ws := s.ds.TaskWorkers(j)
		if len(ws) < 2 {
			continue
		}
		agree := s.agreement[j]
		et := s.truth[j]
		for a := 0; a < len(ws); a++ {
			i := ws[a]
			vi := s.ds.ValueOf(i, j)
			ai := clampAcc(s.accW[i])
			for b := a + 1; b < len(ws); b++ {
				k := ws[b]
				vk := s.ds.ValueOf(k, j)
				ak := clampAcc(s.accW[k])
				switch {
				case vi != vk:
					partial[i][k] -= logOneMinusR
					partial[k][i] -= logOneMinusR
				case vi == et:
					ps := ai * ak
					logPs := math.Log(ps)
					partial[i][k] += logPs - math.Log(ak*r+ps*(1-r))
					partial[k][i] += logPs - math.Log(ai*r+ps*(1-r))
				default:
					pf := (1 - ai) * (1 - ak) * agree
					logPf := math.Log(pf)
					partial[i][k] += logPf - math.Log((1-ak)*r+pf*(1-r))
					partial[k][i] += logPf - math.Log((1-ai)*r+pf*(1-r))
				}
			}
		}
	}
}

// oracleDiscover runs DATE exactly as Engine.Step does, with the old
// dependence pass in place of computeDependence. It stops by the
// engine's own predicate (truthHistory.stop), so both runs have the same
// length and the comparison stays one of passes.
func oracleDiscover(ds *model.Dataset, opt Options) *Result {
	s := newState(ds, opt, opt.falseModelOrUniform())
	s.dep = newFilledMatrix(s.n, s.n, opt.PriorDependence)
	s.totalDep = make([]float64, s.n)
	var hist truthHistory
	res := &Result{Method: MethodDATE}
	for res.Iterations < opt.MaxIterations && !res.Converged {
		res.Iterations++
		hist.record(s.truth)
		oracleComputeDependence(s)
		s.computeIndependence(false)
		s.estimate()
		_, res.Converged = hist.stop(s.truth)
	}
	res.Truth, res.Accuracy, res.TaskIndependence, res.Dependence = s.truth, s.acc, s.indep, s.dep
	return res
}
