package truth

import (
	"math"
	"time"

	"imc2/internal/model"
	"imc2/internal/numeric"
)

// Discover runs the selected truth-discovery method over the dataset.
// It is the one-shot form of NewEngine + Run: a resumable Engine driven
// to completion in a single call.
//
// The returned Result is self-contained; the dataset is not retained.
func Discover(ds *model.Dataset, method Method, opt Options) (*Result, error) {
	e, err := NewEngine(ds, method, opt)
	if err != nil {
		return nil, err
	}
	e.Run(0)
	return e.Result(), nil
}

// state carries one run's working data.
type state struct {
	ds  *model.Dataset
	opt Options
	fm  FalseValueModel

	n, m int
	// par is the resolved worker-pool size (opt.parallelism()).
	par int
	// exec provides the goroutines for the data-parallel passes: the
	// built-in per-run pool, or an injected shared executor
	// (opt.executor()).
	exec Executor

	acc   [][]float64 // A per observation: acc[i][t] = P_j(v_i^j), j = WorkerTasks(i)[t]
	accW  []float64   // per-worker accuracy A_i (eq. 17's average)
	logit []float64   // ln(A_i/(1−A_i)) of the clamped accW, per estimate pass
	indep [][]float64 // I: indep[j][b] for worker TaskWorkers(j)[b]
	dep   [][]float64 // dep[i][k] = P(i→k | D)
	truth []int32     // et[j]

	// accPos[j][b] is task j's position in the WorkerTasks list of
	// worker TaskWorkers(j)[b]: where the task-parallel estimate writes
	// that observation's accuracy.
	accPos [][]int32

	// depIx is computeDependence's dataset layout, built on first use
	// (the dataset is immutable). depTau/depPhi hold the per-worker log terms of the
	// current iteration. pairs is the value-sharing pair table, built by
	// the first pass and kept in step with the truth after it;
	// depCounts[slot] is one pool worker's pair-count row for counting
	// it, and depMemos[slot] its posterior memo. depEvals is how many
	// sigmoids the last pass evaluated.
	depIx     *depIndex
	depTau    []float64
	depPhi    []float64
	pairs     *pairTable
	depCounts [][]int32
	depMemos  []*depMemo
	depEvals  int

	// estScratch[slot] holds one pool worker's per-task posterior
	// buffers, lazily allocated once and reused every iteration.
	estScratch []*estScratch

	// indScratch[slot] holds one pool worker's greedy-ordering buffers
	// for computeIndependence, lazily allocated and reused likewise.
	indScratch []*indScratch

	// maxValues is max_j |V_j|, the scratch width estimate needs.
	maxValues int

	logPriorRatio float64 // log((1-α)/α)

	// totalDep[i] caches Σ_{k≠i} dep[i][k]+dep[k][i] for the ordering
	// seed of Algorithm 1 line 16.
	totalDep []float64

	// Per-task cached false-value quantities.
	agreement   []float64 // AgreementProb per task
	logMeanProb []float64 // LogMeanProb per task
}

func newState(ds *model.Dataset, opt Options, fm FalseValueModel) *state {
	n, m := ds.NumWorkers(), ds.NumTasks()
	s := &state{
		ds:   ds,
		opt:  opt,
		fm:   fm,
		n:    n,
		m:    m,
		par:  opt.parallelism(),
		exec: opt.executor(),

		acc:   newWorkerMatrix(ds, opt.InitAccuracy),
		accW:  make([]float64, n),
		logit: make([]float64, n),
		indep: newTaskMatrix(ds, 1),
		truth: make([]int32, m),

		logPriorRatio: math.Log(1-opt.PriorDependence) - math.Log(opt.PriorDependence),

		agreement:   make([]float64, m),
		logMeanProb: make([]float64, m),
	}
	for j := 0; j < m; j++ {
		if v := len(ds.Values(j)); v > s.maxValues {
			s.maxValues = v
		}
	}
	s.accPos = make([][]int32, m)
	backing := make([]int32, ds.NumObservations())
	for j := range s.accPos {
		p := len(ds.TaskWorkers(j))
		s.accPos[j], backing = backing[:0:p], backing[p:]
	}
	for i := 0; i < n; i++ {
		s.accW[i] = opt.InitAccuracy
		// Workers are visited in ascending order, which is the order of
		// every TaskWorkers list.
		for t, j := range ds.WorkerTasks(i) {
			s.accPos[j] = append(s.accPos[j], int32(t))
		}
	}
	for j := 0; j < m; j++ {
		nf := ds.Task(j).NumFalse
		s.agreement[j] = fm.AgreementProb(nf)
		s.logMeanProb[j] = fm.LogMeanProb(nf)
	}
	copy(s.truth, majorityTruth(ds))
	return s
}

// timePass runs one pass under a wall clock; only traced runs call it.
// The readings feed IterationStats telemetry, never the report — truth
// values, weights, and payments stay clock-independent.
func timePass(fn func()) float64 {
	start := time.Now() //lint:allow determinism trace-only telemetry; never feeds the report
	fn()
	return time.Since(start).Seconds() //lint:allow determinism trace-only telemetry; never feeds the report
}

// clampAcc keeps an accuracy strictly interior for the log-odds weights.
func clampAcc(a float64) float64 {
	return numeric.ClampProbOpen(a, accClampMargin)
}
