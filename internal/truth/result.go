package truth

import (
	"imc2/internal/model"
	"imc2/internal/numeric"
)

// Result is the outcome of a truth-discovery run.
type Result struct {
	// Truth holds the estimated value index per task (model.NotAnswered
	// for tasks nobody answered).
	Truth []int32
	// Accuracy is A per observation, worker-major: Accuracy[i][t] is
	// worker i's estimated accuracy A_i^j on task j = WorkerTasks(i)[t].
	// A row holds one cell per task the worker answered (A_i^j is
	// defined only for j ∈ T_i), aligned with WorkerTasks(i) and so with
	// the auction instance's TaskSets[i].
	Accuracy [][]float64
	// TaskIndependence is I per observation, task-major:
	// TaskIndependence[j][b] is the probability that worker
	// TaskWorkers(j)[b] provided its value for task j independently (1
	// for MV/NC, which assume independence). A row holds one cell per
	// provider of the task, so the layout costs one float per answer,
	// not per worker-task cell.
	TaskIndependence [][]float64
	// Dependence[i][k] is P(i→k | D), the posterior probability that
	// worker i copies from worker k; nil for methods that do not model
	// dependence.
	Dependence [][]float64
	// Iterations is the number of refinement rounds executed.
	Iterations int
	// Converged reports whether the run stopped before MaxIterations
	// because its truth vector came back to one of its last four values:
	// the previous one (no task moved) or an earlier one (a limit cycle
	// of period 2 to 4).
	Converged bool
	// Method records which algorithm produced the result.
	Method Method
}

// TruthMap renders the estimate as taskID → value string, omitting
// unanswered tasks.
func (r *Result) TruthMap(ds *model.Dataset) map[string]string {
	out := make(map[string]string, len(r.Truth))
	for j, v := range r.Truth {
		if v == model.NotAnswered {
			continue
		}
		out[ds.Task(j).ID] = ds.ValueString(j, v)
	}
	return out
}

// WorkerAccuracy returns each worker's mean accuracy over the tasks it
// answered (0 for workers that answered nothing).
func (r *Result) WorkerAccuracy(ds *model.Dataset) []float64 {
	out := make([]float64, ds.NumWorkers())
	for i, row := range r.Accuracy {
		if len(row) == 0 {
			continue
		}
		var sum numeric.KahanSum
		for _, a := range row {
			sum.Add(a)
		}
		out[i] = sum.Sum() / float64(len(row))
	}
	return out
}

func newZeroMatrix(n, m int) [][]float64 {
	backing := make([]float64, n*m)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i], backing = backing[:m:m], backing[m:]
	}
	return rows
}

// newWorkerMatrix returns one row per worker with a cell per task it
// answered, in WorkerTasks order, every cell set to fill.
func newWorkerMatrix(ds *model.Dataset, fill float64) [][]float64 {
	backing := make([]float64, ds.NumObservations())
	for x := range backing {
		backing[x] = fill
	}
	rows := make([][]float64, ds.NumWorkers())
	for i := range rows {
		p := len(ds.WorkerTasks(i))
		rows[i], backing = backing[:p:p], backing[p:]
	}
	return rows
}

// newTaskMatrix returns one row per task with a cell per provider, in
// TaskWorkers order, every cell set to fill.
func newTaskMatrix(ds *model.Dataset, fill float64) [][]float64 {
	backing := make([]float64, ds.NumObservations())
	for x := range backing {
		backing[x] = fill
	}
	rows := make([][]float64, ds.NumTasks())
	for j := range rows {
		p := len(ds.TaskWorkers(j))
		rows[j], backing = backing[:p:p], backing[p:]
	}
	return rows
}

func newFilledMatrix(n, m int, fill float64) [][]float64 {
	rows := newZeroMatrix(n, m)
	for i := range rows {
		for j := range rows[i] {
			rows[i][j] = fill
		}
	}
	return rows
}
