package model

import "fmt"

// Cell is one answer in index form: the task's index in the task list
// and the value's index in that task's value dictionary.
type Cell struct {
	Task, Val int32
}

// Rows is a submission log in index form, one row per worker. Row i —
// the answers of Workers[i] — is Cells[Offsets[i]:Offsets[i+1]], in any
// order but with at most one cell per task. Values[j] is task j's value
// dictionary in first-appearance order over the rows. A dictionary may
// run past the values the rows use, so the dictionaries of a growing log
// serve every prefix of it.
type Rows struct {
	Workers []string
	Offsets []int
	Cells   []Cell
	Values  [][]string
}

// FromRows compiles index-form rows over tasks into a dataset; taskIdx
// maps each task ID to its index in tasks. The result equals what a
// Builder compiles from the same answers added row by row — same
// worker, task and value indices — without hashing an answer or sorting
// anything (only worker IDs are hashed, into the WorkerIndex map):
// TaskWorkers and TaskValues are filled in worker order, then
// WorkerTasks and WorkerValues in task order by walking the task lists.
// Every layout holds one entry per observation; nothing is allocated per
// unanswered (worker, task) cell.
//
// The dataset shares tasks, taskIdx, Workers and the used prefix of each
// Values dictionary with the caller, who must not modify them (appending
// past their current lengths is fine).
func FromRows(tasks []Task, taskIdx map[string]int, r Rows) (*Dataset, error) {
	n, m := len(r.Workers), len(tasks)
	if m == 0 {
		return nil, fmt.Errorf("model: dataset has no tasks")
	}
	if n == 0 {
		return nil, fmt.Errorf("model: dataset has no observations")
	}
	if len(r.Offsets) != n+1 || len(r.Values) != m || r.Offsets[0] != 0 || r.Offsets[n] > len(r.Cells) {
		return nil, fmt.Errorf("model: malformed rows: %d workers need %d offsets starting at 0 and %d value dictionaries, got %d and %d",
			n, n+1, m, len(r.Offsets), len(r.Values))
	}
	workerIdx := make(map[string]int, n)
	for i, w := range r.Workers {
		if w == "" {
			return nil, fmt.Errorf("model: row %d has an empty worker ID", i)
		}
		if _, dup := workerIdx[w]; dup {
			return nil, fmt.Errorf("model: worker %q has two rows", w)
		}
		workerIdx[w] = i
	}

	total := r.Offsets[n]
	d := &Dataset{
		tasks:          tasks,
		workers:        r.Workers[:n:n],
		taskIdx:        taskIdx,
		workerIdx:      workerIdx,
		values:         make([][]string, m),
		perWorkerTasks: make([][]int, n),
		workerVals:     make([][]int32, n),
		perTaskWorkers: make([][]int, m),
		taskVals:       make([][]int32, m),
		observations:   total,
	}
	counts := make([]int, m)
	used := make([]int32, m) // 1 + the largest value index the rows use
	seen := make([]int32, m) // seen[j] == i+1: row i already answered task j
	for i := 0; i < n; i++ {
		lo, hi := r.Offsets[i], r.Offsets[i+1]
		if lo >= hi || hi > total {
			return nil, fmt.Errorf("model: worker %q has no answers (row offsets %d..%d)", r.Workers[i], lo, hi)
		}
		stamp := int32(i + 1)
		for k, c := range r.Cells[lo:hi] {
			if c.Task < 0 || int(c.Task) >= m || c.Val < 0 || int(c.Val) >= len(r.Values[c.Task]) || seen[c.Task] == stamp {
				return nil, fmt.Errorf("model: worker %q answer %d (task %d, value %d) is out of range or repeats a task",
					r.Workers[i], k, c.Task, c.Val)
			}
			seen[c.Task] = stamp
			counts[c.Task]++
			if c.Val >= used[c.Task] {
				used[c.Task] = c.Val + 1
			}
		}
	}
	// Fill the flat arrays through per-list cursors, then cut them into
	// the per-task and per-worker lists. The counts become cursors at
	// each task's first slot (next); wnext[i] starts at row i's.
	taskWorkers, taskVals := make([]int, total), make([]int32, total)
	next, off := counts, 0
	for j, c := range counts {
		next[j] = off
		off += c
		d.values[j] = r.Values[j][:used[j]:used[j]]
	}
	for i := 0; i < n; i++ {
		for _, c := range r.Cells[r.Offsets[i]:r.Offsets[i+1]] {
			k := next[c.Task]
			next[c.Task]++
			taskWorkers[k], taskVals[k] = i, c.Val
		}
	}
	workerTasks, workerVals := make([]int, total), make([]int32, total)
	wnext := append([]int(nil), r.Offsets[:n]...)
	lo := 0
	for j, hi := range next { // next[j] is now the end of task j's slots
		for k := lo; k < hi; k++ {
			i := taskWorkers[k]
			p := wnext[i]
			wnext[i]++
			workerTasks[p], workerVals[p] = j, taskVals[k]
		}
		d.perTaskWorkers[j] = taskWorkers[lo:hi:hi]
		d.taskVals[j] = taskVals[lo:hi:hi]
		lo = hi
	}
	for i := range d.perWorkerTasks {
		lo, hi := r.Offsets[i], r.Offsets[i+1]
		d.perWorkerTasks[i] = workerTasks[lo:hi:hi]
		d.workerVals[i] = workerVals[lo:hi:hi]
	}
	return d, nil
}
