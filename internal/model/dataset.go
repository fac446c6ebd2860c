package model

import (
	"fmt"
	"slices"
)

// NotAnswered marks a (worker, task) cell with no submission.
const NotAnswered = int32(-1)

// Dataset is the compiled, immutable snapshot of all submissions for one
// campaign. Every entity is index-addressed; string identities live at
// the boundary. Answers are stored once per observation, in two aligned
// layouts: task-major (TaskWorkers with TaskValues) and worker-major
// (WorkerTasks with WorkerValues). Nothing is stored per unanswered
// (worker, task) cell, so a dataset costs O(n + m + observations).
type Dataset struct {
	tasks     []Task
	workers   []string
	taskIdx   map[string]int
	workerIdx map[string]int

	// values[j] lists the distinct values observed for task j in first-
	// appearance order.
	values [][]string

	// perWorkerTasks[i] lists the task indices worker i answered (T_i),
	// ascending; workerVals[i][t] is the value index worker i gave for
	// task perWorkerTasks[i][t].
	perWorkerTasks [][]int
	workerVals     [][]int32
	// perTaskWorkers[j] lists the worker indices that answered task j
	// (W^j), ascending; taskVals[j][b] is the value index worker
	// perTaskWorkers[j][b] gave for task j.
	perTaskWorkers [][]int
	taskVals       [][]int32

	observations int
}

// Builder accumulates tasks and observations and compiles them into a
// Dataset. The zero value is not usable; construct with NewBuilder.
type Builder struct {
	tasks    []Task
	taskIdx  map[string]int
	obs      []Observation
	seenCell map[[2]string]bool
	err      error
}

// NewBuilder returns an empty dataset builder.
func NewBuilder() *Builder {
	return &Builder{
		taskIdx:  make(map[string]int),
		seenCell: make(map[[2]string]bool),
	}
}

// AddTask declares a task. Re-declaring an ID is an error.
func (b *Builder) AddTask(t Task) *Builder {
	if b.err != nil {
		return b
	}
	if err := t.Validate(); err != nil {
		b.err = err
		return b
	}
	if _, dup := b.taskIdx[t.ID]; dup {
		b.err = fmt.Errorf("model: task %q declared twice", t.ID)
		return b
	}
	b.taskIdx[t.ID] = len(b.tasks)
	b.tasks = append(b.tasks, t)
	return b
}

// AddObservation records worker's value for task. Workers are registered
// implicitly on first appearance.
func (b *Builder) AddObservation(worker, task, value string) *Builder {
	if b.err != nil {
		return b
	}
	if worker == "" || value == "" {
		b.err = fmt.Errorf("model: observation (%q, %q, %q) has empty field", worker, task, value)
		return b
	}
	if _, ok := b.taskIdx[task]; !ok {
		b.err = fmt.Errorf("%w: %q in observation by %q", ErrUnknownTask, task, worker)
		return b
	}
	cell := [2]string{worker, task}
	if b.seenCell[cell] {
		b.err = fmt.Errorf("%w: worker %q task %q", ErrDuplicateObservation, worker, task)
		return b
	}
	b.seenCell[cell] = true
	b.obs = append(b.obs, Observation{Worker: worker, Task: task, Value: value})
	return b
}

// Build compiles the dataset. It fails if any prior Add call failed, if no
// tasks were declared, or if no observations were recorded.
func (b *Builder) Build() (*Dataset, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.tasks) == 0 {
		return nil, fmt.Errorf("model: dataset has no tasks")
	}
	if len(b.obs) == 0 {
		return nil, fmt.Errorf("model: dataset has no observations")
	}

	// Stable worker ordering: first appearance. Each task's value
	// dictionary is in first-appearance order over the observations.
	workerIdx := make(map[string]int)
	var workers []string
	var rowLen []int
	values := make([][]string, len(b.tasks))
	valueIdx := make([]map[string]int, len(b.tasks))
	cells := make([]Cell, len(b.obs))
	for k, o := range b.obs {
		i, ok := workerIdx[o.Worker]
		if !ok {
			i = len(workers)
			workerIdx[o.Worker] = i
			workers = append(workers, o.Worker)
			rowLen = append(rowLen, 0)
		}
		rowLen[i]++
		j := b.taskIdx[o.Task]
		if valueIdx[j] == nil {
			valueIdx[j] = make(map[string]int)
		}
		vi, ok := valueIdx[j][o.Value]
		if !ok {
			vi = len(values[j])
			valueIdx[j][o.Value] = vi
			values[j] = append(values[j], o.Value)
		}
		cells[k] = Cell{Task: int32(j), Val: int32(vi)}
	}
	// Group the cells into one row per worker, in observation order.
	offsets := make([]int, len(workers)+1)
	for i, c := range rowLen {
		offsets[i+1] = offsets[i] + c
	}
	next := append([]int(nil), offsets[:len(workers)]...)
	rows := make([]Cell, len(cells))
	for k, o := range b.obs {
		i := workerIdx[o.Worker]
		rows[next[i]] = cells[k]
		next[i]++
	}
	return FromRows(append([]Task(nil), b.tasks...), b.taskIdx, Rows{
		Workers: workers,
		Offsets: offsets,
		Cells:   rows,
		Values:  values,
	})
}

// NumTasks returns |T|.
func (d *Dataset) NumTasks() int { return len(d.tasks) }

// NumWorkers returns |W|.
func (d *Dataset) NumWorkers() int { return len(d.workers) }

// NumObservations returns the total submission count.
func (d *Dataset) NumObservations() int { return d.observations }

// Task returns the j-th task.
func (d *Dataset) Task(j int) Task { return d.tasks[j] }

// Tasks returns a copy of the task list.
func (d *Dataset) Tasks() []Task { return append([]Task(nil), d.tasks...) }

// WorkerID returns the i-th worker's identity.
func (d *Dataset) WorkerID(i int) string { return d.workers[i] }

// WorkerIndex resolves a worker ID to its index.
func (d *Dataset) WorkerIndex(id string) (int, bool) {
	i, ok := d.workerIdx[id]
	return i, ok
}

// TaskIndex resolves a task ID to its index.
func (d *Dataset) TaskIndex(id string) (int, bool) {
	j, ok := d.taskIdx[id]
	return j, ok
}

// Values returns the distinct observed values of task j (do not mutate).
func (d *Dataset) Values(j int) []string { return d.values[j] }

// ValueOf returns the value index worker i submitted for task j, or
// NotAnswered. It binary-searches WorkerTasks(i), O(log |T_i|); loops
// over observations read TaskValues or WorkerValues instead.
func (d *Dataset) ValueOf(i, j int) int32 {
	if t, ok := slices.BinarySearch(d.perWorkerTasks[i], j); ok {
		return d.workerVals[i][t]
	}
	return NotAnswered
}

// ValueString resolves task j's value index to its string form.
func (d *Dataset) ValueString(j int, v int32) string {
	if v == NotAnswered {
		return ""
	}
	return d.values[j][v]
}

// WorkerTasks returns the task indices worker i answered, ascending
// (do not mutate).
func (d *Dataset) WorkerTasks(i int) []int { return d.perWorkerTasks[i] }

// WorkerValues returns the value indices worker i submitted, aligned
// with WorkerTasks(i): element t answers task WorkerTasks(i)[t] (do not
// mutate).
func (d *Dataset) WorkerValues(i int) []int32 { return d.workerVals[i] }

// TaskWorkers returns the worker indices that answered task j,
// ascending (do not mutate).
func (d *Dataset) TaskWorkers(j int) []int { return d.perTaskWorkers[j] }

// TaskValues returns the value indices submitted for task j, aligned
// with TaskWorkers(j): element b is worker TaskWorkers(j)[b]'s answer
// (do not mutate).
func (d *Dataset) TaskValues(j int) []int32 { return d.taskVals[j] }
