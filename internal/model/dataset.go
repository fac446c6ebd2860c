package model

import (
	"fmt"
	"sort"
)

// NotAnswered marks a (worker, task) cell with no submission.
const NotAnswered = int32(-1)

// Dataset is the compiled, immutable snapshot of all submissions for one
// campaign. Internally every entity is index-addressed for the O(n²·m)
// inner loops of DATE; string identities live at the boundary.
type Dataset struct {
	tasks     []Task
	workers   []string
	taskIdx   map[string]int
	workerIdx map[string]int

	// values[j] lists the distinct values observed for task j in first-
	// appearance order.
	values [][]string

	// obs[i][j] is the value index worker i submitted for task j, or
	// NotAnswered.
	obs [][]int32

	// perWorkerTasks[i] lists the task indices worker i answered (T_i).
	perWorkerTasks [][]int
	// perTaskWorkers[j] lists the worker indices that answered task j (W^j).
	perTaskWorkers [][]int

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

	// Stable worker ordering: first appearance.
	workerIdx := make(map[string]int)
	var workers []string
	for _, o := range b.obs {
		if _, ok := workerIdx[o.Worker]; !ok {
			workerIdx[o.Worker] = len(workers)
			workers = append(workers, o.Worker)
		}
	}

	d := &Dataset{
		tasks:     append([]Task(nil), b.tasks...),
		workers:   workers,
		taskIdx:   b.taskIdx,
		workerIdx: workerIdx,
		values:    make([][]string, len(b.tasks)),
		obs:       make([][]int32, len(workers)),

		perWorkerTasks: make([][]int, len(workers)),
		perTaskWorkers: make([][]int, len(b.tasks)),
		observations:   len(b.obs),
	}
	valueIdx := make([]map[string]int, len(b.tasks))
	for j := range valueIdx {
		valueIdx[j] = make(map[string]int)
	}
	for i := range d.obs {
		row := make([]int32, len(b.tasks))
		for j := range row {
			row[j] = NotAnswered
		}
		d.obs[i] = row
	}
	for _, o := range b.obs {
		i := workerIdx[o.Worker]
		j := b.taskIdx[o.Task]
		vi, ok := valueIdx[j][o.Value]
		if !ok {
			vi = len(d.values[j])
			valueIdx[j][o.Value] = vi
			d.values[j] = append(d.values[j], o.Value)
		}
		d.obs[i][j] = int32(vi)
		d.perWorkerTasks[i] = append(d.perWorkerTasks[i], j)
		d.perTaskWorkers[j] = append(d.perTaskWorkers[j], i)
	}
	for i := range d.perWorkerTasks {
		sort.Ints(d.perWorkerTasks[i])
	}
	for j := range d.perTaskWorkers {
		sort.Ints(d.perTaskWorkers[j])
	}
	return d, nil
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
// NotAnswered.
func (d *Dataset) ValueOf(i, j int) int32 { return d.obs[i][j] }

// ValueString resolves task j's value index to its string form.
func (d *Dataset) ValueString(j int, v int32) string {
	if v == NotAnswered {
		return ""
	}
	return d.values[j][v]
}

// WorkerTasks returns the task indices worker i answered (do not mutate).
func (d *Dataset) WorkerTasks(i int) []int { return d.perWorkerTasks[i] }

// TaskWorkers returns the worker indices that answered task j (do not
// mutate).
func (d *Dataset) TaskWorkers(j int) []int { return d.perTaskWorkers[j] }

// ProvidersOf returns the worker indices of task j that submitted value v.
func (d *Dataset) ProvidersOf(j int, v int32) []int {
	return d.ProvidersOfInto(j, v, nil)
}

// ProvidersOfInto is ProvidersOf appending into buf (reused from length
// zero); hot loops pass reusable scratch to keep the per-group lookup
// allocation-free.
func (d *Dataset) ProvidersOfInto(j int, v int32, buf []int) []int {
	out := buf[:0]
	for _, i := range d.perTaskWorkers[j] {
		if d.obs[i][j] == v {
			out = append(out, i)
		}
	}
	return out
}
