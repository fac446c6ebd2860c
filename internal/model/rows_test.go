package model

import (
	"reflect"
	"strings"
	"testing"
)

// rowsFixture is a three-worker log over t1..t3. Its dictionaries run
// one value past what the rows use ("late" on t1), as a longer log's
// would.
func rowsFixture() ([]Task, map[string]int, Rows) {
	tasks := []Task{validTask("t1"), validTask("t2"), validTask("t3")}
	idx := map[string]int{"t1": 0, "t2": 1, "t3": 2}
	return tasks, idx, Rows{
		Workers: []string{"w1", "w2", "w3"},
		Offsets: []int{0, 2, 3, 5},
		Cells: []Cell{
			{Task: 2, Val: 0}, {Task: 0, Val: 0}, // w1: t3=x, t1=a
			{Task: 0, Val: 1},                    // w2: t1=b
			{Task: 0, Val: 0}, {Task: 2, Val: 1}, // w3: t1=a, t3=y
		},
		Values: [][]string{{"a", "b", "late"}, nil, {"x", "y"}},
	}
}

func TestFromRowsMatchesBuilder(t *testing.T) {
	tasks, idx, r := rowsFixture()
	got, err := FromRows(tasks, idx, r)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewBuilder().
		AddTask(tasks[0]).AddTask(tasks[1]).AddTask(tasks[2]).
		AddObservation("w1", "t1", "a").AddObservation("w1", "t3", "x").
		AddObservation("w2", "t1", "b").
		AddObservation("w3", "t1", "a").AddObservation("w3", "t3", "y").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumWorkers() != 3 || got.NumTasks() != 3 || got.NumObservations() != 5 {
		t.Fatalf("sizes = %d workers, %d tasks, %d obs", got.NumWorkers(), got.NumTasks(), got.NumObservations())
	}
	for i := 0; i < 3; i++ {
		if got.WorkerID(i) != want.WorkerID(i) || !reflect.DeepEqual(got.WorkerTasks(i), want.WorkerTasks(i)) ||
			!reflect.DeepEqual(got.WorkerValues(i), want.WorkerValues(i)) {
			t.Fatalf("worker %d: %q %v %v, builder %q %v %v", i, got.WorkerID(i), got.WorkerTasks(i), got.WorkerValues(i),
				want.WorkerID(i), want.WorkerTasks(i), want.WorkerValues(i))
		}
		for j := 0; j < 3; j++ {
			if got.ValueOf(i, j) != want.ValueOf(i, j) {
				t.Fatalf("ValueOf(%d, %d) = %d, builder %d", i, j, got.ValueOf(i, j), want.ValueOf(i, j))
			}
		}
	}
	for j := 0; j < 3; j++ {
		if len(got.TaskWorkers(j))+len(want.TaskWorkers(j)) > 0 && (!reflect.DeepEqual(got.TaskWorkers(j), want.TaskWorkers(j)) ||
			!reflect.DeepEqual(got.TaskValues(j), want.TaskValues(j))) {
			t.Fatalf("TaskWorkers(%d) = %v %v, builder %v %v", j, got.TaskWorkers(j), got.TaskValues(j), want.TaskWorkers(j), want.TaskValues(j))
		}
		if len(got.Values(j))+len(want.Values(j)) > 0 && !reflect.DeepEqual(got.Values(j), want.Values(j)) {
			t.Fatalf("Values(%d) = %q, builder %q", j, got.Values(j), want.Values(j))
		}
	}
	if i, ok := got.WorkerIndex("w3"); !ok || i != 2 {
		t.Fatalf("WorkerIndex(w3) = %d, %v", i, ok)
	}
	if j, ok := got.TaskIndex("t3"); !ok || j != 2 {
		t.Fatalf("TaskIndex(t3) = %d, %v", j, ok)
	}
	// The unused dictionary tail stays out, and appending to a returned
	// list cannot write into the caller's dictionary.
	_ = append(got.Values(0), "z")
	if r.Values[0][2] != "late" {
		t.Fatalf("caller's dictionary overwritten: %q", r.Values[0])
	}
}

func TestFromRowsRejectsMalformedRows(t *testing.T) {
	tests := []struct {
		name string
		edit func(*[]Task, *Rows)
		want string
	}{
		{"no tasks", func(tasks *[]Task, _ *Rows) { *tasks = nil }, "no tasks"},
		{"no workers", func(_ *[]Task, r *Rows) { r.Workers, r.Offsets = nil, []int{0} }, "no observations"},
		{"offsets short", func(_ *[]Task, r *Rows) { r.Offsets = r.Offsets[:3] }, "offsets"},
		{"dictionaries short", func(_ *[]Task, r *Rows) { r.Values = r.Values[:2] }, "value dictionaries"},
		{"duplicate worker", func(_ *[]Task, r *Rows) { r.Workers[2] = "w1" }, "two rows"},
		{"empty worker", func(_ *[]Task, r *Rows) { r.Workers[1] = "" }, "empty worker"},
		{"empty row", func(_ *[]Task, r *Rows) { r.Offsets[2] = 2 }, "no answers"},
		{"repeated task", func(_ *[]Task, r *Rows) { r.Cells[1] = r.Cells[0] }, "repeats a task"},
		{"task out of range", func(_ *[]Task, r *Rows) { r.Cells[1].Task = 3 }, "out of range"},
		{"negative task", func(_ *[]Task, r *Rows) { r.Cells[1].Task = -1 }, "out of range"},
		{"value out of range", func(_ *[]Task, r *Rows) { r.Cells[4].Val = 2 }, "out of range"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tasks, idx, r := rowsFixture()
			tt.edit(&tasks, &r)
			_, err := FromRows(tasks, idx, r)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("err = %v, want %q", err, tt.want)
			}
		})
	}
}
