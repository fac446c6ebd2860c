package model

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

func validTask(id string) Task {
	return Task{ID: id, NumFalse: 2, Requirement: 2.5, Value: 6}
}

func TestTaskValidate(t *testing.T) {
	tests := []struct {
		name    string
		task    Task
		wantErr bool
	}{
		{"valid", validTask("t1"), false},
		{"empty id", Task{NumFalse: 1}, true},
		{"zero false values", Task{ID: "t", NumFalse: 0}, true},
		{"negative requirement", Task{ID: "t", NumFalse: 1, Requirement: -1}, true},
		{"negative value", Task{ID: "t", NumFalse: 1, Value: -2}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.task.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestBidValidate(t *testing.T) {
	if err := (Bid{Worker: "w", Price: 3}).Validate(); err != nil {
		t.Errorf("valid bid rejected: %v", err)
	}
	if err := (Bid{Price: 3}).Validate(); err == nil {
		t.Error("empty worker accepted")
	}
	if err := (Bid{Worker: "w", Price: -1}).Validate(); err == nil {
		t.Error("negative price accepted")
	}
}

func TestBuilderHappyPath(t *testing.T) {
	d, err := NewBuilder().
		AddTask(validTask("t1")).
		AddTask(validTask("t2")).
		AddObservation("w1", "t1", "MIT").
		AddObservation("w2", "t1", "Berkeley").
		AddObservation("w1", "t2", "MSR").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTasks() != 2 || d.NumWorkers() != 2 || d.NumObservations() != 3 {
		t.Fatalf("sizes = %d tasks, %d workers, %d obs", d.NumTasks(), d.NumWorkers(), d.NumObservations())
	}
	j, ok := d.TaskIndex("t1")
	if !ok {
		t.Fatal("t1 not found")
	}
	i, ok := d.WorkerIndex("w1")
	if !ok {
		t.Fatal("w1 not found")
	}
	if got := d.ValueString(j, d.ValueOf(i, j)); got != "MIT" {
		t.Fatalf("w1's value for t1 = %q, want MIT", got)
	}
	j2, _ := d.TaskIndex("t2")
	i2, _ := d.WorkerIndex("w2")
	if d.ValueOf(i2, j2) != NotAnswered {
		t.Fatal("w2 should not have answered t2")
	}
	if got := d.ValueString(j2, NotAnswered); got != "" {
		t.Fatalf("ValueString(NotAnswered) = %q, want empty", got)
	}
}

func TestBuilderIndexStructures(t *testing.T) {
	d, err := NewBuilder().
		AddTask(validTask("t1")).
		AddTask(validTask("t2")).
		AddObservation("w1", "t1", "a").
		AddObservation("w2", "t1", "a").
		AddObservation("w3", "t1", "b").
		AddObservation("w1", "t2", "c").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := d.TaskIndex("t1")
	if got := d.TaskWorkers(j1); len(got) != 3 {
		t.Fatalf("TaskWorkers(t1) = %v, want 3 workers", got)
	}
	i1, _ := d.WorkerIndex("w1")
	if got := d.WorkerTasks(i1); len(got) != 2 {
		t.Fatalf("WorkerTasks(w1) = %v, want 2 tasks", got)
	}
	if got := d.Values(j1); len(got) != 2 {
		t.Fatalf("Values(t1) = %v, want [a b]", got)
	}
	// Values are stored once per observation, aligned with both lists.
	if got, want := d.TaskValues(j1), []int32{0, 0, 1}; !slices.Equal(got, want) {
		t.Fatalf("TaskValues(t1) = %v, want %v (a, a, b)", got, want)
	}
	if got, want := d.WorkerValues(i1), []int32{0, 0}; !slices.Equal(got, want) {
		t.Fatalf("WorkerValues(w1) = %v, want %v (t1=a, t2=c)", got, want)
	}
	j2, _ := d.TaskIndex("t2")
	i3, _ := d.WorkerIndex("w3")
	if d.ValueOf(i3, j1) != 1 || d.ValueOf(i3, j2) != NotAnswered || d.ValueOf(i1, j2) != 0 {
		t.Fatalf("ValueOf(w3, t1), ValueOf(w3, t2), ValueOf(w1, t2) = %d, %d, %d; want 1, %d, 0",
			d.ValueOf(i3, j1), d.ValueOf(i3, j2), d.ValueOf(i1, j2), NotAnswered)
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name  string
		build func() (*Dataset, error)
		check func(error) bool
	}{
		{
			name: "no tasks",
			build: func() (*Dataset, error) {
				return NewBuilder().Build()
			},
			check: func(err error) bool { return strings.Contains(err.Error(), "no tasks") },
		},
		{
			name: "no observations",
			build: func() (*Dataset, error) {
				return NewBuilder().AddTask(validTask("t")).Build()
			},
			check: func(err error) bool { return strings.Contains(err.Error(), "no observations") },
		},
		{
			name: "unknown task",
			build: func() (*Dataset, error) {
				return NewBuilder().AddTask(validTask("t")).
					AddObservation("w", "nope", "v").Build()
			},
			check: func(err error) bool { return errors.Is(err, ErrUnknownTask) },
		},
		{
			name: "duplicate observation",
			build: func() (*Dataset, error) {
				return NewBuilder().AddTask(validTask("t")).
					AddObservation("w", "t", "v").
					AddObservation("w", "t", "v2").Build()
			},
			check: func(err error) bool { return errors.Is(err, ErrDuplicateObservation) },
		},
		{
			name: "duplicate task",
			build: func() (*Dataset, error) {
				return NewBuilder().AddTask(validTask("t")).AddTask(validTask("t")).Build()
			},
			check: func(err error) bool { return strings.Contains(err.Error(), "declared twice") },
		},
		{
			name: "invalid task propagates",
			build: func() (*Dataset, error) {
				return NewBuilder().AddTask(Task{}).Build()
			},
			check: func(err error) bool { return err != nil },
		},
		{
			name: "empty value",
			build: func() (*Dataset, error) {
				return NewBuilder().AddTask(validTask("t")).
					AddObservation("w", "t", "").Build()
			},
			check: func(err error) bool { return strings.Contains(err.Error(), "empty field") },
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.build()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !tt.check(err) {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

func TestBuilderErrorSticky(t *testing.T) {
	b := NewBuilder().AddObservation("w", "missing", "v")
	b.AddTask(validTask("t")) // after the error, adds are no-ops
	if _, err := b.Build(); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("sticky error lost: %v", err)
	}
}

func TestTasksReturnsCopy(t *testing.T) {
	d, err := NewBuilder().
		AddTask(validTask("t1")).
		AddObservation("w", "t1", "v").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ts := d.Tasks()
	ts[0].ID = "mutated"
	if d.Task(0).ID != "t1" {
		t.Fatal("Tasks() exposed internal storage")
	}
}
