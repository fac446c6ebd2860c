package iox

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"imc2/internal/gen"
	"imc2/internal/model"
	"imc2/internal/randx"
)

func testCampaign(t *testing.T) *gen.Campaign {
	t.Helper()
	spec := gen.DefaultSpec()
	spec.Workers = 15
	spec.Tasks = 12
	spec.Copiers = 4
	spec.TasksPerWorker = 6
	c, err := gen.NewCampaign(spec, randx.New(9))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The dataset a campaign file carries comes back with the same shape and
// every worker's value for every task it answered.
func TestDatasetRoundTrip(t *testing.T) {
	c := testCampaign(t)
	var buf bytes.Buffer
	if err := WriteCampaign(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCampaign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig, got := c.Dataset, back.Dataset
	if got.NumTasks() != orig.NumTasks() || got.NumWorkers() != orig.NumWorkers() ||
		got.NumObservations() != orig.NumObservations() {
		t.Fatalf("round trip changed shape: %d/%d/%d vs %d/%d/%d",
			got.NumTasks(), got.NumWorkers(), got.NumObservations(),
			orig.NumTasks(), orig.NumWorkers(), orig.NumObservations())
	}
	for i := 0; i < orig.NumWorkers(); i++ {
		id := orig.WorkerID(i)
		gi, ok := got.WorkerIndex(id)
		if !ok {
			t.Fatalf("worker %q lost", id)
		}
		for _, j := range orig.WorkerTasks(i) {
			taskID := orig.Task(j).ID
			gj, ok := got.TaskIndex(taskID)
			if !ok {
				t.Fatalf("task %q lost", taskID)
			}
			want := orig.ValueString(j, orig.ValueOf(i, j))
			if gotV := got.ValueString(gj, got.ValueOf(gi, gj)); gotV != want {
				t.Fatalf("value for (%s, %s) = %q, want %q", id, taskID, gotV, want)
			}
		}
	}
}

func TestCampaignRoundTrip(t *testing.T) {
	orig := testCampaign(t)
	var buf bytes.Buffer
	if err := WriteCampaign(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCampaign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dataset.NumObservations() != orig.Dataset.NumObservations() {
		t.Fatal("observations changed")
	}
	if len(got.GroundTruth) != len(orig.GroundTruth) {
		t.Fatal("ground truth changed")
	}
	for task, v := range orig.GroundTruth {
		if got.GroundTruth[task] != v {
			t.Fatalf("ground truth for %s changed", task)
		}
	}
	// Costs and metadata follow the worker identity across the round trip
	// even if indices shift.
	for i := 0; i < orig.Dataset.NumWorkers(); i++ {
		id := orig.Dataset.WorkerID(i)
		gi, ok := got.Dataset.WorkerIndex(id)
		if !ok {
			t.Fatalf("worker %q lost", id)
		}
		if got.Costs[gi] != orig.Costs[i] {
			t.Fatalf("cost for %q changed: %v vs %v", id, got.Costs[gi], orig.Costs[i])
		}
		if got.TrueAccuracy[gi] != orig.TrueAccuracy[i] {
			t.Fatalf("accuracy for %q changed", id)
		}
		if got.CopierIndex[gi] != orig.CopierIndex[i] {
			t.Fatalf("copier flag for %q changed", id)
		}
	}
	if len(got.Sources) != len(orig.Sources) {
		t.Fatalf("sources changed: %d vs %d", len(got.Sources), len(orig.Sources))
	}
	if got.Spec.Workers != orig.Spec.Workers {
		t.Fatal("spec lost")
	}
}

func TestCampaignFileRoundTrip(t *testing.T) {
	orig := testCampaign(t)
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := SaveCampaign(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCampaign(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dataset.NumWorkers() != orig.Dataset.NumWorkers() {
		t.Fatal("file round trip changed workers")
	}
}

func TestCampaignReadErrors(t *testing.T) {
	if _, err := ReadCampaign(strings.NewReader("nope")); err == nil {
		t.Error("malformed campaign accepted")
	}
	if _, err := ReadCampaign(strings.NewReader(`{"version": 5}`)); err == nil {
		t.Error("future campaign version accepted")
	}
	if _, err := LoadCampaign(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	// Campaign with a cost entry missing for a worker.
	bad := `{"version":1,
		"spec":{},
		"tasks":[{"id":"t","num_false":1,"requirement":1,"value":1}],
		"observations":[{"worker":"w","task":"t","value":"v"}],
		"ground_truth":{"t":"v"},
		"costs":{},
		"true_accuracy":{},
		"copiers":[],
		"sources":{}}`
	if _, err := ReadCampaign(strings.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "missing cost") {
		t.Errorf("missing cost accepted: %v", err)
	}
	// Unknown copier reference.
	bad2 := strings.Replace(bad, `"costs":{}`, `"costs":{"w":1}`, 1)
	bad2 = strings.Replace(bad2, `"copiers":[]`, `"copiers":["ghost"]`, 1)
	if _, err := ReadCampaign(strings.NewReader(bad2)); err == nil ||
		!strings.Contains(err.Error(), "unknown copier") {
		t.Errorf("unknown copier accepted: %v", err)
	}
}

func TestWriteCampaignNil(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCampaign(&buf, nil); err == nil {
		t.Error("nil campaign accepted")
	}
	if err := WriteCampaign(&buf, &gen.Campaign{}); err == nil {
		t.Error("campaign without dataset accepted")
	}
}

func TestCampaignPreservesTaskAttributes(t *testing.T) {
	// A hand-built dataset keeps its task attributes through the trip.
	ds, err := model.NewBuilder().
		AddTask(model.Task{ID: "q1", NumFalse: 3, Requirement: 2.5, Value: 7.25}).
		AddObservation("alice", "q1", "yes").
		AddObservation("bob", "q1", "no").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	c := &gen.Campaign{Dataset: ds, Costs: []float64{1, 1}, TrueAccuracy: []float64{0.9, 0.9}}
	var buf bytes.Buffer
	if err := WriteCampaign(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCampaign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	task := got.Dataset.Task(0)
	if task.NumFalse != 3 || task.Requirement != 2.5 || task.Value != 7.25 {
		t.Fatalf("task attributes changed: %+v", task)
	}
}
