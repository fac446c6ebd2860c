package gen

import (
	"strings"
	"testing"

	"imc2/internal/randx"
)

func smallSpec() CampaignSpec {
	s := DefaultSpec()
	s.Workers = 20
	s.Tasks = 30
	s.Copiers = 5
	s.TasksPerWorker = 12
	return s
}

func TestDefaultSpecValid(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("DefaultSpec invalid: %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*CampaignSpec)
		wantSub string
	}{
		{"too few workers", func(s *CampaignSpec) { s.Workers = 1 }, "Workers"},
		{"no tasks", func(s *CampaignSpec) { s.Tasks = 0 }, "Tasks"},
		{"all copiers", func(s *CampaignSpec) { s.Copiers = s.Workers }, "Copiers"},
		{"negative copiers", func(s *CampaignSpec) { s.Copiers = -1 }, "Copiers"},
		{"tasks per worker", func(s *CampaignSpec) { s.TasksPerWorker = 0 }, "TasksPerWorker"},
		{"tasks per worker high", func(s *CampaignSpec) { s.TasksPerWorker = s.Tasks + 1 }, "TasksPerWorker"},
		{"bad num false", func(s *CampaignSpec) { s.NumFalse = 0 }, "NumFalse"},
		{"bad copy prob", func(s *CampaignSpec) { s.CopyProb = 1.5 }, "CopyProb"},
		{"bad copy error", func(s *CampaignSpec) { s.CopyError = -0.1 }, "CopyError"},
		{"bad sources", func(s *CampaignSpec) { s.SourcesPerCopier = 0 }, "SourcesPerCopier"},
		{"bad source pool", func(s *CampaignSpec) { s.SourcePoolFraction = 0 }, "SourcePoolFraction"},
		{"pool above one", func(s *CampaignSpec) { s.SourcePoolFraction = 1.5 }, "SourcePoolFraction"},
		{"negative coverage cap", func(s *CampaignSpec) { s.RequirementCoverageCap = -1 }, "RequirementCoverageCap"},
		{"accuracy zero", func(s *CampaignSpec) { s.AccuracyLow = 0 }, "accuracy"},
		{"accuracy inverted", func(s *CampaignSpec) { s.AccuracyLow = 0.9; s.AccuracyHigh = 0.6 }, "accuracy"},
		{"negative decay", func(s *CampaignSpec) { s.ParticipationDecay = -1 }, "ParticipationDecay"},
		{"negative zipf", func(s *CampaignSpec) { s.FalseZipfS = -1 }, "FalseZipfS"},
		{"req inverted", func(s *CampaignSpec) { s.RequirementLow = 5; s.RequirementHigh = 2 }, "requirement"},
		{"value inverted", func(s *CampaignSpec) { s.ValueLow = 9; s.ValueHigh = 5 }, "value"},
		{"bad costs", func(s *CampaignSpec) { s.CostMedian = 0 }, "cost"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := smallSpec()
			tt.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Fatalf("error %q missing %q", err, tt.wantSub)
			}
		})
	}
}

func TestDemoSpec(t *testing.T) {
	spec, err := DemoSpec(40, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Workers != 40 || spec.Tasks != 60 || spec.Copiers != 10 {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.TasksPerWorker != 20 {
		t.Fatalf("TasksPerWorker = %d, want tasks/3", spec.TasksPerWorker)
	}
	if spec.RequirementLow != 0.5 || spec.RequirementHigh != 1 || spec.MinProvidersPerTask != 4 {
		t.Fatalf("requirements = [%v, %v] with %d providers, want [0.5, 1] with 4",
			spec.RequirementLow, spec.RequirementHigh, spec.MinProvidersPerTask)
	}
	if _, err := DemoSpec(1, 60, 10); err == nil {
		t.Error("invalid population accepted")
	}
	// Tiny task counts floor TasksPerWorker at 1.
	spec, err = DemoSpec(5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if spec.TasksPerWorker != 1 {
		t.Fatalf("TasksPerWorker = %d, want 1", spec.TasksPerWorker)
	}
}

func TestNewCampaignShape(t *testing.T) {
	spec := smallSpec()
	c, err := NewCampaign(spec, randx.New(42))
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	if ds.NumTasks() != spec.Tasks {
		t.Errorf("tasks = %d, want %d", ds.NumTasks(), spec.Tasks)
	}
	if ds.NumWorkers() != spec.Workers {
		t.Errorf("workers = %d, want %d", ds.NumWorkers(), spec.Workers)
	}
	if len(c.GroundTruth) != spec.Tasks {
		t.Errorf("ground truth entries = %d, want %d", len(c.GroundTruth), spec.Tasks)
	}
	if len(c.Costs) != ds.NumWorkers() {
		t.Errorf("costs = %d entries", len(c.Costs))
	}
	if got := len(c.CopierIndex); got != spec.Copiers {
		t.Errorf("copiers = %d, want %d", got, spec.Copiers)
	}
	for i, cost := range c.Costs {
		if cost < spec.CostMin || cost > spec.CostMax {
			t.Errorf("cost[%d] = %v outside [%v, %v]", i, cost, spec.CostMin, spec.CostMax)
		}
	}
	for i, a := range c.TrueAccuracy {
		if a < spec.AccuracyLow || a > spec.AccuracyHigh {
			t.Errorf("accuracy[%d] = %v outside range", i, a)
		}
	}
	// Honest workers answer at least TasksPerWorker tasks (top-up for
	// sparse tasks may add a few).
	for i := 0; i < ds.NumWorkers(); i++ {
		n := len(ds.WorkerTasks(i))
		if c.CopierIndex[i] {
			if n == 0 || n > spec.TasksPerWorker {
				t.Errorf("copier %d answered %d tasks", i, n)
			}
			continue
		}
		if n < spec.TasksPerWorker {
			t.Errorf("honest worker %d answered %d tasks, want >= %d", i, n, spec.TasksPerWorker)
		}
	}
}

func TestMinProvidersPerTask(t *testing.T) {
	spec := smallSpec()
	spec.ParticipationDecay = 2 // extreme skew would starve late tasks
	spec.MinProvidersPerTask = 3
	c, err := NewCampaign(spec, randx.New(13))
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < c.Dataset.NumTasks(); j++ {
		if got := len(c.Dataset.TaskWorkers(j)); got < 3 {
			t.Errorf("task %d has %d providers, want >= 3", j, got)
		}
	}
}

func TestMinProvidersValidation(t *testing.T) {
	spec := smallSpec()
	spec.MinProvidersPerTask = spec.Workers // more than honest workers
	if err := spec.Validate(); err == nil {
		t.Error("impossible MinProvidersPerTask accepted")
	}
}

func TestNewCampaignValidatesInput(t *testing.T) {
	bad := smallSpec()
	bad.Workers = 0
	if _, err := NewCampaign(bad, randx.New(1)); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := NewCampaign(smallSpec(), nil); err == nil {
		t.Error("nil RNG accepted")
	}
}

func TestNewCampaignDeterministic(t *testing.T) {
	a, err := NewCampaign(smallSpec(), randx.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCampaign(smallSpec(), randx.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Dataset.NumObservations() != b.Dataset.NumObservations() {
		t.Fatal("same seed produced different observation counts")
	}
	for i := 0; i < a.Dataset.NumWorkers(); i++ {
		for j := 0; j < a.Dataset.NumTasks(); j++ {
			va := a.Dataset.ValueString(j, a.Dataset.ValueOf(i, j))
			vb := b.Dataset.ValueString(j, b.Dataset.ValueOf(i, j))
			if va != vb {
				t.Fatalf("same seed diverged at worker %d task %d: %q vs %q", i, j, va, vb)
			}
		}
	}
	c, err := NewCampaign(smallSpec(), randx.New(8))
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := 0; i < a.Dataset.NumWorkers(); i++ {
		for j := 0; j < a.Dataset.NumTasks(); j++ {
			va := a.Dataset.ValueString(j, a.Dataset.ValueOf(i, j))
			vc := c.Dataset.ValueString(j, c.Dataset.ValueOf(i, j))
			if va != vc {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical campaigns")
	}
}

func TestParticipationDecaySkewsEarlyTasks(t *testing.T) {
	spec := smallSpec()
	spec.Workers = 40
	spec.Copiers = 0
	spec.Tasks = 60
	spec.TasksPerWorker = 10
	spec.ParticipationDecay = 1.2
	c, err := NewCampaign(spec, randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	firstThird, lastThird := 0, 0
	for j := 0; j < 20; j++ {
		firstThird += len(c.Dataset.TaskWorkers(j))
	}
	for j := 40; j < 60; j++ {
		lastThird += len(c.Dataset.TaskWorkers(j))
	}
	if firstThird <= lastThird {
		t.Errorf("early tasks got %d answers, late tasks %d; want early > late", firstThird, lastThird)
	}
}

func TestCopiersAgreeWithSources(t *testing.T) {
	spec := smallSpec()
	spec.CopyProb = 0.9
	spec.CopyError = 0
	c, err := NewCampaign(spec, randx.New(11))
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	for copier := range c.CopierIndex {
		srcs := c.Sources[copier]
		if len(srcs) == 0 {
			t.Fatalf("copier %d has no sources", copier)
		}
		shared, agree := 0, 0
		for _, j := range ds.WorkerTasks(copier) {
			cv := ds.ValueOf(copier, j)
			for _, s := range srcs {
				sv := ds.ValueOf(s, j)
				if sv == -1 {
					continue
				}
				shared++
				if cv == sv {
					agree++
				}
			}
		}
		if shared == 0 {
			t.Fatalf("copier %d shares no tasks with its sources", copier)
		}
		if rate := float64(agree) / float64(shared); rate < 0.7 {
			t.Errorf("copier %d agrees with sources on %.0f%% of shared tasks, want >= 70%%",
				copier, rate*100)
		}
	}
}

func TestGroundTruthValuesAppearInData(t *testing.T) {
	c, err := NewCampaign(smallSpec(), randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	present := 0
	for j := 0; j < ds.NumTasks(); j++ {
		want := c.GroundTruth[ds.Task(j).ID]
		for _, v := range ds.Values(j) {
			if v == want {
				present++
				break
			}
		}
	}
	// With accuracies >= 0.55 and ~7 answers per task, nearly every task
	// should have at least one correct answer.
	if frac := float64(present) / float64(ds.NumTasks()); frac < 0.9 {
		t.Errorf("ground truth present in only %.0f%% of tasks", frac*100)
	}
}
