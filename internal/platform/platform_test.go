package platform

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"imc2/internal/auction"
	"imc2/internal/gen"
	"imc2/internal/model"
	"imc2/internal/randx"
	"imc2/internal/truth"
)

func testTasks() []model.Task {
	return []model.Task{
		{ID: "t1", NumFalse: 2, Requirement: 1, Value: 5},
		{ID: "t2", NumFalse: 2, Requirement: 1, Value: 6},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty campaign accepted")
	}
	if _, err := New([]model.Task{{ID: "t", NumFalse: 0}}); err == nil {
		t.Error("invalid task accepted")
	}
	dup := []model.Task{
		{ID: "t", NumFalse: 1, Requirement: 1, Value: 1},
		{ID: "t", NumFalse: 1, Requirement: 1, Value: 1},
	}
	if _, err := New(dup); err == nil {
		t.Error("duplicate task accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	p, err := New(testTasks())
	if err != nil {
		t.Fatal(err)
	}
	ok := Submission{Worker: "w1", Price: 2, Answers: map[string]string{"t1": "a"}}
	if err := p.Submit(ok); err != nil {
		t.Fatalf("valid submission rejected: %v", err)
	}
	tests := []struct {
		name string
		sub  Submission
	}{
		{"duplicate worker", ok},
		{"negative price", Submission{Worker: "w2", Price: -1, Answers: map[string]string{"t1": "a"}}},
		{"empty worker", Submission{Price: 1, Answers: map[string]string{"t1": "a"}}},
		{"no answers", Submission{Worker: "w3", Price: 1}},
		{"unknown task", Submission{Worker: "w4", Price: 1, Answers: map[string]string{"zz": "a"}}},
		{"empty value", Submission{Worker: "w5", Price: 1, Answers: map[string]string{"t1": ""}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := p.Submit(tt.sub); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
	if got := p.Submissions(); got != 1 {
		t.Fatalf("Submissions = %d, want 1", got)
	}
}

func TestDuplicateSubmissionError(t *testing.T) {
	p, _ := New(testTasks())
	sub := Submission{Worker: "w", Price: 1, Answers: map[string]string{"t1": "a"}}
	if err := p.Submit(sub); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(sub); !errors.Is(err, ErrDuplicateSubmission) {
		t.Fatalf("err = %v, want ErrDuplicateSubmission", err)
	}
}

// TestInternIndexFollowsTruncate: once task t1's dictionary is looked up
// in its index, a refused submission's new value leaves both the
// dictionary and the index, whether an answer after it (an unpublished
// task) or the campaign (a duplicate worker) refuses it.
func TestInternIndexFollowsTruncate(t *testing.T) {
	p, err := New(testTasks())
	if err != nil {
		t.Fatal(err)
	}
	const n = 2 * indexFrom
	for i := 0; i < n; i++ {
		if err := p.Submit(Submission{Worker: fmt.Sprintf("w%d", i), Price: 1, Answers: map[string]string{"t1": fmt.Sprintf("v%d", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(want int) {
		t.Helper()
		dict, idx := p.log.Values[0], p.log.index[0]
		if len(dict) != want || len(idx) != want {
			t.Fatalf("dictionary holds %d values and index %d, want %d", len(dict), len(idx), want)
		}
		for k, v := range dict {
			if idx[v] != int32(k) {
				t.Fatalf("index maps %q to %d, want %d", v, idx[v], k)
			}
		}
	}
	check(n)
	refused := []Submission{
		{Worker: "x", Price: 1, Answers: map[string]string{"t1": "new", "zz": "a"}},
		{Worker: "w0", Price: 1, Answers: map[string]string{"t1": "new"}},
	}
	for _, sub := range refused {
		if k, err := p.SubmitRows(RowsOf([]Submission{sub})); k != 0 || err == nil {
			t.Fatalf("SubmitRows(%+v) = %d, %v, want a refusal", sub, k, err)
		}
		check(n)
	}
	if err := p.Submit(Submission{Worker: "x", Price: 1, Answers: map[string]string{"t1": "new"}}); err != nil {
		t.Fatal(err)
	}
	check(n + 1)
	if p.log.index[1] != nil {
		t.Fatal("task t2's short dictionary has an index")
	}
}

// BenchmarkSubmitRowsDistinctValues submits one decoded batch in which
// every submission gives task t1 a value no earlier one gave it, so
// every answer to t1 adds a dictionary entry under the campaign lock.
func BenchmarkSubmitRowsDistinctValues(b *testing.B) {
	const n = 10000
	var body strings.Builder
	body.WriteString(`{"submissions":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"worker":"w%d","price":1,"answers":{"t1":"v%d","t2":"a"}}`, i, i)
	}
	body.WriteString(`]}`)
	rows, err := DecodeSubmissions([]byte(body.String()))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(testTasks())
		if err != nil {
			b.Fatal(err)
		}
		if k, err := p.SubmitRows(rows); k != n || err != nil {
			b.Fatalf("SubmitRows accepted %d of %d: %v", k, n, err)
		}
	}
}

func TestRunWithoutSubmissions(t *testing.T) {
	p, _ := New(testTasks())
	if _, err := p.Run(DefaultConfig()); err == nil ||
		!strings.Contains(err.Error(), "no submissions") {
		t.Fatalf("err = %v, want no-submissions error", err)
	}
}

// smallCampaign populates a platform with a generated workload.
func smallCampaign(t *testing.T, seed int64) (*Platform, *gen.Campaign) {
	t.Helper()
	spec := gen.DefaultSpec()
	spec.Workers = 24
	spec.Tasks = 20
	spec.Copiers = 6
	spec.TasksPerWorker = 12
	// Over-provision small campaigns: every task needs enough redundant
	// coverage that the auction stays feasible even with any single
	// winner removed (otherwise critical payments do not exist).
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	spec.ParticipationDecay = 0.3
	c, err := gen.NewCampaign(spec, randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(c.Dataset.Tasks())
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	for i := 0; i < ds.NumWorkers(); i++ {
		answers := make(map[string]string)
		for _, j := range ds.WorkerTasks(i) {
			answers[ds.Task(j).ID] = ds.ValueString(j, ds.ValueOf(i, j))
		}
		err := p.Submit(Submission{
			Worker:  ds.WorkerID(i),
			Price:   c.Costs[i],
			Answers: answers,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return p, c
}

func TestRunEndToEnd(t *testing.T) {
	p, c := smallCampaign(t, 42)
	report, err := p.Run(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Truth) != c.Dataset.NumTasks() {
		t.Errorf("truth entries = %d, want %d", len(report.Truth), c.Dataset.NumTasks())
	}
	if len(report.Winners) == 0 {
		t.Fatal("no winners selected")
	}
	if report.SocialCost <= 0 {
		t.Errorf("social cost = %v", report.SocialCost)
	}
	if report.TotalPayment < report.SocialCost {
		t.Errorf("total payment %v below social cost %v (violates IR)",
			report.TotalPayment, report.SocialCost)
	}
	for _, w := range report.Winners {
		i, ok := c.Dataset.WorkerIndex(w)
		if !ok {
			t.Fatalf("winner %q not in dataset", w)
		}
		if report.Payments[w] < c.Costs[i]-1e-9 {
			t.Errorf("winner %q paid %v below cost %v", w, report.Payments[w], c.Costs[i])
		}
	}
	// Estimated truth should be mostly correct on this easy campaign.
	correct := 0
	for task, want := range c.GroundTruth {
		if report.Truth[task] == want {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(c.GroundTruth)); frac < 0.8 {
		t.Errorf("campaign precision = %v, want >= 0.8", frac)
	}
	if len(report.WorkerAccuracy) != c.Dataset.NumWorkers() {
		t.Errorf("worker accuracy entries = %d", len(report.WorkerAccuracy))
	}
}

func TestRunAllMechanisms(t *testing.T) {
	for _, mech := range []Mechanism{MechanismReverseAuction, MechanismGreedyAccuracy, MechanismGreedyBid} {
		t.Run(mech.String(), func(t *testing.T) {
			p, _ := smallCampaign(t, 7)
			cfg := DefaultConfig()
			cfg.Mechanism = mech
			report, err := p.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(report.Winners) == 0 {
				t.Fatal("no winners")
			}
		})
	}
}

func TestRunAllTruthMethods(t *testing.T) {
	for _, m := range []truth.Method{truth.MethodDATE, truth.MethodMV, truth.MethodNC, truth.MethodED} {
		t.Run(m.String(), func(t *testing.T) {
			p, _ := smallCampaign(t, 9)
			cfg := DefaultConfig()
			cfg.TruthMethod = m
			if _, err := p.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunUnknownMechanism(t *testing.T) {
	p, _ := smallCampaign(t, 3)
	cfg := DefaultConfig()
	cfg.Mechanism = Mechanism(99)
	if _, err := p.Run(cfg); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}

func TestMechanismString(t *testing.T) {
	tests := []struct {
		m    Mechanism
		want string
	}{
		{MechanismReverseAuction, "ReverseAuction"},
		{MechanismGreedyAccuracy, "GA"},
		{MechanismGreedyBid, "GB"},
		{Mechanism(5), "Mechanism(5)"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestBuildInstanceAlignment(t *testing.T) {
	_, c := smallCampaign(t, 21)
	ds := c.Dataset
	res, err := truth.Discover(ds, truth.MethodDATE, truth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	in := BuildInstance(ds, res.Accuracy, c.Costs)
	if err := in.Validate(); err != nil {
		t.Fatalf("built instance invalid: %v", err)
	}
	if in.NumWorkers() != ds.NumWorkers() || in.NumTasks() != ds.NumTasks() {
		t.Fatal("instance dimensions mismatch")
	}
	for j := 0; j < ds.NumTasks(); j++ {
		if in.Requirements[j] != ds.Task(j).Requirement {
			t.Fatalf("requirement[%d] mismatch", j)
		}
	}
}

// TestMechanismsLeaveInstanceUnchanged pins what lets BuildInstance share
// the dataset's task lists and the truth result's accuracy rows instead
// of copying them: no mechanism writes TaskSets or Accuracy, so the
// dataset and the truth result read the same after a settle's auction.
func TestMechanismsLeaveInstanceUnchanged(t *testing.T) {
	_, c := smallCampaign(t, 21)
	ds := c.Dataset
	res, err := truth.Discover(ds, truth.MethodDATE, truth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	in := BuildInstance(ds, res.Accuracy, c.Costs)
	for i := range in.TaskSets {
		if len(in.TaskSets[i]) > 0 && &in.TaskSets[i][0] != &ds.WorkerTasks(i)[0] {
			t.Fatalf("TaskSets[%d] is a copy, want the dataset's WorkerTasks(%d)", i, i)
		}
	}
	taskSets := make([][]int, len(in.TaskSets))
	accuracy := make([][]float64, len(in.Accuracy))
	for i := range in.TaskSets {
		taskSets[i] = slices.Clone(in.TaskSets[i])
		accuracy[i] = slices.Clone(in.Accuracy[i])
	}
	mechanisms := []struct {
		name string
		run  func(*auction.Instance) (*auction.Outcome, error)
	}{
		{"ReverseAuction", auction.ReverseAuction},
		{"GreedyBid", auction.GreedyBid},
		{"GreedyAccuracy", auction.GreedyAccuracy},
	}
	for _, m := range mechanisms {
		out, err := m.run(in)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if len(out.Winners) == 0 {
			t.Fatalf("%s selected no winner", m.name)
		}
		for i := range taskSets {
			if !slices.Equal(in.TaskSets[i], taskSets[i]) {
				t.Fatalf("%s changed TaskSets[%d]: %v, was %v", m.name, i, in.TaskSets[i], taskSets[i])
			}
			for k := range accuracy[i] {
				if math.Float64bits(in.Accuracy[i][k]) != math.Float64bits(accuracy[i][k]) {
					t.Fatalf("%s changed Accuracy[%d][%d]: %v, was %v", m.name, i, k, in.Accuracy[i][k], accuracy[i][k])
				}
			}
		}
	}
}

func TestReportDeterministic(t *testing.T) {
	p1, _ := smallCampaign(t, 55)
	p2, _ := smallCampaign(t, 55)
	r1, err := p1.Run(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Run(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r1.Winners) != fmt.Sprint(r2.Winners) {
		t.Fatal("same campaign produced different winners")
	}
	if math.Abs(r1.SocialCost-r2.SocialCost) > 1e-12 {
		t.Fatal("same campaign produced different social cost")
	}
}
