package truth

import (
	"fmt"
	"strings"
	"testing"

	"imc2/internal/model"
	"imc2/internal/simil"
)

func thresholdCosine(a, b string) float64 {
	s := simil.Cosine(a, b)
	if s < 0.7 {
		return 0
	}
	return s
}

// presentationNoiseDataset builds a campaign where honest workers emit
// variant spellings: value strings carry a "~pK" suffix, which splits
// each answer's support across its presentations.
func presentationNoiseDataset(t *testing.T) (*model.Dataset, map[string]string) {
	t.Helper()
	b := model.NewBuilder()
	groundTruth := map[string]string{}
	const m = 30
	// Value strings are realistically sized: trigram similarities of very
	// short strings are dominated by the variant suffix and fall below
	// any sensible threshold.
	const trueVal = "canberra-act"
	falseVals := []string{"alpha-wrong", "beta-wrong", "gamma-wrong"}
	for j := 0; j < m; j++ {
		id := fmt.Sprintf("t%02d", j)
		b.AddTask(model.Task{ID: id, NumFalse: 3, Requirement: 1, Value: 5})
		groundTruth[id] = trueVal
	}
	// 8 honest workers, ~25% wrong, and every third answer emitted as a
	// deterministic variant form.
	for i := 0; i < 8; i++ {
		w := fmt.Sprintf("h%02d", i)
		for j := 0; j < m; j++ {
			v := trueVal
			if (j+i)%4 == 0 {
				v = falseVals[(i+j)%3]
			}
			if (j+2*i)%3 == 0 {
				v = fmt.Sprintf("%s~p%d", v, (i+j)%2)
			}
			b.AddObservation(w, fmt.Sprintf("t%02d", j), v)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds, groundTruth
}

func canonicalPrecisionOf(t *testing.T, ds *model.Dataset, res *Result, gt map[string]string) float64 {
	t.Helper()
	est := res.TruthMap(ds)
	correct := 0
	for task, want := range gt {
		got := est[task]
		if i := strings.IndexByte(got, '~'); i >= 0 {
			got = got[:i]
		}
		if got == want {
			correct++
		}
	}
	return float64(correct) / float64(len(gt))
}

func TestMergePresentationsValidation(t *testing.T) {
	ds, _ := presentationNoiseDataset(t)
	if _, err := MergePresentations(nil, thresholdCosine, 0.7); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := MergePresentations(ds, nil, 0.7); err == nil {
		t.Error("nil similarity accepted")
	}
	if _, err := MergePresentations(ds, thresholdCosine, 0); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := MergePresentations(ds, thresholdCosine, 1.5); err == nil {
		t.Error("threshold above 1 accepted")
	}
}

func TestMergePresentationsCollapsesVariants(t *testing.T) {
	ds, _ := presentationNoiseDataset(t)
	merged, err := MergePresentations(ds, thresholdCosine, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumWorkers() != ds.NumWorkers() || merged.NumTasks() != ds.NumTasks() ||
		merged.NumObservations() != ds.NumObservations() {
		t.Fatal("merge changed dataset shape")
	}
	// Every task should end with at most 4 canonical values (1 true + 3
	// false families), down from up to 8 variant forms.
	for j := 0; j < merged.NumTasks(); j++ {
		before := len(ds.Values(j))
		after := len(merged.Values(j))
		if after > before {
			t.Fatalf("task %d: values grew %d → %d", j, before, after)
		}
		if after > 4 {
			t.Errorf("task %d: %d values after merge, want <= 4 (%v)",
				j, after, merged.Values(j))
		}
	}
}

func TestMergePresentationsRepresentativeIsMajorityForm(t *testing.T) {
	// 3 workers say "information technology", 1 says the variant; the
	// representative must be the majority form.
	b := model.NewBuilder()
	b.AddTask(model.Task{ID: "t", NumFalse: 2, Requirement: 1, Value: 5})
	b.AddObservation("w1", "t", "information technology")
	b.AddObservation("w2", "t", "information technology")
	b.AddObservation("w3", "t", "information technology")
	b.AddObservation("w4", "t", "information technology dept")
	b.AddObservation("w5", "t", "zoology")
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergePresentations(ds, thresholdCosine, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	j, _ := merged.TaskIndex("t")
	values := merged.Values(j)
	if len(values) != 2 {
		t.Fatalf("values after merge = %v, want 2 classes", values)
	}
	i4, _ := merged.WorkerIndex("w4")
	if got := merged.ValueString(j, merged.ValueOf(i4, j)); got != "information technology" {
		t.Fatalf("w4's value = %q, want the majority representative", got)
	}
	i5, _ := merged.WorkerIndex("w5")
	if got := merged.ValueString(j, merged.ValueOf(i5, j)); got != "zoology" {
		t.Fatalf("w5's value = %q, want zoology untouched", got)
	}
}

func TestMergePresentationsRepairsInversionCollapse(t *testing.T) {
	// The A2 pathology in miniature: heavy presentation noise fragments
	// support, accuracies sink below break-even, elections invert. After
	// canonicalization DATE recovers.
	ds, gt := presentationNoiseDataset(t)
	merged, err := MergePresentations(ds, thresholdCosine, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	res := mustDiscover(t, merged, MethodDATE, DefaultOptions())
	p := canonicalPrecisionOf(t, merged, res, gt)
	if p < 0.9 {
		t.Fatalf("precision after premerge = %v, want >= 0.9", p)
	}
}

func TestMergePresentationsIdempotent(t *testing.T) {
	ds, _ := presentationNoiseDataset(t)
	once, err := MergePresentations(ds, thresholdCosine, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := MergePresentations(once, thresholdCosine, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < once.NumTasks(); j++ {
		if len(once.Values(j)) != len(twice.Values(j)) {
			t.Fatalf("task %d: second merge changed value count %d → %d",
				j, len(once.Values(j)), len(twice.Values(j)))
		}
	}
}
