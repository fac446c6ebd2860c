package experiment

import (
	"strings"
	"testing"

	"imc2/internal/gen"
	"imc2/internal/model"
	"imc2/internal/simil"
	"imc2/internal/truth"
)

// TestPremergeRepairsPresentationNoise is A2's claim at quick scale:
// with 40% of honest answers in a variant spelling, plain DATE loses
// most tasks (the variants split the truth's support and read as shared
// false values), while merging presentations before inference
// (truth.MergePresentations) recovers them. Both arms score canonical
// precision on the same campaigns.
func TestPremergeRepairsPresentationNoise(t *testing.T) {
	cfg := Config{Reps: 3, Seed: 1, Quick: true}
	spec := cfg.baseSpec()
	spec.PresentationNoise = 0.4
	sim := func(a, b string) float64 {
		if s := simil.Cosine(a, b); s >= 0.7 {
			return s
		}
		return 0
	}
	var plain, merged float64
	for rep := 0; rep < cfg.reps(); rep++ {
		c, err := newCampaign(spec, rngFor(cfg, "a2", spec.PresentationNoise, rep))
		if err != nil {
			t.Fatal(err)
		}
		plain += canonicalPrecisionOn(t, c.Dataset, c)
		ds, err := truth.MergePresentations(c.Dataset, sim, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		merged += canonicalPrecisionOn(t, ds, c)
	}
	plain /= float64(cfg.reps())
	merged /= float64(cfg.reps())
	t.Logf("canonical precision: DATE %.3f, premerge %.3f", plain, merged)
	if merged < plain+0.15 || merged < 0.75 {
		t.Fatalf("premerge precision %.3f does not clearly beat plain DATE %.3f", merged, plain)
	}
}

// canonicalPrecisionOn runs DATE on ds, one presentation of c's dataset,
// and scores the estimate with variant suffixes ("…~p1") stripped.
func canonicalPrecisionOn(t *testing.T, ds *model.Dataset, c *gen.Campaign) float64 {
	t.Helper()
	res, err := truth.Discover(ds, truth.MethodDATE, calibratedTruthOptions())
	if err != nil {
		t.Fatal(err)
	}
	est := res.TruthMap(ds)
	correct := 0
	for task, want := range c.GroundTruth {
		got, _, _ := strings.Cut(est[task], "~")
		if got == want {
			correct++
		}
	}
	return float64(correct) / float64(len(c.GroundTruth))
}
