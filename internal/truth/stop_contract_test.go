package truth_test

import (
	"encoding/json"
	"math"
	"testing"

	"imc2/internal/auction"
	"imc2/internal/gen"
	"imc2/internal/platform"
	"imc2/internal/randx"
	"imc2/internal/stats"
	"imc2/internal/truth"
)

// contractRow is one settle of the stopping-rule contract: the settled
// report beside the zero-change oracle on the same dataset.
type contractRow struct {
	Shape             string  `json:"shape"`
	Seed              int64   `json:"seed"`
	Order             string  `json:"order"`
	Iterations        int     `json:"iterations"`
	Converged         bool    `json:"converged"`
	Precision         float64 `json:"precision"`
	SocialCost        float64 `json:"social_cost"`
	OracleIterations  int     `json:"oracle_iterations"`
	OracleConverged   bool    `json:"oracle_converged"`
	OraclePrecision   float64 `json:"oracle_precision"`
	OracleSocialCost  float64 `json:"oracle_social_cost"`
	PrecisionAbsDelta float64 `json:"precision_abs_delta"`
}

// TestStopRuleContract is the precision contract of the revisit stopping
// rule. It settles the benchmark's two campaign shapes at full size
// (fig5: 400 × 2000, 500 answers per worker; sparse: 800 × 2000, 20
// answers per worker) at generator seeds 1–10 with GreedyBid, r = 0.8
// and α = 0.05, submitting the workers forwards and reversed: the order
// fixes the dataset's worker and value indexing. Each settle's precision
// must be within ±0.005 of DATE run to the zero-change rule (at most
// MaxIterations = 100) on the same dataset. Social costs are logged
// beside the oracle's, one JSON row per settle.
func TestStopRuleContract(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-scale settles")
	}
	fig5 := gen.DefaultSpec()
	fig5.Workers, fig5.Tasks, fig5.Copiers = 400, 2000, 100
	fig5.TasksPerWorker = 500
	fig5.ParticipationDecay = 0.3
	fig5.RequirementLow, fig5.RequirementHigh = 1, 2
	sparse := gen.DefaultSpec()
	sparse.Workers, sparse.Tasks, sparse.Copiers = 800, 2000, 160
	sparse.TasksPerWorker = 20
	sparse.MinProvidersPerTask = 4
	sparse.RequirementLow, sparse.RequirementHigh = 0.5, 1
	for _, shape := range []struct {
		name string
		spec gen.CampaignSpec
	}{{"fig5", fig5}, {"sparse", sparse}} {
		for seed := int64(1); seed <= 10; seed++ {
			c, err := gen.NewCampaign(shape.spec, randx.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			for _, order := range []string{"forward", "reversed"} {
				row := settleAgainstZeroChange(t, c, order == "reversed")
				row.Shape, row.Seed, row.Order = shape.name, seed, order
				line, err := json.Marshal(row)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%s", line)
				if row.PrecisionAbsDelta > 0.005 {
					t.Errorf("%s seed %d %s: precision %.4f, zero-change oracle %.4f", row.Shape, seed, order, row.Precision, row.OraclePrecision)
				}
			}
		}
	}
}

// settleAgainstZeroChange submits c's workers in order (or reversed),
// settles the campaign, and scores the zero-change oracle on the dataset
// the settle assembled.
func settleAgainstZeroChange(t *testing.T, c *gen.Campaign, reversed bool) contractRow {
	t.Helper()
	src := c.Dataset
	p, err := platform.New(src.Tasks())
	if err != nil {
		t.Fatal(err)
	}
	price := make(map[string]float64, src.NumWorkers())
	for k := 0; k < src.NumWorkers(); k++ {
		i := k
		if reversed {
			i = src.NumWorkers() - 1 - k
		}
		answers := make(map[string]string, len(src.WorkerTasks(i)))
		for _, j := range src.WorkerTasks(i) {
			answers[src.Task(j).ID] = src.ValueString(j, src.ValueOf(i, j))
		}
		price[src.WorkerID(i)] = c.Costs[i]
		if err := p.Submit(platform.Submission{Worker: src.WorkerID(i), Price: c.Costs[i], Answers: answers}); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := p.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	cfg := platform.DefaultConfig()
	cfg.Mechanism = platform.MechanismGreedyBid
	cfg.TruthOptions.CopyProb = 0.8
	cfg.TruthOptions.PriorDependence = 0.05
	rep, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := truth.ZeroChangeDiscover(ds, cfg.TruthOptions)
	if err != nil {
		t.Fatal(err)
	}
	bids := make([]float64, ds.NumWorkers())
	for i := range bids {
		bids[i] = price[ds.WorkerID(i)]
	}
	out, err := auction.GreedyBid(platform.BuildInstance(ds, want.Accuracy, bids))
	if err != nil {
		t.Fatal(err)
	}
	row := contractRow{
		Iterations:       rep.TruthIterations,
		Converged:        rep.Converged,
		Precision:        stats.Precision(rep.Truth, c.GroundTruth),
		SocialCost:       rep.SocialCost,
		OracleIterations: want.Iterations,
		OracleConverged:  want.Converged,
		OraclePrecision:  stats.Precision(want.TruthMap(ds), c.GroundTruth),
		OracleSocialCost: out.SocialCost,
	}
	row.PrecisionAbsDelta = math.Abs(row.Precision - row.OraclePrecision)
	return row
}
