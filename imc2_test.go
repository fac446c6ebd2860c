package imc2_test

// End-to-end exercises of the public facade: everything a downstream user
// would touch, wired together exactly as the README shows.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"imc2"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	ds, err := imc2.NewDatasetBuilder().
		AddTask(imc2.Task{ID: "capital-au", NumFalse: 3, Requirement: 1, Value: 5}).
		AddObservation("alice", "capital-au", "Canberra").
		AddObservation("bob", "capital-au", "Sydney").
		AddObservation("carol", "capital-au", "Canberra").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := imc2.DiscoverTruth(ds, imc2.MethodDATE, imc2.DefaultTruthOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TruthMap(ds)["capital-au"]; got != "Canberra" {
		t.Fatalf("truth = %q, want Canberra", got)
	}
}

func TestFacadeTable1(t *testing.T) {
	ds, groundTruth, err := imc2.Table1()
	if err != nil {
		t.Fatal(err)
	}
	mv, err := imc2.DiscoverTruth(ds, imc2.MethodMV, imc2.DefaultTruthOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := imc2.DefaultTruthOptions()
	opt.CopyProb = 0.8
	date, err := imc2.DiscoverTruth(ds, imc2.MethodDATE, opt)
	if err != nil {
		t.Fatal(err)
	}
	pMV := imc2.Precision(mv.TruthMap(ds), groundTruth)
	pDATE := imc2.Precision(date.TruthMap(ds), groundTruth)
	if pDATE < pMV {
		t.Fatalf("DATE precision %v below voting %v on Table 1", pDATE, pMV)
	}
}

func TestFacadeTable1Extended(t *testing.T) {
	ds, groundTruth, err := imc2.Table1Extended()
	if err != nil {
		t.Fatal(err)
	}
	mv, err := imc2.DiscoverTruth(ds, imc2.MethodMV, imc2.DefaultTruthOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := imc2.DefaultTruthOptions()
	opt.CopyProb = 0.8
	date, err := imc2.DiscoverTruth(ds, imc2.MethodDATE, opt)
	if err != nil {
		t.Fatal(err)
	}
	pMV := imc2.Precision(mv.TruthMap(ds), groundTruth)
	pDATE := imc2.Precision(date.TruthMap(ds), groundTruth)
	if pMV > 0.7 {
		t.Fatalf("MV precision %v: the copied majorities should defeat voting", pMV)
	}
	if pDATE < 0.9 {
		t.Fatalf("DATE precision %v, want >= 0.9 (overturned copies)", pDATE)
	}
	// The copied majorities voting got wrong must be overturned.
	truth := date.TruthMap(ds)
	for task, want := range map[string]string{
		"Halevy": "Google", "Gray": "Microsoft", "Codd": "IBM",
	} {
		if truth[task] != want {
			t.Errorf("DATE %s = %q, want %q", task, truth[task], want)
		}
	}
}

func TestFacadeFullCampaign(t *testing.T) {
	spec := imc2.DefaultCampaignSpec()
	spec.Workers = 24
	spec.Tasks = 20
	spec.Copiers = 6
	spec.TasksPerWorker = 12
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	campaign, err := imc2.NewCampaign(spec, imc2.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	ds := campaign.Dataset

	p, err := imc2.NewPlatform(ds.Tasks())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.NumWorkers(); i++ {
		answers := make(map[string]string)
		for _, j := range ds.WorkerTasks(i) {
			answers[ds.Task(j).ID] = ds.ValueString(j, ds.ValueOf(i, j))
		}
		err := p.Submit(imc2.Submission{
			Worker:  ds.WorkerID(i),
			Price:   campaign.Costs[i],
			Answers: answers,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	report, err := p.Run(imc2.DefaultPlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Winners) == 0 {
		t.Fatal("no winners")
	}
	if report.TotalPayment < report.SocialCost {
		t.Fatalf("payment %v below social cost %v", report.TotalPayment, report.SocialCost)
	}
}

func TestFacadeAuctionHelpers(t *testing.T) {
	in := &imc2.AuctionInstance{
		Bids:         []float64{2, 1, 1.2, 4},
		TaskSets:     [][]int{{0, 1}, {0}, {1}, {0, 1}},
		Accuracy:     [][]float64{{0.6, 0.6}, {0.5}, {0.5}, {0.5, 0.5}}, // aligned with TaskSets
		Requirements: []float64{1, 1},
	}
	ra, err := imc2.RunReverseAuction(in)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := imc2.OptimalSocialCost(in)
	if err != nil {
		t.Fatal(err)
	}
	if ra.SocialCost < opt {
		t.Fatalf("greedy %v beat optimal %v", ra.SocialCost, opt)
	}
	if bound := imc2.ApproximationBound(in); ra.SocialCost/opt > bound {
		t.Fatalf("ratio above theoretical bound %v", bound)
	}
	if _, err := imc2.RunGreedyAccuracy(in); err != nil {
		t.Fatal(err)
	}
	if _, err := imc2.RunGreedyBid(in); err != nil {
		t.Fatal(err)
	}
	if _, err := imc2.RunOptimalAuction(in); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSimilarity(t *testing.T) {
	for _, name := range []string{"cosine", "euclidean", "pearson", "asymmetric", "levenshtein", "jaccard"} {
		fn, err := imc2.SimilarityByName(name)
		if err != nil {
			t.Fatalf("SimilarityByName(%q): %v", name, err)
		}
		if got := fn("abc", "abc"); got != 1 {
			t.Errorf("%s self-similarity = %v", name, got)
		}
	}
	if imc2.CosineSimilarity("UWisc", "UWise") <= 0 {
		t.Error("cosine similarity of near-duplicates should be positive")
	}
}

func TestFacadeFalseModels(t *testing.T) {
	var m imc2.FalseValueModel = imc2.UniformFalse{}
	if got := m.AgreementProb(4); got != 0.25 {
		t.Errorf("uniform agreement = %v", got)
	}
	m = imc2.ZipfFalse{S: 1}
	if got := m.AgreementProb(4); got <= 0.25 {
		t.Errorf("zipf agreement = %v, want > uniform", got)
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := imc2.ExperimentIDs()
	if len(ids) < 12 {
		t.Fatalf("only %d experiment ids", len(ids))
	}
	cfg := imc2.ExperimentConfig{Reps: 1, Seed: 3, Quick: true}
	tbl, err := imc2.RunExperiment("fig3b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Markdown(), "fig3b") {
		t.Error("markdown missing figure id")
	}
	if !strings.Contains(tbl.CSV(), "DATE") {
		t.Error("CSV missing series")
	}
}

func TestFacadeRegistryLifecycle(t *testing.T) {
	reg := imc2.NewCampaignRegistry()
	campaign, err := imc2.NewCampaign(imc2.DefaultCampaignSpec(), imc2.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := imc2.DefaultPlatformConfig()
	cfg.TruthMethod = imc2.MethodMV
	cfg.Mechanism = imc2.MechanismGreedyBid
	hosted, err := reg.Create("facade", campaign.Dataset.Tasks(), cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if hosted.State() != imc2.CampaignDraft {
		t.Fatalf("state = %v, want draft", hosted.State())
	}
	if err := hosted.Open(); err != nil {
		t.Fatal(err)
	}
	if got, err := reg.Get(hosted.ID()); err != nil || got != hosted {
		t.Fatalf("Get = %v, %v", got, err)
	}
	_, err = reg.Get("cmp-nope")
	if !errors.Is(err, imc2.ErrNotFound) || imc2.ErrorCodeOf(err) != imc2.CodeNotFound {
		t.Fatalf("missing campaign err = %v", err)
	}
	if err := hosted.Cancel(); err != nil {
		t.Fatal(err)
	}
	if hosted.State() != imc2.CampaignCancelled {
		t.Fatalf("state = %v, want cancelled", hosted.State())
	}
	if _, total := reg.List(0, 10); total != 1 {
		t.Fatalf("total = %d", total)
	}
}

// hostSchedCampaign creates a campaign on reg and submits every worker's
// bid and answers, ready to settle.
func hostSchedCampaign(t *testing.T, reg *imc2.CampaignRegistry, name string, seed int64) *imc2.HostedCampaign {
	t.Helper()
	spec := imc2.DefaultCampaignSpec()
	spec.Workers, spec.Tasks, spec.Copiers, spec.TasksPerWorker = 20, 15, 5, 9
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	spec.ParticipationDecay = 0.3
	campaign, err := imc2.NewCampaign(spec, imc2.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	hosted, err := reg.Create(name, campaign.Dataset.Tasks(), imc2.DefaultPlatformConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	ds := campaign.Dataset
	for i := 0; i < ds.NumWorkers(); i++ {
		answers := make(map[string]string)
		for _, j := range ds.WorkerTasks(i) {
			answers[ds.Task(j).ID] = ds.ValueString(j, ds.ValueOf(i, j))
		}
		if err := hosted.Submit(imc2.Submission{Worker: ds.WorkerID(i), Price: campaign.Costs[i], Answers: answers}); err != nil {
			t.Fatal(err)
		}
	}
	return hosted
}

func TestFacadeSettleScheduler(t *testing.T) {
	// The caller owns the scheduler: the registry settles through it and
	// never closes it.
	s := imc2.NewSettleScheduler(imc2.SettleSchedulerConfig{Workers: 2, MaxConcurrentSettles: 2})
	reg := imc2.NewCampaignRegistry(imc2.WithSettleScheduler(s))
	rep, err := hostSchedCampaign(t, reg, "sched", 6).Settle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Winners) == 0 {
		t.Fatal("scheduled settle produced no winners")
	}
	stats := s.Stats()
	if stats.MaxConcurrentSettles != 2 || stats.TotalCompleted != 1 {
		t.Fatalf("scheduler stats = %+v", stats)
	}
	// Close is idempotent and leaves later (inline) settles working.
	s.Close()
	s.Close()
	rep2, err := hostSchedCampaign(t, reg, "after-close", 6).Settle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Winners) != len(rep.Winners) {
		t.Fatalf("settle after Close: %d winners, want %d", len(rep2.Winners), len(rep.Winners))
	}
}

func TestFacadeExplicitSettleScheduler(t *testing.T) {
	s := imc2.NewSettleScheduler(imc2.SettleSchedulerConfig{Workers: 2, MaxConcurrentSettles: 1})
	defer s.Close()
	reg := imc2.NewCampaignRegistry(imc2.WithSettleScheduler(s))
	if reg.Scheduler() != s {
		t.Fatal("explicit scheduler not attached")
	}
}
