package imc2_test

// One benchmark per table/figure of the paper's evaluation (§VII) plus
// the ablations in internal/experiment (a1–a4), each regenerating its artifact in quick mode
// (small campaigns, trimmed sweeps). Full-scale regeneration is
// cmd/imc2bench's job; these benches track the cost of the underlying
// machinery release over release.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"imc2"
)

// benchExperiment runs one experiment id per iteration in quick mode.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := imc2.ExperimentConfig{Reps: 1, Seed: 7, Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := imc2.RunExperiment(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s: empty table", id)
		}
	}
}

func BenchmarkFig3a(b *testing.B) { benchExperiment(b, "fig3a") } // precision vs ε, α
func BenchmarkFig3b(b *testing.B) { benchExperiment(b, "fig3b") } // precision vs r
func BenchmarkFig4a(b *testing.B) { benchExperiment(b, "fig4a") } // precision vs tasks
func BenchmarkFig4b(b *testing.B) { benchExperiment(b, "fig4b") } // precision vs workers
func BenchmarkFig5a(b *testing.B) { benchExperiment(b, "fig5a") } // TD runtime vs tasks
func BenchmarkFig5b(b *testing.B) { benchExperiment(b, "fig5b") } // TD runtime vs workers
func BenchmarkFig6a(b *testing.B) { benchExperiment(b, "fig6a") } // social cost vs tasks
func BenchmarkFig6b(b *testing.B) { benchExperiment(b, "fig6b") } // social cost vs workers
func BenchmarkFig7a(b *testing.B) { benchExperiment(b, "fig7a") } // auction runtime vs tasks
func BenchmarkFig7b(b *testing.B) { benchExperiment(b, "fig7b") } // auction runtime vs workers
func BenchmarkFig8a(b *testing.B) { benchExperiment(b, "fig8a") } // winner utility vs bid
func BenchmarkFig8b(b *testing.B) { benchExperiment(b, "fig8b") } // loser utility vs bid

func BenchmarkApproxRatio(b *testing.B)        { benchExperiment(b, "a1") } // A1
func BenchmarkSimilarityAblation(b *testing.B) { benchExperiment(b, "a2") } // A2
func BenchmarkNonuniformAblation(b *testing.B) { benchExperiment(b, "a3") } // A3

// --- Micro-benchmarks of the underlying engines ---------------------------

// benchCampaign generates the standard benchmark workload once.
func benchCampaign(b *testing.B, workers, tasks, copiers, perWorker int) *imc2.Campaign {
	b.Helper()
	spec := imc2.DefaultCampaignSpec()
	spec.Workers = workers
	spec.Tasks = tasks
	spec.Copiers = copiers
	spec.TasksPerWorker = perWorker
	spec.RequirementLow, spec.RequirementHigh = 1, 2
	c, err := imc2.NewCampaign(spec, imc2.NewRNG(3))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchDiscover(b *testing.B, method imc2.TruthMethod) {
	c := benchCampaign(b, 60, 100, 15, 30)
	opt := imc2.DefaultTruthOptions()
	opt.CopyProb = 0.8
	opt.PriorDependence = 0.05
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := imc2.DiscoverTruth(c.Dataset, method, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTruthDATE(b *testing.B) { benchDiscover(b, imc2.MethodDATE) }
func BenchmarkTruthMV(b *testing.B)   { benchDiscover(b, imc2.MethodMV) }
func BenchmarkTruthNC(b *testing.B)   { benchDiscover(b, imc2.MethodNC) }
func BenchmarkTruthED(b *testing.B)   { benchDiscover(b, imc2.MethodED) }

// benchInstance builds one SOAC instance for the mechanism benches.
func benchInstance(b *testing.B) *imc2.AuctionInstance {
	b.Helper()
	c := benchCampaign(b, 60, 100, 15, 30)
	opt := imc2.DefaultTruthOptions()
	opt.CopyProb = 0.8
	opt.PriorDependence = 0.05
	res, err := imc2.DiscoverTruth(c.Dataset, imc2.MethodDATE, opt)
	if err != nil {
		b.Fatal(err)
	}
	return imc2.BuildAuctionInstance(c.Dataset, res.Accuracy, c.Costs)
}

func benchMechanism(b *testing.B, in *imc2.AuctionInstance, run func(*imc2.AuctionInstance) (*imc2.AuctionOutcome, error)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReverseAuction(b *testing.B) {
	benchMechanism(b, benchInstance(b), imc2.RunReverseAuction)
}
func BenchmarkGreedyAccuracy(b *testing.B) {
	benchMechanism(b, benchInstance(b), imc2.RunGreedyAccuracy)
}
func BenchmarkGreedyBid(b *testing.B) { benchMechanism(b, benchInstance(b), imc2.RunGreedyBid) }

// The fig5-scale mechanism benches time stage 2 alone on the instance a
// fig5 settle builds (200,000 index entries). At this scale
// ReverseAuction's critical payments (one selection rerun per winner,
// each resumed from a copy of the full run's state) cost a few times
// GreedyBid's single pass, and both allocate little beyond the coverage
// index, which the small instance above does not show.
func BenchmarkReverseAuctionFig5(b *testing.B) {
	benchMechanism(b, benchFig5Instance(b), imc2.RunReverseAuction)
}
func BenchmarkGreedyBidFig5(b *testing.B) {
	benchMechanism(b, benchFig5Instance(b), imc2.RunGreedyBid)
}

// --- Settle-engine benchmarks (serial vs parallel truth discovery) --------

// benchFig5Campaign generates the fig5-scale workload the parallel
// engine is sized for: 400 workers × 2000 tasks, dense enough (500 tasks
// per worker, ~100 providers per task) that the O(Σ|W^j|²) dependence
// pass dominates the settle.
func benchFig5Campaign(b *testing.B) *imc2.Campaign {
	b.Helper()
	spec := imc2.DefaultCampaignSpec()
	spec.Workers = 400
	spec.Tasks = 2000
	spec.Copiers = 100
	spec.TasksPerWorker = 500
	spec.ParticipationDecay = 0.3
	spec.RequirementLow, spec.RequirementHigh = 1, 2
	c, err := imc2.NewCampaign(spec, imc2.NewRNG(5))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// benchFig5Instance builds the auction instance of the fig5-scale
// campaign from three DATE iterations' accuracies.
func benchFig5Instance(b *testing.B) *imc2.AuctionInstance {
	b.Helper()
	c := benchFig5Campaign(b)
	opt := imc2.DefaultTruthOptions()
	opt.CopyProb = 0.8
	opt.PriorDependence = 0.05
	opt.MaxIterations = 3
	res, err := imc2.DiscoverTruth(c.Dataset, imc2.MethodDATE, opt)
	if err != nil {
		b.Fatal(err)
	}
	return imc2.BuildAuctionInstance(c.Dataset, res.Accuracy, c.Costs)
}

// benchFig5Submissions assembles every worker's sealed envelope for the
// fig5-scale campaign.
func benchFig5Submissions(c *imc2.Campaign) []imc2.Submission {
	ds := c.Dataset
	subs := make([]imc2.Submission, ds.NumWorkers())
	for i := range subs {
		answers := make(map[string]string, len(ds.WorkerTasks(i)))
		for _, j := range ds.WorkerTasks(i) {
			answers[ds.Task(j).ID] = ds.ValueString(j, ds.ValueOf(i, j))
		}
		subs[i] = imc2.Submission{Worker: ds.WorkerID(i), Price: c.Costs[i], Answers: answers}
	}
	return subs
}

// benchSettleConfig is the shared settle shape of the fig5-scale
// benches: GreedyBid stage 2 (so the number tracks truth discovery, not
// the critical-payment search) and a low iteration cap (settle cost is
// linear in iterations).
func benchSettleConfig() imc2.PlatformConfig {
	cfg := imc2.DefaultPlatformConfig()
	cfg.Mechanism = imc2.MechanismGreedyBid
	cfg.TruthOptions.CopyProb = 0.8
	cfg.TruthOptions.PriorDependence = 0.05
	cfg.TruthOptions.MaxIterations = 3
	return cfg
}

// benchDiscoverFig5 times DATE at fig5 scale under a fixed parallelism.
// MaxIterations is pinned low because the engine's cost is linear in
// iterations — three are enough to time the per-iteration passes without
// waiting out full convergence every benchmark run.
func benchDiscoverFig5(b *testing.B, parallelism int) {
	c := benchFig5Campaign(b)
	opt := imc2.DefaultTruthOptions()
	opt.CopyProb = 0.8
	opt.PriorDependence = 0.05
	opt.MaxIterations = 3
	opt.Parallelism = parallelism
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := imc2.DiscoverTruth(c.Dataset, imc2.MethodDATE, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscoverSerial / BenchmarkDiscoverParallel are the committed
// comparison behind the Parallelism option: identical input and results,
// pool of 1 versus pool of GOMAXPROCS. On a 2-vCPU Xeon VM (go1.24,
// medians of three alternating rounds of -benchtime=3x, BENCH_26.json)
// the fig5-scale campaign takes 96 ms serial and 57 ms parallel per op;
// CI runs both once per PR as a smoke test (-benchtime=1x).
func BenchmarkDiscoverSerial(b *testing.B)   { benchDiscoverFig5(b, 1) }
func BenchmarkDiscoverParallel(b *testing.B) { benchDiscoverFig5(b, 0) }

// BenchmarkDiscoverSparse times DATE on perfbench's sparse-gb shape:
// 800 workers (160 copiers) × 2000 tasks, 20 answers per worker, every
// task topped up to 4 providers. The top-ups give some tasks hundreds of
// providers, so 275k of the 320k worker pairs co-observe a task and 173k
// share a value. Both seeds stop after 13 iterations on a revisit of an
// earlier truth vector, where the fig5 benches above take one, so they
// price the per-iteration passes: seed=5 is perfbench's pinned campaign,
// and seed=1 never reaches an iteration that moves no truth, so it
// would otherwise run to the 100-iteration cap. Beside the time, each
// reports the value-sharing pairs ("pairs") and the dependence pass's
// sigmoid evaluations per iteration ("sigmoids/iter"), read from one
// traced run outside the timer.
func BenchmarkDiscoverSparse(b *testing.B) {
	spec := imc2.DefaultCampaignSpec()
	spec.Workers = 800
	spec.Tasks = 2000
	spec.Copiers = 160
	spec.TasksPerWorker = 20
	spec.MinProvidersPerTask = 4
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	for _, seed := range []int64{5, 1} {
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) {
			c, err := imc2.NewCampaign(spec, imc2.NewRNG(seed))
			if err != nil {
				b.Fatal(err)
			}
			opt := imc2.DefaultTruthOptions()
			opt.CopyProb = 0.8
			opt.PriorDependence = 0.05
			var iters int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := imc2.DiscoverTruth(c.Dataset, imc2.MethodDATE, opt)
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.StopTimer()
			var work sparseWork
			opt.Trace = &work
			if _, err := imc2.DiscoverTruth(c.Dataset, imc2.MethodDATE, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(iters), "iters")
			b.ReportMetric(float64(work.pairs), "pairs")
			b.ReportMetric(float64(work.sigmoids)/float64(work.iters), "sigmoids/iter")
		})
	}
}

// sparseWork sums the dependence pass's work over a traced run.
type sparseWork struct{ pairs, sigmoids, iters int }

func (w *sparseWork) ObserveIteration(it imc2.SettleIterationStats) {
	w.pairs = it.SharingPairs
	w.sigmoids += it.Sigmoids
	w.iters++
}

// BenchmarkAssembleFig5 times the settle's assembly phase alone on the
// fig5-scale campaign: compiling the 400 accepted submissions (200k
// answers) into the dataset truth discovery runs on. "columnar" is the
// platform's path — its submission log, interned at Submit, compiled by
// model.FromRows. "builder-oracle" is the assembly that log replaced and
// the platform tests keep as its oracle: every answer through a
// model.Builder, task IDs sorted within each submission, and the bid
// vector aligned by worker lookup.
func BenchmarkAssembleFig5(b *testing.B) {
	c := benchFig5Campaign(b)
	tasks := c.Dataset.Tasks()
	subs := benchFig5Submissions(c)
	b.Run("columnar", func(b *testing.B) {
		p, err := imc2.NewPlatform(tasks)
		if err != nil {
			b.Fatal(err)
		}
		for _, sub := range subs {
			if err := p.Submit(sub); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Dataset(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("builder-oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db := imc2.NewDatasetBuilder()
			for _, t := range tasks {
				db.AddTask(t)
			}
			for _, sub := range subs {
				ids := make([]string, 0, len(sub.Answers))
				for id := range sub.Answers {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				for _, id := range ids {
					db.AddObservation(sub.Worker, id, sub.Answers[id])
				}
			}
			ds, err := db.Build()
			if err != nil {
				b.Fatal(err)
			}
			bids := make([]float64, ds.NumWorkers())
			for _, sub := range subs {
				w, ok := ds.WorkerIndex(sub.Worker)
				if !ok {
					b.Fatalf("worker %q lost during assembly", sub.Worker)
				}
				bids[w] = sub.Price
			}
		}
	})
}

// --- Concurrent settle benchmarks (registry-wide scheduler) ---------------

// benchSettleConcurrent settles `settles` copies of the fig5-scale
// campaign at once through one registry-wide scheduler (shared
// GOMAXPROCS pool, platformd's default admission bound of 2). Together
// with BenchmarkSettleConcurrent/settles=1 it measures the scheduler's
// aggregate-throughput claim: N concurrent settles on the shared pool
// versus one, rather than asserting it. Stage 2 is pinned to GreedyBid
// so the number tracks the scheduled stage — truth discovery — not the
// auction's critical-payment search.
func benchSettleConcurrent(b *testing.B, settles int, instrumented bool) {
	c := benchFig5Campaign(b)
	ds := c.Dataset
	subs := benchFig5Submissions(c)
	cfg := benchSettleConfig()

	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		b.StopTimer()
		// The instrumented variant threads one metrics registry through
		// the scheduler and the campaign registry (platformd's wiring),
		// so benchstat against the plain variant prices the telemetry.
		var o *imc2.MetricsRegistry
		if instrumented {
			o = imc2.NewMetricsRegistry()
		}
		scheduler := imc2.NewSettleScheduler(imc2.SettleSchedulerConfig{MaxConcurrentSettles: 2, Obs: o})
		reg := imc2.NewCampaignRegistry(imc2.WithSettleScheduler(scheduler), imc2.WithObservability(o))
		camps := make([]*imc2.HostedCampaign, settles)
		for k := range camps {
			camp, err := reg.Create(fmt.Sprintf("bench-%d", k), ds.Tasks(), cfg, false)
			if err != nil {
				b.Fatal(err)
			}
			for i := range subs {
				if err := camp.Submit(subs[i]); err != nil {
					b.Fatal(err)
				}
			}
			camps[k] = camp
		}
		b.StartTimer()

		var wg sync.WaitGroup
		errs := make([]error, settles)
		for k, camp := range camps {
			wg.Add(1)
			go func(k int, camp *imc2.HostedCampaign) {
				defer wg.Done()
				_, errs[k] = camp.Settle(context.Background())
			}(k, camp)
		}
		wg.Wait()

		b.StopTimer()
		for k, err := range errs {
			if err != nil {
				b.Fatalf("settle %d: %v", k, err)
			}
		}
		scheduler.Close()
		b.StartTimer()
	}
}

// BenchmarkSettleConcurrent is CI's smoke proof that multi-campaign
// settling stays healthy: 1, 4, and 8 simultaneous fig5-scale settles
// through the shared scheduler.
func BenchmarkSettleConcurrent(b *testing.B) {
	for _, settles := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("settles=%d", settles), func(b *testing.B) {
			benchSettleConcurrent(b, settles, false)
		})
	}
}

// BenchmarkSettleConcurrentInstrumented is the same shape with the full
// observability layer on (settle tracing, scheduler and registry
// metrics) — benchstat against BenchmarkSettleConcurrent/settles=4
// bounds what telemetry costs a fig5-scale settle.
func BenchmarkSettleConcurrentInstrumented(b *testing.B) {
	b.Run("settles=4", func(b *testing.B) {
		benchSettleConcurrent(b, 4, true)
	})
}

// BenchmarkCampaignGeneration tracks the workload generator itself at the
// paper's default scale.
func BenchmarkCampaignGeneration(b *testing.B) {
	spec := imc2.DefaultCampaignSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := imc2.NewCampaign(spec, imc2.NewRNG(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDATEScale sweeps DATE's cost with the campaign size, the shape
// behind Fig. 5.
func BenchmarkDATEScale(b *testing.B) {
	for _, n := range []int{30, 60, 120} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			c := benchCampaign(b, n, 100, n/4, 30)
			opt := imc2.DefaultTruthOptions()
			opt.CopyProb = 0.6
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := imc2.DiscoverTruth(c.Dataset, imc2.MethodDATE, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
