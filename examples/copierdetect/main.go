// Copier detection at campaign scale: generate a synthetic crowdsourcing
// campaign (the stand-in for the paper's Qatar Living workload), run all
// four truth-discovery methods, and inspect how well DATE's dependence
// posterior separates real copiers from honest workers.
//
// Run with:
//
//	go run ./examples/copierdetect
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"imc2"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the example end to end, writing its narrative to w. The
// split from main keeps the program testable: the package smoke test
// drives run(io.Discard) so `go test ./...` compiles and executes every
// example.
func run(w io.Writer) error {
	spec := imc2.DefaultCampaignSpec()
	spec.Workers = 60
	spec.Tasks = 100
	spec.Copiers = 15
	spec.TasksPerWorker = 30

	campaign, err := imc2.NewCampaign(spec, imc2.NewRNG(2026))
	if err != nil {
		return err
	}
	ds := campaign.Dataset
	fmt.Fprintf(w, "campaign: %d workers (%d copiers), %d tasks, %d observations\n\n",
		ds.NumWorkers(), len(campaign.CopierIndex), ds.NumTasks(), ds.NumObservations())

	opt := imc2.DefaultTruthOptions()
	// Calibrated to this generator (`imc2bench -fig cal`): its copiers copy
	// 80% of their answers, and sparse pairwise overlap wants a small
	// dependence prior.
	opt.CopyProb = 0.8
	opt.PriorDependence = 0.05

	fmt.Fprintln(w, "truth-discovery precision:")
	var date *imc2.TruthResult
	for _, m := range []imc2.TruthMethod{imc2.MethodMV, imc2.MethodNC, imc2.MethodED, imc2.MethodDATE} {
		res, err := imc2.DiscoverTruth(ds, m, opt)
		if err != nil {
			return err
		}
		if m == imc2.MethodDATE {
			date = res
		}
		fmt.Fprintf(w, "  %-5s %.4f  (%d iterations, converged=%v)\n",
			m, imc2.Precision(res.TruthMap(ds), campaign.GroundTruth),
			res.Iterations, res.Converged)
	}

	// Rank worker pairs by detected dependence and check against the
	// generator's actual copier graph.
	isCopyPair := func(a, b int) bool {
		for _, s := range campaign.Sources[a] {
			if s == b {
				return true
			}
		}
		for _, s := range campaign.Sources[b] {
			if s == a {
				return true
			}
		}
		return false
	}

	fmt.Fprintln(w, "\ntop-10 most dependent pairs (per DATE) vs generator's copy graph:")
	hits := 0
	for _, pr := range date.RankDependentPairs()[:10] {
		label := "unrelated"
		if isCopyPair(pr.A, pr.B) {
			label = "real copier↔source"
			hits++
		}
		fmt.Fprintf(w, "  %s ↔ %s  dependence=%.2f  [%s]\n",
			ds.WorkerID(pr.A), ds.WorkerID(pr.B), pr.Total(), label)
	}
	fmt.Fprintf(w, "\n%d/10 of the top pairs are real copier relationships\n", hits)

	// Per-worker copier scores: who should an auditor look at first?
	scores := date.CopierScores()
	type suspect struct {
		i     int
		score float64
	}
	suspects := make([]suspect, 0, len(scores))
	for i, s := range scores {
		suspects = append(suspects, suspect{i, s})
	}
	sort.Slice(suspects, func(a, b int) bool { return suspects[a].score > suspects[b].score })
	flagged := 0
	for _, s := range suspects[:len(campaign.CopierIndex)] {
		if campaign.CopierIndex[s.i] || len(campaign.Sources[s.i]) > 0 {
			flagged++
		}
	}
	fmt.Fprintf(w, "of the %d highest copier scores, %d are real copiers\n",
		len(campaign.CopierIndex), flagged)

	// Mean independence: copiers should be discounted.
	mi := date.MeanIndependence(ds)
	var copierI, honestI float64
	var nc, nh int
	for i, mean := range mi {
		if campaign.CopierIndex[i] {
			copierI += mean
			nc++
		} else {
			honestI += mean
			nh++
		}
	}
	fmt.Fprintf(w, "mean independence probability: honest %.3f vs copiers %.3f\n",
		honestI/float64(nh), copierI/float64(nc))
	return nil
}
