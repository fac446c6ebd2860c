// Strategic bidding: Theorem 3 proves truthfulness; this example shows it
// behaviourally. A deviating worker tries overbidding (markup), shading
// (underbidding), and random jitter against truthful populations across a
// pool of campaigns — and never out-earns the truthful baseline.
//
// Run with:
//
//	go run ./examples/strategic
package main

import (
	"fmt"
	"io"
	"log"
	"os"

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
	// Build a pool of feasible campaigns.
	spec := imc2.DefaultCampaignSpec()
	spec.Workers = 30
	spec.Tasks = 25
	spec.Copiers = 7
	spec.TasksPerWorker = 12
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1.5
	spec.MinProvidersPerTask = 5
	spec.ParticipationDecay = 0.3

	opt := imc2.DefaultTruthOptions()
	opt.CopyProb = 0.8
	opt.PriorDependence = 0.05

	var instances []*imc2.AuctionInstance
	for seed := int64(0); len(instances) < 5 && seed < 40; seed++ {
		c, err := imc2.NewCampaign(spec, imc2.NewRNG(seed))
		if err != nil {
			continue
		}
		res, err := imc2.DiscoverTruth(c.Dataset, imc2.MethodDATE, opt)
		if err != nil {
			return err
		}
		in := imc2.BuildAuctionInstance(c.Dataset, res.Accuracy, c.Costs)
		if _, err := imc2.RunReverseAuction(in); err != nil {
			continue // this draw has an irreplaceable winner; skip
		}
		instances = append(instances, in)
	}
	fmt.Fprintf(w, "evaluating strategies across %d campaigns × %d workers each\n\n",
		len(instances), instances[0].NumWorkers())

	strategies := []imc2.BiddingStrategy{
		imc2.TruthfulBidding{},
		imc2.MarkupBidding{Rate: 0.25},
		imc2.MarkupBidding{Rate: 0.75},
		imc2.ShadeBidding{Rate: 0.25},
		imc2.ShadeBidding{Rate: 0.5},
		imc2.JitterBidding{Spread: 0.4},
	}

	rng := imc2.NewRNG(99)
	fmt.Fprintf(w, "%-14s %12s %10s %16s\n", "strategy", "mean utility", "win rate", "negative runs")
	var truthful float64
	for i, s := range strategies {
		rep, err := imc2.SimulateStrategy(instances, s, rng.Split(s.Name()))
		if err != nil {
			return err
		}
		if i == 0 {
			truthful = rep.MeanUtility
		}
		fmt.Fprintf(w, "%-14s %12.4f %10.2f %16d\n",
			rep.Strategy, rep.MeanUtility, rep.WinRate, rep.NegativeRuns)
	}
	fmt.Fprintf(w, "\ntruthful mean utility %.4f is never beaten — Myerson in action:\n", truthful)
	fmt.Fprintln(w, "overbidders lose auctions they should win; shaders win but are")
	fmt.Fprintln(w, "paid their (unchanged) critical value, which their lies put below cost.")
	return nil
}
