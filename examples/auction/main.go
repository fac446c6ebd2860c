// Reverse auction: run both IMC2 stages on a generated campaign, compare
// the three mechanisms' social costs, and demonstrate truthfulness by
// sweeping one winner's bid around its true cost (the paper's Fig. 8).
//
// Run with:
//
//	go run ./examples/auction
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
	spec := imc2.DefaultCampaignSpec()
	spec.Workers = 50
	spec.Tasks = 60
	spec.Copiers = 12
	spec.TasksPerWorker = 20
	// Over-provisioned so every winner stays replaceable (critical
	// payments must exist for the truthfulness sweep below).
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1.5
	spec.MinProvidersPerTask = 5
	spec.ParticipationDecay = 0.3

	campaign, err := imc2.NewCampaign(spec, imc2.NewRNG(7))
	if err != nil {
		return err
	}
	ds := campaign.Dataset

	// Stage 1: truth discovery estimates the accuracy matrix
	// (calibration per `imc2bench -fig cal`).
	opt := imc2.DefaultTruthOptions()
	opt.CopyProb = 0.8
	opt.PriorDependence = 0.05
	res, err := imc2.DiscoverTruth(ds, imc2.MethodDATE, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stage 1 (DATE): precision %.4f over %d tasks\n\n",
		imc2.Precision(res.TruthMap(ds), campaign.GroundTruth), ds.NumTasks())

	// Stage 2: the reverse auction over the estimated accuracies.
	in := imc2.BuildAuctionInstance(ds, res.Accuracy, campaign.Costs)

	type mech struct {
		name string
		run  func(*imc2.AuctionInstance) (*imc2.AuctionOutcome, error)
	}
	mechanisms := []mech{
		{"ReverseAuction", imc2.RunReverseAuction},
		{"GA (greedy accuracy)", imc2.RunGreedyAccuracy},
		{"GB (greedy bid)", imc2.RunGreedyBid},
	}
	var ra *imc2.AuctionOutcome
	fmt.Fprintln(w, "stage 2: mechanism comparison")
	for _, m := range mechanisms {
		out, err := m.run(in)
		if err != nil {
			return err
		}
		if ra == nil {
			ra = out
		}
		fmt.Fprintf(w, "  %-22s winners=%2d  social cost=%7.3f  total payment=%8.3f\n",
			m.name, len(out.Winners), out.SocialCost, out.TotalPayment)
	}

	// Truthfulness: sweep one winner's bid. Its utility peaks (flat) at
	// the truthful bid and collapses to zero past its critical value.
	target := ra.Winners[0]
	trueCost := in.Bids[target]
	fmt.Fprintf(w, "\ntruthfulness check for winner %s (true cost %.3f):\n",
		ds.WorkerID(target), trueCost)
	fmt.Fprintf(w, "%10s %10s %8s\n", "bid", "utility", "wins?")
	for _, factor := range []float64{0.25, 0.5, 1, 1.5, 2, 3, 5} {
		bid := trueCost * factor
		dev := &imc2.AuctionInstance{
			Bids:         append([]float64(nil), in.Bids...),
			TaskSets:     in.TaskSets,
			Accuracy:     in.Accuracy,
			Requirements: in.Requirements,
		}
		dev.Bids[target] = bid
		out, err := imc2.RunReverseAuction(dev)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10.3f %10.3f %8v\n", bid, out.Utility(target, trueCost), out.IsWinner(target))
	}
	fmt.Fprintln(w, "\nno deviation beats bidding the true cost — Theorem 3's truthfulness.")
	return nil
}
