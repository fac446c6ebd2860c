// Distributed campaign: the full Fig. 1 loop over the /v2 protocol on
// loopback HTTP — the platform publicizes tasks as a campaign, worker
// agents fetch them and submit sealed bids with their data, and closing
// the auction runs DATE plus the reverse auction.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"imc2"
	"imc2/internal/wire"
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
	spec.Workers = 30
	spec.Tasks = 40
	spec.Copiers = 8
	spec.TasksPerWorker = 15
	spec.RequirementLow, spec.RequirementHigh = 1, 2

	campaign, err := imc2.NewCampaign(spec, imc2.NewRNG(11))
	if err != nil {
		return err
	}
	ds := campaign.Dataset

	// Platform side: serve an empty campaign registry over HTTP.
	// Campaigns created over /v2 settle with cfg.
	cfg := imc2.DefaultPlatformConfig()
	cfg.TruthOptions.CopyProb = 0.8
	cfg.TruthOptions.PriorDependence = 0.05
	srv := wire.NewRegistryServer(imc2.NewCampaignRegistry(), "", cfg, log.Printf)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
			log.Printf("server: %v", err)
		}
	}()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(w, "platform listening at %s\n", base)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	client := wire.NewClient(base)

	// The platform publicizes the tasks as a new campaign.
	info, err := client.CreateCampaign(ctx, wire.CreateCampaignRequest{Name: "distributed", Tasks: ds.Tasks()})
	if err != nil {
		return err
	}
	id := info.ID

	// Worker side: fetch the tasks, then submit every worker's envelope.
	tasks, err := client.CampaignTasks(ctx, id)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "campaign %s: fetched %d published tasks\n", id, len(tasks))

	for i := 0; i < ds.NumWorkers(); i++ {
		answers := make(map[string]string)
		for _, j := range ds.WorkerTasks(i) {
			answers[ds.Task(j).ID] = ds.ValueString(j, ds.ValueOf(i, j))
		}
		err := client.SubmitTo(ctx, id, wire.Submission{
			Worker:  ds.WorkerID(i),
			Price:   campaign.Costs[i],
			Answers: answers,
		})
		if err != nil {
			return fmt.Errorf("worker %s: %w", ds.WorkerID(i), err)
		}
	}
	fmt.Fprintf(w, "%d sealed submissions accepted\n\n", ds.NumWorkers())

	// Close the auction: both stages run on the platform, off the request
	// path; poll until the campaign settles, then fetch the report.
	if _, err := client.CloseCampaign(ctx, id); err != nil {
		return err
	}
	if _, err := client.AwaitSettled(ctx, id, 0); err != nil {
		return err
	}
	report, err := client.CampaignReport(ctx, id)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "settled: %d truth-discovery iterations, converged=%v\n",
		report.TruthIterations, report.Converged)
	fmt.Fprintf(w, "precision vs (privately known) ground truth: %.4f\n",
		imc2.Precision(report.Truth, campaign.GroundTruth))
	fmt.Fprintf(w, "winners=%d  social cost=%.3f  total payment=%.3f\n",
		len(report.Winners), report.SocialCost, report.TotalPayment)

	winners := append([]string(nil), report.Winners...)
	sort.Strings(winners)
	fmt.Fprintln(w, "payments:")
	for _, winner := range winners {
		fmt.Fprintf(w, "  %s → %.3f\n", winner, report.Payments[winner])
	}

	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutdownCancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return srv.Shutdown(shutdownCtx)
}
