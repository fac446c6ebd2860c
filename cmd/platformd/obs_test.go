package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"imc2/internal/gen"
	"imc2/internal/randx"
	"imc2/internal/wire"
)

// workloadSubmissions regenerates the daemon's seeded campaign workload
// (the contract worker agents rely on) as sealed submissions.
func workloadSubmissions(t *testing.T, seed int64, workers, tasks, copiers int) []wire.Submission {
	t.Helper()
	spec, err := gen.DemoSpec(workers, tasks, copiers)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gen.NewCampaign(spec, randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	ds := w.Dataset
	subs := make([]wire.Submission, 0, ds.NumWorkers())
	for i := 0; i < ds.NumWorkers(); i++ {
		answers := make(map[string]string)
		for _, j := range ds.WorkerTasks(i) {
			answers[ds.Task(j).ID] = ds.ValueString(j, ds.ValueOf(i, j))
		}
		subs = append(subs, wire.Submission{Worker: ds.WorkerID(i), Price: w.Costs[i], Answers: answers})
	}
	return subs
}

func TestRunRejectsBadObservabilityFlags(t *testing.T) {
	if err := run([]string{"-log-format", "xml", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("unknown -log-format accepted")
	}
	if err := run([]string{"-pprof", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("-pprof without -metrics-addr accepted")
	}
}

// TestMetricsEndpointE2E drives the real daemon with the observability
// flags on: a campaign is settled over the wire, then /metrics on the
// second listener must expose every subsystem's instruments, and the
// pprof index must answer on the same listener.
func TestMetricsEndpointE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real daemon; skipped in -short")
	}
	bin := buildPlatformd(t)

	const (
		seed    = 7
		workers = 20
		tasks   = 30
		copiers = 5
	)
	metricsAddr := freeAddr(t)
	d := startDaemon(t, bin, []string{
		"-addr", freeAddr(t),
		"-seed", fmt.Sprint(seed), "-workers", fmt.Sprint(workers),
		"-tasks", fmt.Sprint(tasks), "-copiers", fmt.Sprint(copiers),
		"-parallelism", "1",
		"-metrics-addr", metricsAddr, "-pprof", "-log-format", "json",
	})

	ctx := context.Background()
	id := soleCampaignID(t, d.client)
	if _, err := d.client.SubmitBatch(ctx, id, workloadSubmissions(t, seed, workers, tasks, copiers)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.CloseCampaign(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.AwaitSettled(ctx, id, 0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		t.Fatalf("scraping /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	text := string(body)
	for _, want := range []string{
		"imc2_wire_requests_total{",
		"imc2_sched_settles_completed_total 1",
		`imc2_registry_campaigns_count{state="settled"} 1`,
		"imc2_registry_submissions_total 20",
		"imc2_truth_settles_total{",
		"imc2_truth_settle_iterations_count_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// No store flags: the store metrics must not be registered, not
	// report zeros — absent subsystems stay absent.
	if strings.Contains(text, "imc2_store_") {
		t.Error("/metrics exposes store metrics without -data-dir")
	}

	// pprof rides the metrics listener when -pprof is set.
	pp, err := http.Get("http://" + metricsAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("pprof: %v", err)
	}
	io.Copy(io.Discard, pp.Body)
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline = %d", pp.StatusCode)
	}

	// The daemon's structured logs are JSON objects under -log-format
	// json: every stderr line parses as one. Stop the daemon first so
	// the stderr builder is no longer being written.
	d.stopGracefully(t)
	for _, line := range strings.Split(strings.TrimSpace(d.stderr.String()), "\n") {
		if line != "" && !strings.HasPrefix(line, "{") {
			t.Errorf("stderr line is not JSON: %q", line)
		}
	}
}
