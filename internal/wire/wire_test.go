package wire

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"imc2/internal/gen"
	"imc2/internal/platform"
)

// startCampaign serves an empty registry over loopback HTTP, creates one
// open campaign over the generated workload's tasks, and returns the
// client, the generated campaign and the campaign's ID.
func startCampaign(t *testing.T, seed int64) (*Client, *gen.Campaign, string) {
	t.Helper()
	client, _ := startRegistry(t)
	w := testWorkload(t, seed)
	info, err := client.CreateCampaign(context.Background(), CreateCampaignRequest{Name: "test", Tasks: w.Dataset.Tasks()})
	if err != nil {
		t.Fatal(err)
	}
	return client, w, info.ID
}

// submitAll posts every worker's envelope, one request each, in
// worker-index order.
func submitAll(t *testing.T, client *Client, w *gen.Campaign, id string) {
	t.Helper()
	for i := 0; i < w.Dataset.NumWorkers(); i++ {
		if err := client.SubmitTo(context.Background(), id, submissionFor(w, i)); err != nil {
			t.Fatalf("worker %d submission failed: %v", i, err)
		}
	}
}

// settle closes the campaign, waits for the settle and returns the
// report.
func settle(t *testing.T, client *Client, id string) *Report {
	t.Helper()
	ctx := context.Background()
	if _, err := client.CloseCampaign(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := client.AwaitSettled(ctx, id, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rep, err := client.CampaignReport(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func submissionFor(c *gen.Campaign, i int) Submission {
	ds := c.Dataset
	answers := make(map[string]string)
	for _, j := range ds.WorkerTasks(i) {
		answers[ds.Task(j).ID] = ds.ValueString(j, ds.ValueOf(i, j))
	}
	return Submission{Worker: ds.WorkerID(i), Price: c.Costs[i], Answers: answers}
}

// requireStatus fails unless err is an *APIError with the given status.
func requireStatus(t *testing.T, what string, err error, status int) {
	t.Helper()
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != status {
		t.Fatalf("%s: err = %v, want %d", what, err, status)
	}
}

func TestEndToEndOverHTTP(t *testing.T) {
	client, c, id := startCampaign(t, 42)
	ctx := context.Background()

	if !client.Healthy(ctx) {
		t.Fatal("health check failed")
	}
	tasks, err := client.CampaignTasks(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != c.Dataset.NumTasks() {
		t.Fatalf("tasks = %d, want %d", len(tasks), c.Dataset.NumTasks())
	}

	// Submit in worker-index order: the mechanisms break ties by index,
	// so bit-exact equality with the local run requires the same
	// submission order (concurrent submission is exercised separately).
	submitAll(t, client, c, id)
	report := settle(t, client, id)
	if len(report.Winners) == 0 {
		t.Fatal("no winners over the wire")
	}

	// The wire run must match the identical in-process run bit for bit.
	p2, err := platform.New(c.Dataset.Tasks())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Dataset.NumWorkers(); i++ {
		sub := submissionFor(c, i)
		if err := p2.Submit(platform.Submission{
			Worker: sub.Worker, Price: sub.Price, Answers: sub.Answers,
		}); err != nil {
			t.Fatal(err)
		}
	}
	local, err := p2.Run(platform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(local.Winners) != fmt.Sprint(report.Winners) {
		t.Errorf("winners differ: wire %v vs local %v", report.Winners, local.Winners)
	}
	if math.Abs(local.SocialCost-report.SocialCost) > 1e-9 {
		t.Errorf("social cost differs: wire %v vs local %v", report.SocialCost, local.SocialCost)
	}
	for w, p := range local.Payments {
		if math.Abs(report.Payments[w]-p) > 1e-9 {
			t.Errorf("payment for %s differs: wire %v vs local %v", w, report.Payments[w], p)
		}
	}
	for task, v := range local.Truth {
		if report.Truth[task] != v {
			t.Errorf("truth for %s differs: wire %q vs local %q", task, report.Truth[task], v)
		}
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	client, c, id := startCampaign(t, 99)
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make([]error, c.Dataset.NumWorkers())
	for i := 0; i < c.Dataset.NumWorkers(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = client.SubmitTo(ctx, id, submissionFor(c, i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d concurrent submission failed: %v", i, err)
		}
	}
	report := settle(t, client, id)
	if len(report.Winners) == 0 {
		t.Fatal("no winners")
	}
	// Individual rationality must hold regardless of arrival order.
	for _, w := range report.Winners {
		i, ok := c.Dataset.WorkerIndex(w)
		if !ok {
			t.Fatalf("winner %q unknown", w)
		}
		if report.Payments[w] < c.Costs[i]-1e-9 {
			t.Errorf("winner %q paid %v below cost %v", w, report.Payments[w], c.Costs[i])
		}
	}
}

func TestAuditEndpoint(t *testing.T) {
	client, c, id := startCampaign(t, 21)
	ctx := context.Background()

	_, err := client.CampaignAudit(ctx, id)
	requireStatus(t, "audit before close", err, 409)

	submitAll(t, client, c, id)
	settle(t, client, id)

	audit, err := client.CampaignAudit(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(audit.Pairs) == 0 {
		t.Fatal("audit returned no suspect pairs")
	}
	if len(audit.CopierScores) != c.Dataset.NumWorkers() {
		t.Fatalf("copier scores = %d entries, want %d",
			len(audit.CopierScores), c.Dataset.NumWorkers())
	}
	for _, pr := range audit.Pairs {
		if pr.AtoB < 0 || pr.AtoB > 1 || pr.BtoA < 0 || pr.BtoA > 1 {
			t.Fatalf("suspect pair probabilities out of range: %+v", pr)
		}
		if _, ok := c.Dataset.WorkerIndex(pr.WorkerA); !ok {
			t.Fatalf("unknown worker in audit: %q", pr.WorkerA)
		}
	}
	// Pairs arrive strongest-first.
	for i := 1; i < len(audit.Pairs); i++ {
		prev := audit.Pairs[i-1].AtoB + audit.Pairs[i-1].BtoA
		cur := audit.Pairs[i].AtoB + audit.Pairs[i].BtoA
		if cur > prev+1e-9 {
			t.Fatalf("audit pairs not sorted at %d", i)
		}
	}
}

// TestReportBeforeClose: neither the report nor the audit exists before
// the settle, with or without submissions.
func TestReportBeforeClose(t *testing.T) {
	client, c, id := startCampaign(t, 5)
	ctx := context.Background()
	check := func(when string) {
		t.Helper()
		_, err := client.CampaignReport(ctx, id)
		requireStatus(t, "report "+when, err, 409)
		_, err = client.CampaignAudit(ctx, id)
		requireStatus(t, "audit "+when, err, 409)
	}
	check("before any submission")
	if err := client.SubmitTo(ctx, id, submissionFor(c, 0)); err != nil {
		t.Fatal(err)
	}
	check("before close")
}

func TestSubmitAfterCloseRejected(t *testing.T) {
	client, c, id := startCampaign(t, 7)
	submitAll(t, client, c, id)
	settle(t, client, id)
	err := client.SubmitTo(context.Background(), id, Submission{
		Worker: "latecomer", Price: 1, Answers: map[string]string{c.Dataset.Task(0).ID: "x"},
	})
	requireStatus(t, "late submission", err, 409)
}

func TestDuplicateSubmissionConflict(t *testing.T) {
	client, c, id := startCampaign(t, 9)
	ctx := context.Background()
	sub := submissionFor(c, 0)
	if err := client.SubmitTo(ctx, id, sub); err != nil {
		t.Fatal(err)
	}
	requireStatus(t, "duplicate", client.SubmitTo(ctx, id, sub), 409)
	// The same worker inside a batch is a duplicate too.
	_, err := client.SubmitBatch(ctx, id, []Submission{sub})
	requireStatus(t, "duplicate in batch", err, 409)
}

func TestMalformedSubmissionRejected(t *testing.T) {
	client, c, id := startCampaign(t, 11)
	// Invalid body straight to the endpoint.
	resp, err := http.Post(client.base+"/v2/campaigns/"+id+"/submissions", "application/json",
		strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed body: status = %d, want 400", resp.StatusCode)
	}
	// Structurally valid JSON but semantically bad (negative price).
	err = client.SubmitTo(context.Background(), id, Submission{Worker: "w", Price: -1,
		Answers: map[string]string{c.Dataset.Task(0).ID: "v"}})
	requireStatus(t, "negative price", err, 400)
}

// TestCloseIsIdempotent: closing a settled campaign again starts no
// second settle, and every read returns the first settle's report.
func TestCloseIsIdempotent(t *testing.T) {
	client, c, id := startCampaign(t, 13)
	ctx := context.Background()
	submitAll(t, client, c, id)
	r1 := settle(t, client, id)
	again, err := client.CloseCampaign(ctx, id)
	if err != nil || again.State != "settled" {
		t.Fatalf("second close: %+v, %v", again, err)
	}
	r2, err := client.CampaignReport(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("report changed after a second close")
	}
}

func TestCloseWithoutSubmissions(t *testing.T) {
	client, _, id := startCampaign(t, 15)
	_, err := client.CloseCampaign(context.Background(), id)
	requireStatus(t, "close without submissions", err, 422)
}
