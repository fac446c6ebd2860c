package wire

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"imc2/internal/imcerr"
	"imc2/internal/platform"
	"imc2/internal/registry"
	"imc2/internal/sched"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2024, 6, 1, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		ra   string
		want time.Duration
	}{
		{"delta seconds", "7", 7 * time.Second},
		{"zero seconds", "0", 0},
		{"negative seconds", "-3", 0},
		{"http date ahead", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http date in the past", now.Add(-time.Minute).Format(http.TimeFormat), 0},
		{"rfc 850 date", now.Add(30 * time.Second).Format("Monday, 02-Jan-06 15:04:05 GMT"), 30 * time.Second},
		{"garbage", "soon", 0},
		{"empty", "", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.ra, now); got != tc.want {
			t.Errorf("%s: parseRetryAfter(%q) = %v, want %v", tc.name, tc.ra, got, tc.want)
		}
	}
}

// TestRetryAfterHTTPDate is the regression for the client dropping
// HTTP-date Retry-After values (RFC 9110 allows both forms; only
// delta-seconds used to parse, leaving RetryAfter zero).
func TestRetryAfterHTTPDate(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", time.Now().Add(30*time.Second).UTC().Format(http.TimeFormat))
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer hs.Close()

	_, err := NewClient(hs.URL).CampaignTasks(context.Background(), "cmp-any")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.RetryAfter <= 0 || apiErr.RetryAfter > 30*time.Second {
		t.Fatalf("RetryAfter = %v, want in (0s, 30s]", apiErr.RetryAfter)
	}
}

// TestV2EstimateEndpoint drives the estimate surface end to end: an
// open campaign without submissions reads empty; the first read after
// the submissions is converged and fresh, and its truth is the settled
// report's truth exactly; after the close the campaign reads empty with
// every submission stale.
func TestV2EstimateEndpoint(t *testing.T) {
	client, _ := startRegistry(t)
	ctx := context.Background()
	w := testWorkload(t, 23)

	info, err := client.CreateCampaign(ctx, CreateCampaignRequest{Name: "live", Tasks: w.Dataset.Tasks()})
	if err != nil {
		t.Fatal(err)
	}
	est, err := client.CampaignEstimate(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if est.CampaignID != info.ID || est.CoveredSubmissions != 0 || est.Staleness != 0 || len(est.Truth) != 0 {
		t.Fatalf("estimate without submissions = %+v", est)
	}

	subs := make([]Submission, 0, w.Dataset.NumWorkers())
	for i := 0; i < w.Dataset.NumWorkers(); i++ {
		subs = append(subs, submissionFor(w, i))
	}
	if _, err := client.SubmitBatch(ctx, info.ID, subs); err != nil {
		t.Fatal(err)
	}

	est, err = client.CampaignEstimate(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Converged || est.Staleness != 0 || est.CoveredSubmissions != len(subs) {
		t.Fatalf("first estimate not converged and fresh: %+v", est)
	}
	if len(est.Truth) == 0 || len(est.WorkerAccuracy) != len(subs) || est.Iterations == 0 || est.Method != "DATE" {
		t.Fatalf("first estimate = %+v", est)
	}

	if _, err := client.CloseCampaign(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.AwaitSettled(ctx, info.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	report, err := client.CampaignReport(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(est.Truth, report.Truth) {
		t.Fatalf("estimate truth != report truth\nest: %v\nrep: %v", est.Truth, report.Truth)
	}

	est, err = client.CampaignEstimate(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if est.CoveredSubmissions != 0 || est.Staleness != len(subs) || len(est.Truth) != 0 || est.Converged {
		t.Fatalf("settled campaign estimate = %+v, want empty with staleness %d", est, len(subs))
	}

	if _, err := client.CampaignEstimate(ctx, "cmp-missing"); !errors.Is(err, imcerr.ErrNotFound) {
		t.Fatalf("missing campaign estimate: err = %v, want not found", err)
	}
}

// TestV2EstimateBackpressure503: an estimate read takes a settle slot,
// so with the slot busy and the admission queue full it is rejected
// with 503 + Retry-After + code "unavailable", and succeeds once the
// queue drains.
func TestV2EstimateBackpressure503(t *testing.T) {
	scheduler := sched.New(sched.Config{MaxConcurrentSettles: 1, MaxQueuedSettles: 1})
	reg := registry.New(registry.WithOwnedScheduler(scheduler))
	t.Cleanup(reg.Close)
	srv := NewRegistryServer(reg, "", platform.DefaultConfig(), nil)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	client := NewClient(hs.URL)
	ctx := context.Background()

	w := testWorkload(t, 23)
	info, err := client.CreateCampaign(ctx, CreateCampaignRequest{Name: "pressured", Tasks: w.Dataset.Tasks()})
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]Submission, 0, w.Dataset.NumWorkers())
	for i := 0; i < w.Dataset.NumWorkers(); i++ {
		subs = append(subs, submissionFor(w, i))
	}
	if _, err := client.SubmitBatch(ctx, info.ID, subs); err != nil {
		t.Fatal(err)
	}

	releaseSlot, err := scheduler.Acquire(ctx, "blocker-slot")
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan func(), 1)
	go func() {
		r, err := scheduler.Acquire(ctx, "blocker-queue")
		if err != nil {
			t.Error(err)
		}
		queued <- r
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !scheduler.QueueFull() {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(100 * time.Microsecond)
	}

	resp, err := http.Get(hs.URL + "/v2/campaigns/" + info.ID + "/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("estimate under backpressure: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After header")
	}
	_, err = client.CampaignEstimate(ctx, info.ID)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || !errors.Is(err, imcerr.ErrUnavailable) || apiErr.RetryAfter <= 0 {
		t.Fatalf("typed estimate under backpressure: %v, want unavailable with a Retry-After hint", err)
	}

	releaseSlot()
	(<-queued)()
	est, err := client.CampaignEstimate(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Converged || est.CoveredSubmissions != len(subs) {
		t.Fatalf("estimate after the queue drained = %+v", est)
	}
}
