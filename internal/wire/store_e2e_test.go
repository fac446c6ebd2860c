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
	"imc2/internal/store"
)

// openStore opens a durable store for wire tests (fsync off: the tests
// crash by dropping handles, not the OS).
func openStore(t *testing.T, dir string) *store.FileStore {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, SnapshotEvery: -1, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestE2EDurableServerRecovery is the wire-level crash-recovery proof:
// a durable server settles one campaign and leaves another open, the
// process "dies" (store handle dropped, never closed), and a second
// server recovered from the same directory must serve the identical
// settled report, the open campaign's submissions, persisted/
// recovered_at in snapshots, and the recovery counters in the store
// section of /v2/stats.
func TestE2EDurableServerRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := platform.DefaultConfig()
	ctx := context.Background()

	// Life before the crash.
	st1 := openStore(t, dir)
	reg1 := registry.New(registry.WithStore(st1))
	_, client1 := serveRegistry(t, reg1, cfg)
	w := testWorkload(t, 21)
	info, baseline := driveCampaign(t, client1, w, "durable")
	if !info.Persisted {
		t.Fatal("campaign snapshot does not read persisted on a durable server")
	}
	openInfo, err := client1.CreateCampaign(ctx, CreateCampaignRequest{Name: "still-open", Tasks: w.Dataset.Tasks()})
	if err != nil {
		t.Fatal(err)
	}
	if err := client1.SubmitTo(ctx, openInfo.ID, submissionFor(w, 0)); err != nil {
		t.Fatal(err)
	}
	ps, err := client1.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ss := ps.Store
	if !ss.Enabled || ss.AppendedEvents == 0 || ss.Campaigns != 2 {
		t.Fatalf("store stats before crash = %+v", ss)
	}

	// Crash: st1 is never closed. Recover into a fresh server.
	st2 := openStore(t, dir)
	reg2 := registry.New(registry.WithStore(st2))
	pending, err := reg2.Restore(st2.State().Campaigns(), st2.RecoveredAt())
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("pending settles = %d, want 0", len(pending))
	}
	_, client2 := serveRegistry(t, reg2, cfg)

	rep, err := client2.CampaignReport(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, baseline) {
		t.Fatal("recovered report diverged from the pre-crash report")
	}
	snap, err := client2.Campaign(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Persisted || snap.RecoveredAt == "" {
		t.Fatalf("recovered snapshot = %+v, want persisted with recovered_at", snap)
	}
	if _, err := time.Parse(time.RFC3339, snap.RecoveredAt); err != nil {
		t.Fatalf("recovered_at %q is not RFC 3339: %v", snap.RecoveredAt, err)
	}
	gotOpen, err := client2.Campaign(ctx, openInfo.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotOpen.State != "open" || gotOpen.Submissions != 1 {
		t.Fatalf("open campaign after recovery = %+v", gotOpen)
	}
	ps2, err := client2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ss2 := ps2.Store
	if !ss2.Enabled || ss2.RecoveredCampaigns != 2 || ss2.RecoveredEvents == 0 || ss2.RecoveredAt == "" {
		t.Fatalf("store stats after recovery = %+v", ss2)
	}
}

// TestE2EMidSettleRecoveryResumes stages a campaign that died between
// the close request and the settled event; the recovered server's
// ResumeSettles must finish the settle through the normal admission
// path, and the report must match the never-crashed baseline.
func TestE2EMidSettleRecoveryResumes(t *testing.T) {
	dir := t.TempDir()
	cfg := platform.DefaultConfig()
	cfg.TruthOptions.Parallelism = 1
	ctx := context.Background()

	// Baseline: same campaign settled on an in-memory server.
	w := testWorkload(t, 22)
	memReg := registry.New()
	_, memClient := serveRegistry(t, memReg, cfg)
	_, baseline := driveCampaign(t, memClient, w, "baseline")

	// Durable run: submissions land, the close request is logged, then
	// the process dies before the settle completes (staged by appending
	// the close-requested event exactly as the settle hook would).
	st1 := openStore(t, dir)
	reg1 := registry.New(registry.WithStore(st1))
	_, client1 := serveRegistry(t, reg1, cfg)
	info, err := client1.CreateCampaign(ctx, CreateCampaignRequest{Name: "interrupted", Tasks: w.Dataset.Tasks()})
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]Submission, 0, w.Dataset.NumWorkers())
	for i := 0; i < w.Dataset.NumWorkers(); i++ {
		subs = append(subs, submissionFor(w, i))
	}
	if _, err := client1.SubmitBatch(ctx, info.ID, subs); err != nil {
		t.Fatal(err)
	}
	if err := st1.Append(store.Event{Type: store.EventCloseRequested, Campaign: info.ID}); err != nil {
		t.Fatal(err)
	}

	// Crash, recover, resume — through a scheduler, so the re-queued
	// settle takes the same admission path a live close does.
	st2 := openStore(t, dir)
	scheduler := sched.New(sched.Config{MaxConcurrentSettles: 1})
	t.Cleanup(scheduler.Close)
	reg2 := registry.New(registry.WithScheduler(scheduler), registry.WithStore(st2))
	pending, err := reg2.Restore(st2.State().Campaigns(), st2.RecoveredAt())
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 {
		t.Fatalf("pending settles = %d, want 1", len(pending))
	}
	srv2, client2 := serveRegistry(t, reg2, cfg)
	srv2.ResumeSettles(pending)

	settled, err := client2.AwaitSettled(ctx, info.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if settled.State != "settled" {
		t.Fatalf("resumed campaign state = %q", settled.State)
	}
	rep, err := client2.CampaignReport(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, baseline) {
		t.Fatal("resumed settle diverged from the never-crashed baseline")
	}
	if ps, err := client2.Stats(ctx); err != nil || ps.Scheduler.TotalCompleted == 0 {
		t.Fatalf("resumed settle bypassed the admission scheduler: %+v, %v", ps, err)
	}
}

// TestCloseBackpressure503 fills the settle queue to its bound and
// asserts an overflowing close is rejected synchronously with 503 +
// Retry-After + code "unavailable", that the typed client retries it to
// success once the queue drains, and that the campaign is untouched by
// the rejected close (still open, still accepting).
func TestCloseBackpressure503(t *testing.T) {
	scheduler := sched.New(sched.Config{MaxConcurrentSettles: 1, MaxQueuedSettles: 1})
	t.Cleanup(scheduler.Close)
	reg := registry.New(registry.WithScheduler(scheduler))
	cfg := platform.DefaultConfig()
	srv := NewRegistryServer(reg, "", cfg, nil)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
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

	// Fill the slot and the queue directly on the scheduler, so the
	// overflow condition is deterministic.
	releaseSlot, err := scheduler.Acquire(ctx, "blocker-slot")
	if err != nil {
		t.Fatal(err)
	}
	queuedDone := make(chan func(), 1)
	go func() {
		r, err := scheduler.Acquire(ctx, "blocker-queue")
		if err != nil {
			t.Error(err)
		}
		queuedDone <- r
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !scheduler.QueueFull() {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Raw POST (no client retry): 503, Retry-After, code unavailable.
	resp, err := http.Post(hs.URL+"/v2/campaigns/"+info.ID+"/close", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflowing close status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without a Retry-After header")
	}
	// The rejection happened before the campaign flipped to closing,
	// and it shows up in the overflow counter.
	snap, err := client.Campaign(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != "open" {
		t.Fatalf("campaign state after rejected close = %q, want open", snap.State)
	}
	if ps, err := client.Stats(ctx); err != nil || ps.Scheduler.TotalOverflowed == 0 {
		t.Fatalf("scheduler stats after door rejection = %+v, %v (want total_overflowed > 0)", ps, err)
	}

	// The typed client surfaces the class and the hint...
	shortCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	_, err = client.CloseCampaign(shortCtx, info.ID)
	cancel()
	if !errors.Is(err, imcerr.ErrUnavailable) {
		t.Fatalf("typed close under pressure: %v, want unavailable", err)
	}

	// ...and retries to success once the queue drains.
	type closeResult struct {
		info *CampaignInfo
		err  error
	}
	got := make(chan closeResult, 1)
	retryCtx, cancelRetry := context.WithTimeout(ctx, 30*time.Second)
	defer cancelRetry()
	go func() {
		ci, err := client.CloseCampaign(retryCtx, info.ID)
		got <- closeResult{ci, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the first attempt hit the full queue
	releaseSlot()
	r := <-queuedDone
	r()
	res := <-got
	if res.err != nil {
		t.Fatalf("retrying close failed: %v", res.err)
	}
	if _, err := client.AwaitSettled(ctx, info.ID, 10*time.Millisecond); err != nil {
		t.Fatalf("settle after backpressure drain: %v", err)
	}
}

func TestStoreStatsDisabled(t *testing.T) {
	client, _ := startRegistry(t)
	ps, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ss := ps.Store
	if ss.Enabled {
		t.Fatalf("store stats on an in-memory server = %+v, want disabled", ss)
	}
}
