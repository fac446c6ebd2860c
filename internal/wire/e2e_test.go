package wire

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"imc2/internal/gen"
	"imc2/internal/platform"
	"imc2/internal/randx"
	"imc2/internal/registry"
	"imc2/internal/sched"
)

// serveRegistry serves a pre-built registry over HTTP, platformd-style.
func serveRegistry(t *testing.T, reg *registry.Registry, cfg platform.Config) (*Server, *Client) {
	t.Helper()
	srv := NewRegistryServer(reg, "", cfg, nil)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, NewClient(hs.URL)
}

// This file is the multi-campaign settle scheduler's end-to-end proof:
// a platformd-equivalent server (registry + scheduler behind the full
// /v2 HTTP surface) takes ~8 campaigns created, fed, and closed
// concurrently, and every settled report must match the serial
// single-campaign baseline bit-for-bit while the admission bound and the
// shared-pool goroutine bound hold. Run under -race (CI does).

const (
	e2eCampaigns  = 8
	e2eMaxSettles = 2
	e2ePoolSize   = 4
)

// e2eWorkload is heavier than testWorkload so the eight settles take
// long enough to genuinely overlap and exercise the admission queue.
func e2eWorkload(t *testing.T, seed int64) *gen.Campaign {
	t.Helper()
	spec := gen.DefaultSpec()
	spec.Workers = 40
	spec.Tasks = 60
	spec.Copiers = 10
	spec.TasksPerWorker = 25
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	spec.ParticipationDecay = 0.3
	c, err := gen.NewCampaign(spec, randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// e2eBaseline settles one workload on a lone unscheduled platform — the
// serial single-campaign reference the wire reports must reproduce
// exactly.
func e2eBaseline(t *testing.T, w *gen.Campaign, cfg platform.Config) *platform.Report {
	t.Helper()
	p, err := platform.New(w.Dataset.Tasks())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.Dataset.NumWorkers(); i++ {
		sub := submissionFor(w, i)
		if err := p.Submit(platform.Submission{Worker: sub.Worker, Price: sub.Price, Answers: sub.Answers}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := p.Settle(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// wireReportEqual compares a wire report against a platform report
// field by field, floats compared with ==: "bit-for-bit" is the
// scheduler's contract, tolerances would mask interleaving bugs.
func wireReportEqual(wire *Report, local *platform.Report) error {
	if !reflect.DeepEqual(wire.Truth, local.Truth) {
		return fmt.Errorf("truth maps differ")
	}
	if !reflect.DeepEqual(wire.Winners, local.Winners) {
		return fmt.Errorf("winners %v vs %v", wire.Winners, local.Winners)
	}
	if !reflect.DeepEqual(wire.Payments, local.Payments) {
		return fmt.Errorf("payments differ")
	}
	if !reflect.DeepEqual(wire.WorkerAccuracy, local.WorkerAccuracy) {
		return fmt.Errorf("worker accuracies differ")
	}
	if wire.SocialCost != local.SocialCost || wire.TotalPayment != local.TotalPayment ||
		wire.PlatformUtility != local.PlatformUtility {
		return fmt.Errorf("cost fields differ: %v/%v/%v vs %v/%v/%v",
			wire.SocialCost, wire.TotalPayment, wire.PlatformUtility,
			local.SocialCost, local.TotalPayment, local.PlatformUtility)
	}
	if wire.TruthIterations != local.TruthIterations || wire.Converged != local.Converged {
		return fmt.Errorf("iterations/converged differ")
	}
	return nil
}

// TestE2EConcurrentCampaignsMatchSerialBaseline is the acceptance test:
// with MaxConcurrentSettles=2, eight concurrent campaign closes never
// exceed two active settles (scheduler stats), total truth-discovery
// goroutines stay bounded by the shared pool, and every settled report
// is bit-identical to its serial-settle baseline.
func TestE2EConcurrentCampaignsMatchSerialBaseline(t *testing.T) {
	scheduler := sched.New(sched.Config{Workers: e2ePoolSize, MaxConcurrentSettles: e2eMaxSettles})
	t.Cleanup(scheduler.Close)
	cfg := platform.DefaultConfig()
	reg := registry.New(registry.WithScheduler(scheduler))
	srv, client := serveRegistry(t, reg, cfg)
	ctx := context.Background()

	baseGoroutines := runtime.NumGoroutine()

	// Phase 1: create the campaigns and submit every worker envelope
	// concurrently across campaigns.
	workloads := make([]*gen.Campaign, e2eCampaigns)
	ids := make([]string, e2eCampaigns)
	var wg sync.WaitGroup
	for k := 0; k < e2eCampaigns; k++ {
		workloads[k] = e2eWorkload(t, int64(9000+k))
		info, err := client.CreateCampaign(ctx, CreateCampaignRequest{
			Name: fmt.Sprintf("e2e-%d", k), Tasks: workloads[k].Dataset.Tasks(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = info.ID
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			w := workloads[k]
			subs := make([]Submission, 0, w.Dataset.NumWorkers())
			for i := 0; i < w.Dataset.NumWorkers(); i++ {
				subs = append(subs, submissionFor(w, i))
			}
			if n, err := client.SubmitBatch(ctx, ids[k], subs); err != nil || n != len(subs) {
				t.Errorf("campaign %d batch submit = %d, %v", k, n, err)
			}
		}(k)
	}
	wg.Wait()

	// Phase 2: occupy both admission slots so every close must queue —
	// the admission surface is then observable deterministically, not by
	// racing a fast settle — then release and watch the drain: active
	// settles must never exceed the bound, and goroutines must stay near
	// base + pool + per-close bookkeeping (before the scheduler each
	// close cost a pool of its own).
	blockers := make([]func(), e2eMaxSettles)
	for i := range blockers {
		release, err := scheduler.Acquire(ctx, fmt.Sprintf("blocker-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		blockers[i] = release
	}

	var (
		statsMu    sync.Mutex
		peakActive int
		peakGor    int
	)
	observe := func() {
		st := scheduler.Stats()
		statsMu.Lock()
		defer statsMu.Unlock()
		if st.ActiveSettles > peakActive {
			peakActive = st.ActiveSettles
		}
		if g := runtime.NumGoroutine(); g > peakGor {
			peakGor = g
		}
	}
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if _, err := client.CloseCampaign(ctx, id); err != nil {
				t.Errorf("close %s: %v", id, err)
				return
			}
			for {
				info, err := client.Campaign(ctx, id)
				if err != nil {
					t.Errorf("poll %s: %v", id, err)
					return
				}
				observe()
				if info.SettleAdmission == "queued" && info.SettleQueuePosition < 1 {
					t.Errorf("campaign %s queued without a queue position", id)
					return
				}
				if info.State == platform.StateSettled.String() {
					return
				}
				if info.SettleError != "" {
					t.Errorf("campaign %s settle failed: %s", id, info.SettleError)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(id)
	}

	// With the slots blocked, all eight settles must pile up in the
	// queue, visible over the wire with coherent positions.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ps, err := client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		stats := ps.Scheduler
		if stats.QueuedSettles == e2eCampaigns {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth = %d, want %d (all closes blocked)", stats.QueuedSettles, e2eCampaigns)
		}
		time.Sleep(time.Millisecond)
	}
	queuedInfo, err := client.Campaign(ctx, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if queuedInfo.State != platform.StateClosing.String() || queuedInfo.SettleAdmission != "queued" {
		t.Fatalf("blocked campaign snapshot = state %q admission %q, want closing/queued",
			queuedInfo.State, queuedInfo.SettleAdmission)
	}
	if queuedInfo.SettleQueuePosition < 1 || queuedInfo.SettleQueuePosition > e2eCampaigns {
		t.Fatalf("queue position = %d, want within [1, %d]", queuedInfo.SettleQueuePosition, e2eCampaigns)
	}

	for _, release := range blockers {
		release()
	}
	wg.Wait()

	if peakActive > e2eMaxSettles {
		t.Fatalf("observed %d concurrent settles, admission bound is %d", peakActive, e2eMaxSettles)
	}
	st := scheduler.Stats()
	if st.PeakActiveSettles > e2eMaxSettles {
		t.Fatalf("scheduler peak active = %d, bound is %d", st.PeakActiveSettles, e2eMaxSettles)
	}
	wantAdmitted := int64(e2eCampaigns + e2eMaxSettles) // settles + blockers
	if st.TotalAdmitted != wantAdmitted || st.TotalCompleted != wantAdmitted {
		t.Fatalf("admitted/completed = %d/%d, want %d", st.TotalAdmitted, st.TotalCompleted, wantAdmitted)
	}
	if st.PeakQueuedSettles < e2eCampaigns {
		t.Errorf("peak queued = %d, want at least %d", st.PeakQueuedSettles, e2eCampaigns)
	}
	// Goroutine bound: pool workers + one settle goroutine per close +
	// HTTP server/client machinery. The generous slack absorbs transient
	// net/http conns; what it must catch is the old N×GOMAXPROCS
	// per-settle pool spin-up, which blows far past this on multi-core
	// hosts.
	limit := baseGoroutines + e2ePoolSize + e2eCampaigns + 60
	if peakGor > limit {
		t.Errorf("goroutine peak %d exceeds shared-pool bound %d", peakGor, limit)
	}

	// Phase 3: every wire report equals its serial baseline bit-for-bit.
	for k, id := range ids {
		rep, err := client.CampaignReport(ctx, id)
		if err != nil {
			t.Fatalf("campaign %d report: %v", k, err)
		}
		if err := wireReportEqual(rep, e2eBaseline(t, workloads[k], cfg)); err != nil {
			t.Errorf("campaign %d diverged from serial baseline: %v", k, err)
		}
	}

	// The scheduler stats endpoint reflects the drained state.
	ps, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stats := ps.Scheduler
	if !stats.Enabled || stats.ActiveSettles != 0 || stats.QueuedSettles != 0 {
		t.Fatalf("scheduler stats after drain = %+v", stats)
	}
	if stats.Workers != e2ePoolSize || stats.MaxConcurrentSettles != e2eMaxSettles {
		t.Fatalf("scheduler config on the wire = %+v", stats)
	}
	if stats.TotalCompleted != wantAdmitted {
		t.Fatalf("wire total completed = %d, want %d", stats.TotalCompleted, wantAdmitted)
	}
	_ = srv
}

// TestSchedulerStatsDisabled: a registry without a scheduler answers
// enabled=false and campaigns settle exactly as before.
func TestSchedulerStatsDisabled(t *testing.T) {
	client, _ := startRegistry(t)
	ps, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stats := ps.Scheduler
	if stats.Enabled {
		t.Fatalf("scheduler reported enabled on a plain registry: %+v", stats)
	}
	w := testWorkload(t, 4242)
	if _, rep := driveCampaign(t, client, w, "unscheduled"); len(rep.Winners) == 0 {
		t.Fatal("unscheduled settle produced no winners")
	}
}
