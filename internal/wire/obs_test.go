package wire

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"imc2/internal/lint"
	"imc2/internal/obs"
	"imc2/internal/platform"
	"imc2/internal/registry"
	"imc2/internal/sched"
	"imc2/internal/store"
)

// startObservedStack wires one obs.Registry through every subsystem —
// scheduler, store, registry, HTTP server — the way platformd does, and
// returns a client plus the metrics registry.
func startObservedStack(t *testing.T) (*Client, *obs.Registry) {
	t.Helper()
	o := obs.NewRegistry()
	scheduler := sched.New(sched.Config{MaxConcurrentSettles: 2, Obs: o})
	t.Cleanup(scheduler.Close)
	st, err := store.Open(store.Options{Dir: t.TempDir(), Fsync: store.FsyncNever, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(
		registry.WithScheduler(scheduler),
		registry.WithStore(st),
		registry.WithObservability(o),
	)
	srv := NewRegistryServer(reg, "", platform.DefaultConfig(), nil, WithObs(o))
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = st.Close()
	})
	return NewClient(hs.URL), o
}

// TestMetricNamingConvention drives a full campaign through the fully
// instrumented stack and checks every registered metric name against
// the convention, delegating to internal/lint's MetricNameRE — the
// single source of truth the imc2lint obsnaming analyzer also enforces
// statically. The runtime pass stays valuable for what static analysis
// cannot see: that every subsystem actually registers metrics when the
// full stack runs.
func TestMetricNamingConvention(t *testing.T) {
	client, o := startObservedStack(t)
	w := testWorkload(t, 61)
	driveCampaign(t, client, w, "lint")

	names := o.Names()
	if len(names) == 0 {
		t.Fatal("no metrics registered")
	}
	seen := map[string]bool{}
	for _, name := range names {
		m := lint.MetricNameRE.FindStringSubmatch(name)
		if m == nil {
			t.Errorf("%v", lint.CheckMetricName(name))
			continue
		}
		seen[m[1]] = true
	}
	for _, subsystem := range []string{"wire", "sched", "store", "registry", "truth"} {
		if !seen[subsystem] {
			t.Errorf("no %s_* metrics registered after a full campaign", subsystem)
		}
	}
}

// TestMiddlewareCountsRequestsAndErrors checks the HTTP instrumentation:
// requests are labeled by mux route pattern (bounded cardinality, never
// the raw path), and error responses are counted by machine-readable
// code through the single writeError path.
func TestMiddlewareCountsRequestsAndErrors(t *testing.T) {
	client, o := startObservedStack(t)
	ctx := context.Background()
	w := testWorkload(t, 62)
	info, rep := driveCampaign(t, client, w, "observed")
	if rep == nil || info.State != "settled" {
		t.Fatalf("campaign did not settle: %+v", info)
	}
	if _, err := client.Campaign(ctx, "cmp-missing"); err == nil {
		t.Fatal("missing campaign did not error")
	}

	var sb strings.Builder
	if err := o.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`imc2_wire_requests_total{route="POST /v2/campaigns",status="201"}`,
		`imc2_wire_requests_total{route="GET /v2/campaigns/{id}",status="404"}`,
		`imc2_wire_errors_total{code="not_found"} 1`,
		`imc2_wire_request_seconds_bucket{route="POST /v2/campaigns/{id}/close"`,
		`imc2_sched_settles_admitted_total 1`,
		`imc2_store_appends_total`,
		`imc2_registry_submissions_total 20`,
		`imc2_truth_settles_total{converged=`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestUnifiedStatsEndpoint exercises GET /v2/stats and its typed client:
// one poll returns the scheduler, store, and registry sections.
func TestUnifiedStatsEndpoint(t *testing.T) {
	client, _ := startObservedStack(t)
	ctx := context.Background()
	w := testWorkload(t, 63)
	driveCampaign(t, client, w, "stats")

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Scheduler.Enabled || stats.Scheduler.TotalCompleted != 1 {
		t.Errorf("scheduler section = %+v, want enabled with 1 completed settle", stats.Scheduler)
	}
	if !stats.Store.Enabled || stats.Store.AppendedEvents == 0 {
		t.Errorf("store section = %+v, want enabled with appended events", stats.Store)
	}
	if stats.Registry.Campaigns != 1 || stats.Registry.States["settled"] != 1 {
		t.Errorf("registry section = %+v, want 1 settled campaign", stats.Registry)
	}
}

// TestUninstrumentedServerUnchanged: without options the handler is the
// bare mux — no middleware wrapper, no metrics, same responses.
func TestUninstrumentedServerUnchanged(t *testing.T) {
	srv := NewRegistryServer(registry.New(), "", platform.DefaultConfig(), nil)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/stats = %d, want 200", resp.StatusCode)
	}
}
