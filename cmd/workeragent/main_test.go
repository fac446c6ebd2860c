package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"imc2/internal/platform"
	"imc2/internal/registry"
	"imc2/internal/wire"
)

// startTestPlatform serves one campaign of the shape the agent
// regenerates.
func startTestPlatform(t *testing.T, seed int64, workers, tasks, copiers int) *httptest.Server {
	t.Helper()
	c, err := regenerate(seed, workers, tasks, copiers)
	if err != nil {
		t.Fatal(err)
	}
	cfg := platform.DefaultConfig()
	cfg.TruthOptions.CopyProb = 0.8
	cfg.TruthOptions.PriorDependence = 0.05
	reg := registry.New()
	if _, err := reg.Create("test", c.Dataset.Tasks(), cfg, false); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(wire.NewRegistryServer(reg, "", cfg, nil).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestAgentSubmitAllAndClose(t *testing.T) {
	// Seed 3 generates a campaign whose winners all stay replaceable, so
	// the close settles (randx streams changed when Split became
	// non-consuming; seed 5's draw now contains a monopolist).
	srv := startTestPlatform(t, 3, 20, 24, 5)
	args := []string{
		"-platform", srv.URL, "-seed", "3",
		"-workers", "20", "-tasks", "24", "-copiers", "5",
	}

	var buf strings.Builder
	if err := run(append(args, "-all"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "submitted 20 workers") {
		t.Errorf("output = %q", buf.String())
	}

	buf.Reset()
	if err := run(append(args, "-close"), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"campaign settled", "precision vs ground truth", "winners:"} {
		if !strings.Contains(out, want) {
			t.Errorf("close output missing %q:\n%s", want, out)
		}
	}
}

func TestAgentStats(t *testing.T) {
	reg := registry.New()
	c, err := regenerate(3, 20, 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("one", c.Dataset.Tasks(), platform.DefaultConfig(), false); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(wire.NewRegistryServer(reg, "", platform.DefaultConfig(), nil).Handler())
	defer srv.Close()

	var buf strings.Builder
	if err := run([]string{"-platform", srv.URL, "-stats"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"registry: 1 campaigns", "open      1",
		"scheduler: disabled", "store: in-memory only",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output missing %q:\n%s", want, out)
		}
	}
}

func TestAgentSingleIndex(t *testing.T) {
	srv := startTestPlatform(t, 6, 20, 24, 5)
	var buf strings.Builder
	err := run([]string{
		"-platform", srv.URL, "-seed", "6",
		"-workers", "20", "-tasks", "24", "-copiers", "5",
		"-index", "3",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "submitted worker") {
		t.Errorf("output = %q", buf.String())
	}
}

func TestAgentIndexOutOfRange(t *testing.T) {
	srv := startTestPlatform(t, 7, 20, 24, 5)
	var buf strings.Builder
	err := run([]string{
		"-platform", srv.URL, "-seed", "7",
		"-workers", "20", "-tasks", "24", "-copiers", "5",
		"-index", "99",
	}, &buf)
	if err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestAgentRequiresAction(t *testing.T) {
	srv := startTestPlatform(t, 8, 20, 24, 5)
	var buf strings.Builder
	err := run([]string{
		"-platform", srv.URL, "-seed", "8",
		"-workers", "20", "-tasks", "24", "-copiers", "5",
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "nothing to do") {
		t.Fatalf("err = %v, want nothing-to-do", err)
	}
}

func TestAgentUnreachablePlatform(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-platform", "http://127.0.0.1:1", "-timeout", "2s", "-all"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "not healthy") {
		t.Fatalf("err = %v, want health failure", err)
	}
}

// startMultiPlatform serves two registry campaigns with the agent's
// regenerated shape: campaign k derives from seed+k.
func startMultiPlatform(t *testing.T, seed int64, workers, tasks, copiers, campaigns int) (*httptest.Server, []string) {
	t.Helper()
	reg := registry.New()
	ids := make([]string, 0, campaigns)
	for k := 0; k < campaigns; k++ {
		c, err := regenerate(seed+int64(k), workers, tasks, copiers)
		if err != nil {
			t.Fatal(err)
		}
		hosted, err := reg.Create(fmt.Sprintf("seed-%d", seed+int64(k)), c.Dataset.Tasks(), platform.DefaultConfig(), false)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, hosted.ID())
	}
	srv := wire.NewRegistryServer(reg, "", platform.DefaultConfig(), nil)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs, ids
}

func TestAgentListCampaigns(t *testing.T) {
	srv, ids := startMultiPlatform(t, 30, 20, 24, 5, 2)
	var buf strings.Builder
	if err := run([]string{"-platform", srv.URL, "-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2 campaigns") {
		t.Errorf("output = %q", out)
	}
	for _, id := range ids {
		if !strings.Contains(out, id) {
			t.Errorf("listing missing %s:\n%s", id, out)
		}
	}
}

func TestAgentDrivesV2Campaign(t *testing.T) {
	srv, ids := startMultiPlatform(t, 40, 20, 24, 5, 2)
	// Drive the second campaign (seed 41) over /v2: batch submit + close.
	args := []string{
		"-platform", srv.URL, "-seed", "41",
		"-workers", "20", "-tasks", "24", "-copiers", "5",
		"-campaign", ids[1],
	}
	var buf strings.Builder
	if err := run(append(args, "-all"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "submitted 20 workers") {
		t.Errorf("output = %q", buf.String())
	}
	buf.Reset()
	if err := run(append(args, "-close"), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"campaign settled", "precision vs ground truth", "winners:"} {
		if !strings.Contains(out, want) {
			t.Errorf("close output missing %q:\n%s", want, out)
		}
	}
	// The first campaign is untouched by the second one's close.
	buf.Reset()
	if err := run([]string{"-platform", srv.URL, "-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "open") || !strings.Contains(buf.String(), "settled") {
		t.Errorf("listing after one settle = %q", buf.String())
	}
}

// TestAgentDefaultsToFirstCampaign: without -campaign, -all and -close
// act on the platform's first campaign and leave the others alone.
func TestAgentDefaultsToFirstCampaign(t *testing.T) {
	srv, ids := startMultiPlatform(t, 3, 20, 24, 5, 2)
	args := []string{
		"-platform", srv.URL, "-seed", "3",
		"-workers", "20", "-tasks", "24", "-copiers", "5",
	}
	var buf strings.Builder
	if err := run(append(args, "-all"), &buf); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-close"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "campaign settled") {
		t.Errorf("output = %q", buf.String())
	}

	client := wire.NewClient(srv.URL)
	for k, want := range []struct {
		state       string
		submissions int
	}{{"settled", 20}, {"open", 0}} {
		info, err := client.Campaign(context.Background(), ids[k])
		if err != nil {
			t.Fatal(err)
		}
		if info.State != want.state || info.Submissions != want.submissions {
			t.Errorf("campaign %d: state=%s submissions=%d, want %s/%d",
				k, info.State, info.Submissions, want.state, want.submissions)
		}
	}
}

func TestAgentEstimate(t *testing.T) {
	reg := registry.New()
	c, err := regenerate(3, 20, 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	hosted, err := reg.Create("live", c.Dataset.Tasks(), platform.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("second", c.Dataset.Tasks(), platform.DefaultConfig(), false); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(wire.NewRegistryServer(reg, "", platform.DefaultConfig(), nil).Handler())
	defer hs.Close()

	// Without -campaign the estimate is the first listed campaign's.
	var buf strings.Builder
	if err := run([]string{"-platform", hs.URL, "-estimate"}, &buf); err != nil {
		t.Fatalf("-estimate without -campaign: %v", err)
	}
	if want := "campaign " + hosted.ID() + " estimate"; !strings.Contains(buf.String(), want) {
		t.Fatalf("-estimate without -campaign printed %q, want %q", buf.String(), want)
	}

	args := []string{
		"-platform", hs.URL, "-seed", "3",
		"-workers", "20", "-tasks", "24", "-copiers", "5",
		"-campaign", hosted.ID(),
	}
	// Before any submission the estimate is empty.
	buf.Reset()
	if err := run(append(args, "-estimate"), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"covers 0 submissions (0 stale)", "no estimate"} {
		if !strings.Contains(out, want) {
			t.Errorf("empty estimate output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := run(append(args, "-all"), &buf); err != nil {
		t.Fatal(err)
	}

	// The first read after the submissions is converged and fresh.
	buf.Reset()
	if err := run(append(args, "-estimate"), &buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, want := range []string{"converged=true", "covers 20 submissions (0 stale)", " = "} {
		if !strings.Contains(out, want) {
			t.Errorf("estimate output missing %q:\n%s", want, out)
		}
	}

	// Its truth lines are the settled report's truth.
	rep, err := hosted.Settle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	ids := make([]string, 0, len(rep.Truth))
	for id := range rep.Truth {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&want, "  %s = %s\n", id, rep.Truth[id])
	}
	if !strings.HasSuffix(out, want.String()) {
		t.Errorf("estimate truth differs from the settled report's:\n%s\nwant lines:\n%s", out, want.String())
	}

	// A settled campaign reads empty, with every submission stale.
	buf.Reset()
	if err := run(append(args, "-estimate"), &buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, want := range []string{"covers 0 submissions (20 stale)", "no estimate"} {
		if !strings.Contains(out, want) {
			t.Errorf("closed estimate output missing %q:\n%s", want, out)
		}
	}
}
