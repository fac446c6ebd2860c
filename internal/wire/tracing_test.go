package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"imc2/internal/obs"
	"imc2/internal/platform"
	"imc2/internal/registry"
	"imc2/internal/sched"
	"imc2/internal/store"
	"imc2/internal/tracing"
)

// startTracedStack wires one tracer through every subsystem — scheduler,
// durable store (fsync-on-settle, so settles fsync inside the trace),
// registry, HTTP server — the way platformd -trace does.
func startTracedStack(t *testing.T) (*Client, *tracing.Tracer, string) {
	t.Helper()
	tr := tracing.New(tracing.Options{})
	scheduler := sched.New(sched.Config{MaxConcurrentSettles: 2})
	t.Cleanup(scheduler.Close)
	st, err := store.Open(store.Options{Dir: t.TempDir(), Fsync: store.FsyncSettle})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(
		registry.WithScheduler(scheduler),
		registry.WithStore(st),
		registry.WithTracing(tr),
	)
	srv := NewRegistryServer(reg, "", platform.DefaultConfig(), nil, WithTracing(tr))
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = st.Close()
	})
	return NewClient(hs.URL), tr, hs.URL
}

// awaitSettleTrace polls the trace listing until the campaign's settle
// trace has no in-progress spans — the settle outlives the 202, so the
// listing briefly shows it live.
func awaitSettleTrace(t *testing.T, client *Client, campaign string) TraceSummary {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		page, err := client.Traces(ctx, campaign, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, sum := range page.Traces {
			if sum.Kind == "settle" && !sum.InProgress {
				return sum
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no completed settle trace retained for campaign %s", campaign)
	return TraceSummary{}
}

// TestSettleTraceSpansEveryLayer is the tentpole's end-to-end check: one
// close produces one retrievable trace whose span tree crosses wire
// (the request root), sched (admission events), truth (per-iteration
// events), auction, and store (append + fsync) — all under a single
// trace ID.
func TestSettleTraceSpansEveryLayer(t *testing.T) {
	client, _, _ := startTracedStack(t)
	ctx := context.Background()
	w := testWorkload(t, 71)
	info, rep := driveCampaign(t, client, w, "traced")
	if rep == nil {
		t.Fatal("campaign did not settle")
	}
	sum := awaitSettleTrace(t, client, info.ID)
	if sum.Campaign != info.ID {
		t.Errorf("settle trace campaign = %q, want %q", sum.Campaign, info.ID)
	}

	snap, err := client.TraceByID(ctx, sum.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.TraceID != sum.TraceID {
		t.Fatalf("detail trace ID %s != listed %s", snap.TraceID, sum.TraceID)
	}
	spansByName := map[string]*SpanSnapshotForTest{}
	for i := range snap.Spans {
		s := &snap.Spans[i]
		spansByName[s.Name] = (*SpanSnapshotForTest)(s)
	}
	for _, want := range []string{
		"POST /v2/campaigns/{id}/close", // wire root
		"campaign.settle",
		"truth.discover",
		"auction",
		"store.append",
		"store.fsync",
	} {
		if spansByName[want] == nil {
			t.Errorf("trace has no %q span (spans: %v)", want, spanNames(snap.Spans))
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// The tree hangs together: settle under the request root, stages
	// under the settle.
	root := spansByName["POST /v2/campaigns/{id}/close"]
	settle := spansByName["campaign.settle"]
	if root.ParentID != "" {
		t.Errorf("request span has parent %q, want root", root.ParentID)
	}
	if settle.ParentID != root.SpanID {
		t.Errorf("campaign.settle parent = %q, want the request span %q", settle.ParentID, root.SpanID)
	}
	for _, stage := range []string{"truth.discover", "auction"} {
		if got := spansByName[stage].ParentID; got != settle.SpanID {
			t.Errorf("%s parent = %q, want the settle span %q", stage, got, settle.SpanID)
		}
	}
	if settle.Attrs["campaign"] != info.ID {
		t.Errorf("settle span campaign attr = %q, want %q", settle.Attrs["campaign"], info.ID)
	}

	// Layer events: admission on the settle span, iterations on the
	// truth span.
	if !hasEvent(settle, "sched.admitted") {
		t.Error("settle span has no sched.admitted event")
	}
	if !hasEvent(spansByName["truth.discover"], "truth.iteration") {
		t.Error("truth.discover span has no truth.iteration events")
	}
	if got := spansByName["truth.discover"].Attrs["iterations"]; got == "" || got == "0" {
		t.Errorf("truth.discover iterations attr = %q, want > 0", got)
	}
}

// SpanSnapshotForTest aliases the snapshot span for map-of-pointer use.
type SpanSnapshotForTest tracing.SpanSnapshot

func hasEvent(s *SpanSnapshotForTest, name string) bool {
	for _, ev := range s.Events {
		if ev.Name == name {
			return true
		}
	}
	return false
}

func spanNames(spans []tracing.SpanSnapshot) []string {
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.Name
	}
	return names
}

// TestTraceParentRoundTrip checks the W3C header contract on both
// sides: the server adopts a valid inbound traceparent (the response's
// X-Trace-Id is the caller's trace ID), ignores a malformed one (fresh
// trace), and the typed client injects the header from a span in ctx so
// a client-side trace continues on the server.
func TestTraceParentRoundTrip(t *testing.T) {
	client, serverTracer, base := startTracedStack(t)
	ctx := context.Background()

	const remoteTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v2/campaigns", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+remoteTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != remoteTrace {
		t.Errorf("valid traceparent: X-Trace-Id = %q, want adopted %q", got, remoteTrace)
	}

	for _, malformed := range []string{
		"not-a-traceparent",
		"00-" + remoteTrace + "-00f067aa0ba902b7-01-trailing-without-dash" + strings.Repeat("x", 3),
		"ff-" + remoteTrace + "-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
	} {
		req, err := http.NewRequestWithContext(ctx, "GET", base+"/v2/campaigns", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("traceparent", malformed)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Trace-Id")
		if got == "" || got == remoteTrace {
			t.Errorf("malformed traceparent %q: X-Trace-Id = %q, want a fresh trace ID", malformed, got)
		}
	}

	// Client side: a span in ctx rides out as traceparent, and the
	// server's flight recorder files the request under the client's
	// trace ID.
	clientTracer := tracing.New(tracing.Options{})
	cctx, span := clientTracer.StartRoot(ctx, "client.op", "")
	if _, err := client.Campaigns(cctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	span.End()
	if _, ok := serverTracer.Collector().Trace(span.TraceIDString()); !ok {
		t.Errorf("server did not record a trace under the client's trace ID %s", span.TraceIDString())
	}
}

// TestRequestIDEchoedInErrorBody: every instrumented response carries
// X-Request-Id, and error bodies echo it so client-side failure reports
// match server log records.
func TestRequestIDEchoedInErrorBody(t *testing.T) {
	_, _, base := startTracedStack(t)
	resp, err := http.Get(base + "/v2/campaigns/cmp-missing")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("no X-Request-Id header on an instrumented response")
	}
	var body struct {
		Error     string `json:"error"`
		Code      string `json:"code"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.RequestID != reqID {
		t.Errorf("error body request_id = %q, want header's %q", body.RequestID, reqID)
	}
	if body.Code != "not_found" {
		t.Errorf("error body code = %q, want not_found", body.Code)
	}
}

// TestPanickingHandlerRestoresInflightGauge is the middleware
// regression test: before the metrics moved into a defer, a panicking
// handler skipped them — leaking the inflight gauge up forever and
// hiding the request from the counters.
func TestPanickingHandlerRestoresInflightGauge(t *testing.T) {
	o := obs.NewRegistry()
	s := &Server{m: newWireMetrics(o)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	h := s.instrument(mux)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the middleware swallowed the handler's panic")
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/boom", nil))
	}()

	var sb strings.Builder
	if err := o.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "imc2_wire_inflight_requests_count 0") {
		t.Error("inflight gauge did not return to 0 after a panicking handler")
	}
	if !strings.Contains(text, `imc2_wire_requests_total{route="GET /boom",status="500"} 1`) {
		t.Error("panicking request was not counted as a 500")
	}
}

// TestTracedReportBytesIdentical drives the same workload through a
// traced and an untraced stack and compares the raw report bodies
// byte for byte: tracing must never change results.
func TestTracedReportBytesIdentical(t *testing.T) {
	tracedClient, _, tracedBase := startTracedStack(t)
	plainSrv := NewRegistryServer(registry.New(), "", platform.DefaultConfig(), nil)
	plainHS := httptest.NewServer(plainSrv.Handler())
	defer plainHS.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = plainSrv.Shutdown(ctx)
	}()
	plainClient := NewClient(plainHS.URL)

	w := testWorkload(t, 73)
	tracedInfo, _ := driveCampaign(t, tracedClient, w, "identical")
	plainInfo, _ := driveCampaign(t, plainClient, w, "identical")

	tracedBody := rawBody(t, tracedBase+"/v2/campaigns/"+tracedInfo.ID+"/report")
	plainBody := rawBody(t, plainHS.URL+"/v2/campaigns/"+plainInfo.ID+"/report")
	if !bytes.Equal(tracedBody, plainBody) {
		t.Errorf("traced report differs from untraced:\ntraced: %s\nplain:  %s", tracedBody, plainBody)
	}
}

func rawBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	return b
}

// TestTracesEndpointDisabledWithoutTracer: without a tracer the traces
// endpoints answer 404 with a hint, not an empty listing that looks
// like a healthy-but-idle recorder.
func TestTracesEndpointDisabledWithoutTracer(t *testing.T) {
	srv := NewRegistryServer(registry.New(), "", platform.DefaultConfig(), nil)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := NewClient(hs.URL)
	if _, err := client.Traces(context.Background(), "", 0, false); err == nil {
		t.Fatal("Traces on an untraced server did not error")
	}
	resp, err := http.Get(hs.URL + "/v2/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v2/traces without tracer = %d, want 404", resp.StatusCode)
	}
}

// TestTracesMinDurationBounds: ?min_duration_ms= must fit a
// time.Duration. A negative value, or one whose nanoseconds overflow
// int64 (and would wrap negative, switching the filter off), is 400
// invalid rather than a listing of every trace.
func TestTracesMinDurationBounds(t *testing.T) {
	srv := NewRegistryServer(registry.New(), "", platform.DefaultConfig(), nil, WithTracing(tracing.New(tracing.Options{})))
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	// One finished request, so an unfiltered listing is not empty.
	resp, err := http.Get(hs.URL + "/v2/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for _, tc := range []struct {
		query  string
		status int
		traces bool // the listing holds the healthz trace
	}{
		{"", http.StatusOK, true},
		{"0", http.StatusOK, true},
		{"9223372036854", http.StatusOK, false}, // the largest whole-ms Duration
		{"-1", http.StatusBadRequest, false},
		{"9223372036855", http.StatusBadRequest, false},
		{"9999999999999", http.StatusBadRequest, false},
		{"soon", http.StatusBadRequest, false},
	} {
		resp, err := http.Get(hs.URL + "/v2/traces?min_duration_ms=" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("min_duration_ms=%q: status %d, want %d: %s", tc.query, resp.StatusCode, tc.status, body)
			continue
		}
		if tc.status != http.StatusOK {
			if !strings.Contains(string(body), `"code":"invalid"`) {
				t.Errorf("min_duration_ms=%q: body %s, want code invalid", tc.query, body)
			}
			continue
		}
		var page TracePage
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, sum := range page.Traces {
			found = found || strings.Contains(sum.Root, "/v2/healthz")
		}
		if found != tc.traces {
			t.Errorf("min_duration_ms=%q: healthz trace listed = %v, want %v (%+v)", tc.query, found, tc.traces, page.Traces)
		}
	}
}
