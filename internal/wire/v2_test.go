package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"imc2/internal/gen"
	"imc2/internal/imcerr"
	"imc2/internal/platform"
	"imc2/internal/randx"
	"imc2/internal/registry"
)

// startRegistry serves an empty registry.
func startRegistry(t *testing.T) (*Client, *Server) {
	t.Helper()
	srv := NewRegistryServer(registry.New(), "", platform.DefaultConfig(), nil)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return NewClient(hs.URL), srv
}

// testWorkload generates a small settleable campaign workload.
func testWorkload(t *testing.T, seed int64) *gen.Campaign {
	t.Helper()
	spec := gen.DefaultSpec()
	spec.Workers = 20
	spec.Tasks = 15
	spec.Copiers = 5
	spec.TasksPerWorker = 9
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	spec.ParticipationDecay = 0.3
	c, err := gen.NewCampaign(spec, randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// driveCampaign runs one campaign end to end over /v2 and returns its
// report.
func driveCampaign(t *testing.T, client *Client, w *gen.Campaign, name string) (*CampaignInfo, *Report) {
	t.Helper()
	ctx := context.Background()
	info, err := client.CreateCampaign(ctx, CreateCampaignRequest{Name: name, Tasks: w.Dataset.Tasks()})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "open" {
		t.Fatalf("created campaign state = %q, want open", info.State)
	}
	subs := make([]Submission, 0, w.Dataset.NumWorkers())
	for i := 0; i < w.Dataset.NumWorkers(); i++ {
		subs = append(subs, submissionFor(w, i))
	}
	n, err := client.SubmitBatch(ctx, info.ID, subs)
	if err != nil || n != len(subs) {
		t.Fatalf("batch submit = %d, %v", n, err)
	}
	closing, err := client.CloseCampaign(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if closing.State != "closing" && closing.State != "settled" {
		t.Fatalf("close returned state %q", closing.State)
	}
	settled, err := client.AwaitSettled(ctx, info.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	report, err := client.CampaignReport(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	return settled, report
}

func TestV2TwoConcurrentCampaignsEndToEnd(t *testing.T) {
	client, _ := startRegistry(t)
	w1 := testWorkload(t, 42)
	w2 := testWorkload(t, 1042)

	type outcome struct {
		info   *CampaignInfo
		report *Report
	}
	results := make([]outcome, 2)
	var wg sync.WaitGroup
	for k, w := range []*gen.Campaign{w1, w2} {
		wg.Add(1)
		go func(k int, w *gen.Campaign) {
			defer wg.Done()
			info, rep := driveCampaign(t, client, w, fmt.Sprintf("campaign-%d", k))
			results[k] = outcome{info, rep}
		}(k, w)
	}
	wg.Wait()

	if results[0].info.ID == results[1].info.ID {
		t.Fatal("both campaigns got the same ID")
	}
	for k, res := range results {
		if len(res.report.Winners) == 0 {
			t.Fatalf("campaign %d: no winners", k)
		}
	}
	// The wire outcome must equal the identical in-process run.
	for k, w := range []*gen.Campaign{w1, w2} {
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
		local, err := p.Run(platform.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(local.Winners) != fmt.Sprint(results[k].report.Winners) {
			t.Errorf("campaign %d winners differ: wire %v vs local %v", k, results[k].report.Winners, local.Winners)
		}
		if math.Abs(local.SocialCost-results[k].report.SocialCost) > 1e-9 {
			t.Errorf("campaign %d social cost differs", k)
		}
	}

	// Audit is reachable per campaign.
	audit, err := client.CampaignAudit(context.Background(), results[0].info.ID)
	if err != nil || len(audit.Pairs) == 0 {
		t.Fatalf("audit = %+v, %v", audit, err)
	}
}

func TestV2ListPagination(t *testing.T) {
	client, _ := startRegistry(t)
	ctx := context.Background()
	w := testWorkload(t, 3)
	for i := 0; i < 7; i++ {
		if _, err := client.CreateCampaign(ctx, CreateCampaignRequest{
			Name: fmt.Sprintf("c%d", i), Tasks: w.Dataset.Tasks(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	page, err := client.Campaigns(ctx, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 7 || len(page.Campaigns) != 3 || page.Limit != 3 {
		t.Fatalf("page = %+v", page)
	}
	page2, err := client.Campaigns(ctx, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Campaigns) != 1 {
		t.Fatalf("last page has %d campaigns", len(page2.Campaigns))
	}
	if page2.Campaigns[0].ID <= page.Campaigns[2].ID {
		t.Fatal("listing not in creation order")
	}
	// A negative offset serves from the start and echoes what it served.
	resp, err := http.Get(client.base + "/v2/campaigns?offset=-3&limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var neg CampaignPage
	if err := json.NewDecoder(resp.Body).Decode(&neg); err != nil {
		t.Fatal(err)
	}
	if neg.Offset != 0 || len(neg.Campaigns) != 2 || neg.Campaigns[0].ID != page.Campaigns[0].ID {
		t.Fatalf("offset=-3 page = %+v", neg)
	}
}

// TestV2ListPageLimitClamped covers the server-side page-size clamp:
// limit=0 (and any negative limit) must fall back to the default page
// size rather than "the rest of the registry", and oversized limits
// saturate at the maximum — otherwise an unauthenticated request could
// force a full-registry snapshot per call.
func TestV2ListPageLimitClamped(t *testing.T) {
	reg := registry.New()
	w := testWorkload(t, 3)
	for i := 0; i < defaultPageLimit+10; i++ {
		if _, err := reg.Create(fmt.Sprintf("c%d", i), w.Dataset.Tasks(), platform.DefaultConfig(), false); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewRegistryServer(reg, "", platform.DefaultConfig(), nil)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	client := NewClient(hs.URL)
	ctx := context.Background()

	fetch := func(rawQuery string) *CampaignPage {
		t.Helper()
		resp, err := http.Get(hs.URL + "/v2/campaigns" + rawQuery)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", rawQuery, resp.StatusCode)
		}
		var page CampaignPage
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		return &page
	}

	total := defaultPageLimit + 10
	for _, tc := range []struct {
		query     string
		wantLimit int
		wantLen   int
	}{
		{"", defaultPageLimit, defaultPageLimit},
		{"?limit=0", defaultPageLimit, defaultPageLimit},
		{"?limit=-1", defaultPageLimit, defaultPageLimit},
		{"?limit=100000", maxPageLimit, total},
		{"?limit=5", 5, 5},
	} {
		page := fetch(tc.query)
		if page.Limit != tc.wantLimit {
			t.Errorf("GET %q: limit = %d, want %d", tc.query, page.Limit, tc.wantLimit)
		}
		if len(page.Campaigns) != tc.wantLen {
			t.Errorf("GET %q: %d campaigns, want %d", tc.query, len(page.Campaigns), tc.wantLen)
		}
		if page.Total != total {
			t.Errorf("GET %q: total = %d, want %d", tc.query, page.Total, total)
		}
	}

	// The typed client's "server default" request shares the clamp.
	page, err := client.Campaigns(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Limit != defaultPageLimit || len(page.Campaigns) != defaultPageLimit {
		t.Fatalf("client default page: limit=%d len=%d, want %d", page.Limit, len(page.Campaigns), defaultPageLimit)
	}
}

func TestV2DraftOpenCancel(t *testing.T) {
	client, _ := startRegistry(t)
	ctx := context.Background()
	w := testWorkload(t, 5)

	draft, err := client.CreateCampaign(ctx, CreateCampaignRequest{Name: "d", Tasks: w.Dataset.Tasks(), Draft: true})
	if err != nil {
		t.Fatal(err)
	}
	if draft.State != "draft" {
		t.Fatalf("state = %q, want draft", draft.State)
	}
	// Draft rejects submissions with a conflict.
	err = client.SubmitTo(ctx, draft.ID, submissionFor(w, 0))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 409 || apiErr.Code != "conflict" {
		t.Fatalf("submit to draft: %v", err)
	}
	if !errors.Is(err, imcerr.ErrConflict) {
		t.Fatal("APIError does not match imcerr.ErrConflict")
	}

	opened, err := client.OpenCampaign(ctx, draft.ID)
	if err != nil || opened.State != "open" {
		t.Fatalf("open: %+v, %v", opened, err)
	}
	if err := client.SubmitTo(ctx, draft.ID, submissionFor(w, 0)); err != nil {
		t.Fatal(err)
	}

	cancelled, err := client.CancelCampaign(ctx, draft.ID)
	if err != nil || cancelled.State != "cancelled" {
		t.Fatalf("cancel: %+v, %v", cancelled, err)
	}
	// Closing a cancelled campaign conflicts (it still has a submission,
	// so it passes the emptiness check and fails on state).
	_, err = client.CloseCampaign(ctx, draft.ID)
	if !errors.Is(err, imcerr.ErrConflict) {
		t.Fatalf("close cancelled: %v", err)
	}
}

func TestV2ErrorCodes(t *testing.T) {
	client, _ := startRegistry(t)
	ctx := context.Background()
	w := testWorkload(t, 9)

	// Unknown campaign → 404 not_found.
	_, err := client.Campaign(ctx, "cmp-missing")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 || apiErr.Code != "not_found" {
		t.Fatalf("missing campaign: %v", err)
	}
	// No tasks → 400 invalid.
	_, err = client.CreateCampaign(ctx, CreateCampaignRequest{Name: "empty"})
	if !errors.Is(err, imcerr.ErrInvalid) {
		t.Fatalf("empty create: %v", err)
	}
	// Close with no submissions → 422 infeasible.
	info, err := client.CreateCampaign(ctx, CreateCampaignRequest{Name: "e", Tasks: w.Dataset.Tasks()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.CloseCampaign(ctx, info.ID)
	if !errors.As(err, &apiErr) || apiErr.Status != 422 || apiErr.Code != "infeasible" {
		t.Fatalf("close empty: %v", err)
	}
	// Report before close → 409 conflict.
	_, err = client.CampaignReport(ctx, info.ID)
	if !errors.Is(err, imcerr.ErrConflict) {
		t.Fatalf("report before close: %v", err)
	}
}

// TestV2CreateFromSpecRefused: a create must carry its task list. The
// server no longer runs the workload generator on a client's spec, so a
// spec-only body reads as a create without tasks.
func TestV2CreateFromSpecRefused(t *testing.T) {
	reg := registry.New()
	h := NewRegistryServer(reg, "", platform.DefaultConfig(), nil).Handler()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/campaigns", strings.NewReader(body)))
		return rec
	}
	rec := post(`{"name":"g","seed":42,"spec":{"workers":20,"tasks":15,"copiers":5,"tasks_per_worker":9}}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"invalid"`) {
		t.Fatalf("spec-only create: %d %s, want 400 invalid", rec.Code, rec.Body)
	}
	if reg.Len() != 0 {
		t.Fatalf("a refused create registered %d campaigns", reg.Len())
	}
	if rec := post(`{"name":"c","tasks":[{"id":"t1","num_false":2,"requirement":1}]}`); rec.Code != http.StatusCreated {
		t.Fatalf("task-list create: %d %s", rec.Code, rec.Body)
	}
}

// countingBody yields n spaces and counts what it hands out, so a test
// can send a body of any size without holding it in memory.
type countingBody struct{ n, read int64 }

func (b *countingBody) Read(p []byte) (int, error) {
	if b.read >= b.n {
		return 0, io.EOF
	}
	k := min(int64(len(p)), b.n-b.read)
	for i := range p[:k] {
		p[i] = ' '
	}
	b.read += k
	return int(k), nil
}

// TestV2BodyOverCapRefused: a body one byte over maxBody is refused as
// invalid. A declared Content-Length is refused before any byte is read,
// on both endpoints that read a body; a body of undeclared length is read
// no further than one byte past the cap (one case: both endpoints share
// readBody, and the case buffers the whole cap).
func TestV2BodyOverCapRefused(t *testing.T) {
	reg := registry.New()
	h := NewRegistryServer(reg, "", platform.DefaultConfig(), nil).Handler()
	c, err := reg.Create("cap", []Task{{ID: "t1", NumFalse: 2, Requirement: 1}}, platform.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	subs := "/v2/campaigns/" + c.ID() + "/submissions"
	for _, tc := range []struct {
		path     string
		declared bool
	}{
		{"/v2/campaigns", true},
		{subs, true},
		{subs, false},
	} {
		body := &countingBody{n: maxBody + 1}
		req := httptest.NewRequest(http.MethodPost, tc.path, body)
		req.ContentLength = -1
		if tc.declared {
			req.ContentLength = body.n
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"invalid"`) {
			t.Fatalf("POST %s (declared=%v): %d %s, want 400 invalid", tc.path, tc.declared, rec.Code, rec.Body)
		}
		if tc.declared && body.read != 0 {
			t.Fatalf("POST %s: read %d bytes of a body declared over the cap", tc.path, body.read)
		}
		if body.read > maxBody+1 {
			t.Fatalf("POST %s: read %d bytes, cap is %d", tc.path, body.read, maxBody)
		}
	}
	if c.Submissions() != 0 || reg.Len() != 1 {
		t.Fatalf("an oversized body was applied: %d submissions, %d campaigns", c.Submissions(), reg.Len())
	}
}

// TestV2UndeclaredBodyAllocatesOnce: a body of undeclared length is
// read whole and allocates at most 2.25 times its size, where a buffer
// grown by doubling allocates about four times it.
func TestV2UndeclaredBodyAllocatesOnce(t *testing.T) {
	const size = 8 << 20
	var least uint64 = math.MaxUint64
	for range 3 {
		req := httptest.NewRequest(http.MethodPost, "/v2/campaigns", &countingBody{n: size})
		req.ContentLength = -1
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body, err := readBody(req)
		runtime.ReadMemStats(&after)
		if err != nil || len(body) != size || strings.TrimLeft(string(body[:64]), " ") != "" {
			t.Fatalf("readBody: %d bytes, %v; want %d spaces", len(body), err, size)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(size) * 9 / 4; least > limit {
		t.Fatalf("reading an undeclared %d-byte body allocated %d bytes, want at most %d", size, least, limit)
	}
}

func TestV2CloseIsIdempotentAcrossStates(t *testing.T) {
	client, _ := startRegistry(t)
	ctx := context.Background()
	w := testWorkload(t, 13)
	info, rep := driveCampaign(t, client, w, "idem")
	// Closing a settled campaign returns the settled snapshot.
	again, err := client.CloseCampaign(ctx, info.ID)
	if err != nil || again.State != "settled" {
		t.Fatalf("re-close: %+v, %v", again, err)
	}
	rep2, err := client.CampaignReport(ctx, info.ID)
	if err != nil || fmt.Sprint(rep.Winners) != fmt.Sprint(rep2.Winners) {
		t.Fatalf("report changed after re-close: %v", err)
	}
}

// TestV2CampaignTasks: the tasks endpoint serves the campaign's task
// list in publication order, for a draft as for an open campaign, and
// 404 for an unknown ID.
func TestV2CampaignTasks(t *testing.T) {
	client, _ := startRegistry(t)
	ctx := context.Background()
	// Publication order is not ID order: the endpoint must not sort.
	tasks := []Task{
		{ID: "t-c", NumFalse: 1, Requirement: 0.5},
		{ID: "t-a", NumFalse: 2, Requirement: 0.7, Value: 3},
		{ID: "t-b", NumFalse: 1, Requirement: 0.6},
	}
	for _, draft := range []bool{true, false} {
		info, err := client.CreateCampaign(ctx, CreateCampaignRequest{Tasks: tasks, Draft: draft})
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.CampaignTasks(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tasks) {
			t.Fatalf("draft=%v: tasks = %+v, want %+v", draft, got, tasks)
		}
	}
	_, err := client.CampaignTasks(ctx, "cmp-missing")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 || apiErr.Code != "not_found" {
		t.Fatalf("unknown campaign: %v", err)
	}
}

// TestV1PathsNotFound: the retired single-campaign protocol is gone —
// every path it served answers 404, even with a campaign registered.
func TestV1PathsNotFound(t *testing.T) {
	client, _, _ := startCampaign(t, 77)
	for _, route := range []struct{ method, path string }{
		{"GET", "/v1/tasks"},
		{"POST", "/v1/submissions"},
		{"POST", "/v1/close"},
		{"GET", "/v1/report"},
		{"GET", "/v1/audit"},
		{"GET", "/v1/healthz"},
	} {
		req, err := http.NewRequest(route.method, client.base+route.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", route.method, route.path, resp.StatusCode)
		}
	}
}

// TestV2Stress fires parallel submissions, closes, and reads at one
// campaign and across many registry campaigns. Run with -race.
func TestV2Stress(t *testing.T) {
	client, _ := startRegistry(t)
	ctx := context.Background()
	w := testWorkload(t, 17)
	tasks := w.Dataset.Tasks()

	const campaigns = 4
	ids := make([]string, campaigns)
	for k := range ids {
		info, err := client.CreateCampaign(ctx, CreateCampaignRequest{
			Name: fmt.Sprintf("stress-%d", k), Tasks: tasks,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = info.ID
	}

	var wg sync.WaitGroup
	for _, id := range ids {
		// Parallel single submissions at each campaign.
		for i := 0; i < w.Dataset.NumWorkers(); i++ {
			wg.Add(1)
			go func(id string, i int) {
				defer wg.Done()
				// Rejections (late vs. a concurrent close) are fine;
				// transport failures are not.
				if err := client.SubmitTo(ctx, id, submissionFor(w, i)); err != nil {
					var apiErr *APIError
					if !errors.As(err, &apiErr) {
						t.Errorf("submit transport error: %v", err)
					}
				}
			}(id, i)
		}
		// Concurrent reads and listings.
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := client.Campaign(ctx, id); err != nil {
					t.Errorf("snapshot: %v", err)
				}
				if _, err := client.Campaigns(ctx, 0, 2); err != nil {
					t.Errorf("list: %v", err)
				}
			}
		}(id)
	}
	wg.Wait()

	// Parallel closes (several per campaign) plus reads during settle.
	for _, id := range ids {
		for j := 0; j < 2; j++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				if _, err := client.CloseCampaign(ctx, id); err != nil {
					t.Errorf("close %s: %v", id, err)
				}
			}(id)
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if _, err := client.AwaitSettled(ctx, id, time.Millisecond); err != nil {
				t.Errorf("await %s: %v", id, err)
			}
		}(id)
	}
	wg.Wait()

	for _, id := range ids {
		rep, err := client.CampaignReport(ctx, id)
		if err != nil || len(rep.Winners) == 0 {
			t.Fatalf("campaign %s report: %v", id, err)
		}
	}
}

// TestV2RejectsTrailingBytes: a request body is exactly one JSON value.
// Bytes after it (other than white space) used to be ignored, so a
// submission or a create with trailing garbage was accepted.
func TestV2RejectsTrailingBytes(t *testing.T) {
	reg := registry.New()
	h := NewRegistryServer(reg, "", platform.DefaultConfig(), nil).Handler()
	c, err := reg.Create("trailing", []Task{{ID: "t1", NumFalse: 2, Requirement: 1}}, platform.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	subs := "/v2/campaigns/" + c.ID() + "/submissions"
	create := `{"name":"c","tasks":[{"id":"t1","num_false":2,"requirement":1}]}`
	for _, tc := range []struct{ path, body string }{
		{subs, `{"worker":"w1","price":1,"answers":{"t1":"a"}} }garbage[`},
		{subs, `{"submissions":[{"worker":"w1","price":1,"answers":{"t1":"a"}}]} {}`},
		{subs, `{"worker":"w1","price":1,"answers":{"t1":"a"}}x`},
		{"/v2/campaigns", create + ` }garbage[`},
		{"/v2/campaigns", create + `{}`},
	} {
		rec := post(tc.path, tc.body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"invalid"`) {
			t.Fatalf("POST %s %q: %d %s, want 400 invalid", tc.path, tc.body, rec.Code, rec.Body)
		}
	}
	if c.Submissions() != 0 || reg.Len() != 1 {
		t.Fatalf("a refused body was applied: %d submissions, %d campaigns", c.Submissions(), reg.Len())
	}
	// White space after the value is fine.
	if rec := post(subs, "{\"worker\":\"w1\",\"price\":1,\"answers\":{\"t1\":\"a\"}} \r\n\t"); rec.Code != http.StatusAccepted {
		t.Fatalf("trailing white space: %d %s", rec.Code, rec.Body)
	}
	if rec := post("/v2/campaigns", create+"\n"); rec.Code != http.StatusCreated {
		t.Fatalf("create with trailing newline: %d %s", rec.Code, rec.Body)
	}
}

// TestV2SubmitErrorNamesBatchIndexOnlyForBatches: a refused single
// submission object reads as itself, while a refused element of a
// multi-element batch is named by its index, on an in-memory and on a
// durable server alike.
func TestV2SubmitErrorNamesBatchIndexOnlyForBatches(t *testing.T) {
	st := openStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	for _, reg := range []*registry.Registry{registry.New(), registry.New(registry.WithStore(st))} {
		h := NewRegistryServer(reg, "", platform.DefaultConfig(), nil).Handler()
		c, err := reg.Create("labels", []Task{{ID: "t1", NumFalse: 2, Requirement: 1}}, platform.DefaultConfig(), false)
		if err != nil {
			t.Fatal(err)
		}
		durable := c.Persisted()
		post := func(body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/campaigns/"+c.ID()+"/submissions", strings.NewReader(body)))
			return rec
		}
		rec := post(`{"worker":"zz1","price":3,"answers":{"":"x"}}`)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"invalid"`) {
			t.Fatalf("durable=%v single: %d %s, want 400 invalid", durable, rec.Code, rec.Body)
		}
		if strings.Contains(rec.Body.String(), "batch") {
			t.Fatalf("durable=%v single submission reported as a batch: %s", durable, rec.Body)
		}
		rec = post(`{"submissions":[{"worker":"w1","price":1,"answers":{"t1":"a"}},{"worker":"zz1","price":3,"answers":{"":"x"}}]}`)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `batch submission 1 (worker \"zz1\")`) {
			t.Fatalf("durable=%v batch: %d %s, want 400 naming batch submission 1", durable, rec.Code, rec.Body)
		}
		if c.Submissions() != 1 {
			t.Fatalf("durable=%v: %d submissions, want the batch's accepted prefix of 1", durable, c.Submissions())
		}
	}
}
