package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imc2/internal/gen"
	"imc2/internal/imcerr"
	"imc2/internal/model"
	"imc2/internal/platform"
	"imc2/internal/randx"
	"imc2/internal/store"
)

func testTasks() []model.Task {
	return []model.Task{
		{ID: "t1", NumFalse: 2, Requirement: 1, Value: 5},
		{ID: "t2", NumFalse: 2, Requirement: 1, Value: 6},
	}
}

// testWorkload generates a settleable campaign workload.
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

func submissionFor(c *gen.Campaign, i int) platform.Submission {
	ds := c.Dataset
	answers := make(map[string]string)
	for _, j := range ds.WorkerTasks(i) {
		answers[ds.Task(j).ID] = ds.ValueString(j, ds.ValueOf(i, j))
	}
	return platform.Submission{Worker: ds.WorkerID(i), Price: c.Costs[i], Answers: answers}
}

func TestCreateGetAndIDs(t *testing.T) {
	r := New()
	c1, err := r.Create("alpha", testTasks(), platform.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := r.Create("beta", testTasks(), platform.DefaultConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	if c1.ID() == c2.ID() {
		t.Fatal("duplicate campaign IDs")
	}
	if c1.ID() >= c2.ID() {
		t.Fatalf("IDs not in creation order: %q vs %q", c1.ID(), c2.ID())
	}
	if c1.State() != platform.StateOpen || c2.State() != platform.StateDraft {
		t.Fatalf("states = %v, %v", c1.State(), c2.State())
	}
	got, err := r.Get(c1.ID())
	if err != nil || got != c1 {
		t.Fatalf("Get(%q) = %v, %v", c1.ID(), got, err)
	}
	if _, err := r.Get("cmp-missing"); !errors.Is(err, imcerr.ErrNotFound) {
		t.Fatalf("missing campaign: err = %v, want not found", err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if _, err := r.Create("bad", nil, platform.DefaultConfig(), false); !errors.Is(err, imcerr.ErrInvalid) {
		t.Fatalf("empty task list: err = %v, want invalid", err)
	}
}

func TestListPagination(t *testing.T) {
	r := New()
	const n = 25
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		c, err := r.Create(fmt.Sprintf("c%02d", i), testTasks(), platform.DefaultConfig(), false)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID())
	}
	page, total := r.List(0, 10)
	if total != n || len(page) != 10 {
		t.Fatalf("page 0: total=%d len=%d", total, len(page))
	}
	for i, c := range page {
		if c.ID() != ids[i] {
			t.Fatalf("page 0 out of order at %d: %q vs %q", i, c.ID(), ids[i])
		}
	}
	page, _ = r.List(20, 10)
	if len(page) != 5 || page[0].ID() != ids[20] {
		t.Fatalf("last page: len=%d first=%q", len(page), page[0].ID())
	}
	if page, _ = r.List(99, 10); len(page) != 0 {
		t.Fatalf("past-the-end page not empty: %d", len(page))
	}
	if page, _ = r.List(-3, 0); len(page) != n {
		t.Fatalf("unbounded list: len=%d, want %d", len(page), n)
	}
}

func TestCampaignEndToEnd(t *testing.T) {
	r := New()
	w := testWorkload(t, 42)
	c, err := r.Create("e2e", w.Dataset.Tasks(), platform.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Report(); !errors.Is(err, imcerr.ErrConflict) {
		t.Fatalf("report before settle: %v", err)
	}
	subs := make([]platform.Submission, 0, w.Dataset.NumWorkers())
	for i := 0; i < w.Dataset.NumWorkers(); i++ {
		subs = append(subs, submissionFor(w, i))
	}
	n, err := c.SubmitBatch(subs)
	if err != nil || n != len(subs) {
		t.Fatalf("batch = %d, %v", n, err)
	}
	rep, err := c.Settle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Winners) == 0 {
		t.Fatal("no winners")
	}
	got, err := c.Report()
	if err != nil || got != rep {
		t.Fatalf("Report = %v, %v", got, err)
	}
	if _, err := c.Audit(); err != nil {
		t.Fatalf("audit after DATE settle: %v", err)
	}
	if c.SettleErr() != nil {
		t.Fatalf("settle error = %v", c.SettleErr())
	}
}

func TestSubmitBatchPartialFailure(t *testing.T) {
	r := New()
	c, _ := r.Create("batch", testTasks(), platform.DefaultConfig(), false)
	subs := []platform.Submission{
		{Worker: "a", Price: 1, Answers: map[string]string{"t1": "x"}},
		{Worker: "a", Price: 1, Answers: map[string]string{"t1": "x"}}, // duplicate
		{Worker: "b", Price: 1, Answers: map[string]string{"t1": "y"}},
	}
	n, err := c.SubmitBatch(subs)
	if n != 1 {
		t.Fatalf("accepted = %d, want 1", n)
	}
	if !errors.Is(err, platform.ErrDuplicateSubmission) || imcerr.CodeOf(err) != imcerr.CodeConflict {
		t.Fatalf("err = %v, want duplicate-submission conflict", err)
	}
	if c.Submissions() != 1 {
		t.Fatalf("submissions = %d, want 1", c.Submissions())
	}
}

// TestSubmitMultiFaultErrorIsDeterministic submits one answer set with
// four refused answers (two empty values on published tasks, two
// unpublished tasks) many times and requires the same error every time,
// from the platform itself and from in-memory and durable campaigns: the
// refusal of the smallest task ID.
func TestSubmitMultiFaultErrorIsDeterministic(t *testing.T) {
	tasks := []model.Task{
		{ID: "a", NumFalse: 2, Requirement: 1, Value: 5},
		{ID: "b", NumFalse: 2, Requirement: 1, Value: 6},
	}
	p, err := platform.New(tasks)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := New().Create("mem", tasks, platform.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	durable, err := New(WithStore(st)).Create("durable", tasks, platform.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	sub := platform.Submission{Worker: "w", Price: 1, Answers: map[string]string{"a": "", "b": "", "zz": "x", "c": "y"}}
	const want = `platform: "w" submitted an empty value for "a"`
	for _, tc := range []struct {
		name   string
		submit func(platform.Submission) error
	}{{"platform", p.Submit}, {"in-memory", mem.Submit}, {"durable", durable.Submit}} {
		for rep := 0; rep < 200; rep++ {
			if err := tc.submit(sub); err == nil || err.Error() != want {
				t.Fatalf("%s submit %d: err = %v, want %q", tc.name, rep, err, want)
			}
		}
	}
}

func TestFailedSettleSurfacesError(t *testing.T) {
	r := New()
	c, _ := r.Create("empty", testTasks(), platform.DefaultConfig(), false)
	_, err := c.Settle(context.Background())
	if !errors.Is(err, imcerr.ErrInfeasible) {
		t.Fatalf("settle of empty campaign: %v", err)
	}
	if !errors.Is(c.SettleErr(), imcerr.ErrInfeasible) {
		t.Fatalf("SettleErr = %v", c.SettleErr())
	}
	if _, err := c.Report(); !errors.Is(err, imcerr.ErrInfeasible) {
		t.Fatalf("report after failed settle: %v", err)
	}
	if _, err := c.Audit(); !errors.Is(err, imcerr.ErrInfeasible) {
		t.Fatalf("audit after failed settle: %v", err)
	}
}

func TestRetriedSettleClearsStaleError(t *testing.T) {
	r := New()
	w := testWorkload(t, 11)
	c, err := r.Create("retry", w.Dataset.Tasks(), platform.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Settle(context.Background()); !errors.Is(err, imcerr.ErrInfeasible) {
		t.Fatalf("settle of empty campaign: %v", err)
	}
	// The failed settle returned the campaign to Open; repair it.
	for i := 0; i < w.Dataset.NumWorkers(); i++ {
		if err := c.Submit(submissionFor(w, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Settle(context.Background()); err != nil {
		t.Fatalf("retried settle: %v", err)
	}
	if err := c.SettleErr(); err != nil {
		t.Fatalf("stale settle error survived the retry: %v", err)
	}
	if _, err := c.Report(); err != nil {
		t.Fatalf("report after retried settle: %v", err)
	}
}

// TestListedCampaignsAlwaysGettable races creations against list+get:
// any ID List returns must already resolve through Get (regression for
// publishing to the ordered index before the lookup map).
func TestListedCampaignsAlwaysGettable(t *testing.T) {
	r := New()
	done := make(chan struct{})

	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		for {
			cs, _ := r.List(0, 0)
			for _, c := range cs {
				if _, err := r.Get(c.ID()); err != nil {
					t.Errorf("listed campaign %s not gettable: %v", c.ID(), err)
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	var creators sync.WaitGroup
	for g := 0; g < 4; g++ {
		creators.Add(1)
		go func(g int) {
			defer creators.Done()
			for k := 0; k < 50; k++ {
				if _, err := r.Create(fmt.Sprintf("c-%d-%d", g, k), testTasks(), platform.DefaultConfig(), false); err != nil {
					t.Errorf("create: %v", err)
					return
				}
			}
		}(g)
	}
	creators.Wait()
	close(done)
	checker.Wait()

	// Final ordering invariant: IDs strictly ascending.
	cs, total := r.List(0, 0)
	if total != 200 || len(cs) != 200 {
		t.Fatalf("List = %d campaigns (total %d), want 200", len(cs), total)
	}
	for i := 1; i < len(cs); i++ {
		if cs[i-1].ID() >= cs[i].ID() {
			t.Fatalf("ordered index out of order at %d: %s >= %s", i, cs[i-1].ID(), cs[i].ID())
		}
	}
}

// TestRegistryStress hammers one registry with concurrent creates,
// submissions, settles, and reads across many campaigns. Run with -race.
func TestRegistryStress(t *testing.T) {
	r := New()
	const campaigns = 6
	w := testWorkload(t, 7)
	tasks := w.Dataset.Tasks()

	cs := make([]*Campaign, campaigns)
	for k := 0; k < campaigns; k++ {
		c, err := r.Create(fmt.Sprintf("stress-%d", k), tasks, platform.DefaultConfig(), false)
		if err != nil {
			t.Fatal(err)
		}
		cs[k] = c
	}

	var wg sync.WaitGroup
	for k := 0; k < campaigns; k++ {
		c := cs[k]
		for i := 0; i < w.Dataset.NumWorkers(); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Errors are expected once a settle starts; races are not.
				_ = c.Submit(submissionFor(w, i))
			}(i)
		}
		// Readers and listers run alongside submissions.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				_ = c.State()
				_ = c.Submissions()
				_, _ = r.List(0, 3)
				_, _ = r.Get(c.ID())
			}
		}()
	}
	wg.Wait()

	// Settle every campaign from several goroutines at once.
	for k := 0; k < campaigns; k++ {
		c := cs[k]
		for j := 0; j < 3; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Settle(context.Background()); err != nil {
					t.Errorf("settle %s: %v", c.ID(), err)
				}
			}()
		}
	}
	wg.Wait()
	for _, c := range cs {
		if c.State() != platform.StateSettled {
			t.Fatalf("campaign %s state = %v, want settled", c.ID(), c.State())
		}
		rep, err := c.Report()
		if err != nil || len(rep.Winners) == 0 {
			t.Fatalf("campaign %s report: %v, %v", c.ID(), rep, err)
		}
	}
}

// blockingStore is a store whose Append, once armed, announces itself on
// entered and waits for release — a creation stuck in its fsync.
type blockingStore struct {
	armed            atomic.Bool
	entered, release chan struct{}
}

func (s *blockingStore) Append(store.Event) error {
	if s.armed.Load() {
		s.entered <- struct{}{}
		<-s.release
	}
	return nil
}

func (s *blockingStore) AppendContext(_ context.Context, ev store.Event) error { return s.Append(ev) }

func (s *blockingStore) Close() error { return nil }

// TestReadsDoNotWaitOnCreateAppend holds one Create inside its created
// event's append and requires Get of an existing campaign, List and Len
// to return meanwhile, without the blocked campaign. List and Len used
// to wait on the lock the creation holds across its append.
func TestReadsDoNotWaitOnCreateAppend(t *testing.T) {
	st := &blockingStore{entered: make(chan struct{}), release: make(chan struct{})}
	r := New(WithStore(st))
	existing, err := r.Create("existing", testTasks(), platform.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	st.armed.Store(true)
	created := make(chan error, 1)
	go func() {
		_, err := r.Create("blocked", testTasks(), platform.DefaultConfig(), false)
		created <- err
	}()
	<-st.entered

	reads := make(chan struct{})
	go func() {
		defer close(reads)
		if c, err := r.Get(existing.ID()); err != nil || c != existing {
			t.Errorf("Get(%s) = %v, %v", existing.ID(), c, err)
		}
		if cs, total := r.List(0, 0); total != 1 || len(cs) != 1 {
			t.Errorf("List = %d campaigns (total %d), want 1", len(cs), total)
		}
		if n := r.Len(); n != 1 {
			t.Errorf("Len = %d, want 1", n)
		}
	}()
	select {
	case <-reads:
	case <-time.After(5 * time.Second):
		t.Error("reads blocked behind a creation's durable append")
	}
	close(st.release)
	<-reads
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	if n := r.Len(); n != 2 {
		t.Fatalf("Len after the creation = %d, want 2", n)
	}
}
