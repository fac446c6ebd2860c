package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"imc2/internal/gen"
	"imc2/internal/model"
	"imc2/internal/platform"
	"imc2/internal/randx"
	"imc2/internal/registry"
	"imc2/internal/store"
	"imc2/internal/truth"
)

// The format pins hold the bytes of the settled record wherever it
// leaves the process: the GET …/report and GET …/audit bodies, the
// store's submissions and settled WAL events, and its snapshot campaign
// records. testdata/format/data is a durable data directory left behind
// by a crashed daemon (a snapshot plus a WAL tail, never closed); the
// pins decode it with the current code and require the same bytes back,
// so a directory written by an earlier build keeps recovering.
// testdata/format/data-ed-members is the same scenario written before
// ED's ordering counts became constants: its created events and snapshot
// records still carry "ed_exact_limit":6,"ed_samples":720, and it must
// recover to the same state as the current directory.
//
// Regenerate with
//
//	go test -run TestFormatPin ./internal/wire/ -update-format
//
// only in a change that means to alter the format, and say in its
// description which bytes moved and why.
var updateFormat = flag.Bool("update-format", false, "rewrite testdata/format from the current code")

const formatDir = "testdata/format"

// formatIDs are the campaign IDs the format scenario allocates, in
// creation order.
const (
	formatSettled   = "cmp-0000000000000001"
	formatOpen      = "cmp-0000000000000002"
	formatDraft     = "cmp-0000000000000003"
	formatCancelled = "cmp-0000000000000004"
	formatSolo      = "cmp-0000000000000005"
)

// recordingStore forwards to a FileStore and keeps a copy of every
// event handed to it.
type recordingStore struct {
	*store.FileStore
	events []store.Event
}

func (r *recordingStore) Append(ev store.Event) error {
	r.events = append(r.events, ev)
	return r.FileStore.Append(ev)
}

func (r *recordingStore) AppendContext(ctx context.Context, ev store.Event) error {
	r.events = append(r.events, ev)
	return r.FileStore.AppendContext(ctx, ev)
}

// formatConfig is the settle configuration of the format scenario:
// the paper's DATE + ReverseAuction, serial.
func formatConfig() platform.Config {
	cfg := platform.DefaultConfig()
	cfg.TruthOptions.Parallelism = 1
	return cfg
}

// formatWorkload is the small generated campaign the settled pins use.
func formatWorkload(t *testing.T) *gen.Campaign {
	t.Helper()
	spec := gen.DefaultSpec()
	spec.Workers = 8
	spec.Tasks = 5
	spec.Copiers = 2
	spec.TasksPerWorker = 4
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	spec.ParticipationDecay = 0.3
	c, err := gen.NewCampaign(spec, randx.New(31))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runFormatScenario drives a durable registry in dir through the
// lifecycle the pins cover, then drops the store without closing it, as
// a crash would:
//
//   - formatSettled: a generated campaign, settled (an audit with pairs);
//   - formatOpen: open, with one batch of two submissions;
//   - formatDraft: a draft; formatCancelled: cancelled;
//   - a snapshot folds everything above;
//   - formatSolo: one worker, settled with GreedyBid after the snapshot
//     (an audit with zero pairs, in the WAL tail).
//
// It returns every event the registry appended.
func runFormatScenario(t *testing.T, dir string) []store.Event {
	t.Helper()
	fs, err := store.Open(store.Options{Dir: dir, SnapshotEvery: -1, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	rs := &recordingStore{FileStore: fs}
	reg := registry.New(registry.WithStore(rs))
	ctx := context.Background()
	cfg := formatConfig()

	wl := formatWorkload(t)
	c, err := reg.Create("settled", wl.Dataset.Tasks(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]platform.Submission, 0, wl.Dataset.NumWorkers())
	for i := 0; i < wl.Dataset.NumWorkers(); i++ {
		s := submissionFor(wl, i)
		subs = append(subs, platform.Submission{Worker: s.Worker, Price: s.Price, Answers: s.Answers})
	}
	if _, err := c.SubmitBatch(subs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Settle(ctx); err != nil {
		t.Fatal(err)
	}

	tasks := []model.Task{
		{ID: "t1", NumFalse: 2, Requirement: 0.4, Value: 1},
		{ID: "t2", NumFalse: 1, Requirement: 0.6, Value: 2.5},
	}
	c, err = reg.Create("open", tasks, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitBatch([]platform.Submission{
		{Worker: "w1", Price: 1.25, Answers: map[string]string{"t2": "b", "t1": "a"}},
		{Worker: "w2", Price: 0.5, Answers: map[string]string{"t1": "c"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("draft", tasks, cfg, true); err != nil {
		t.Fatal(err)
	}
	c, err = reg.Create("", tasks, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Snapshot(); err != nil {
		t.Fatal(err)
	}

	solo := cfg
	solo.Mechanism = platform.MechanismGreedyBid
	c, err = reg.Create("solo", tasks, solo, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(platform.Submission{Worker: "only", Price: 3, Answers: map[string]string{"t1": "a", "t2": "b"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Settle(ctx); err != nil {
		t.Fatal(err)
	}
	return rs.events
}

// copyDir copies the regular files of src into a fresh temp dir, so a
// test can open a committed data directory without writing to it.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// openFormatData recovers the committed data directory
// testdata/format/name into a registry.
func openFormatData(t *testing.T, name string) (*store.FileStore, *registry.Registry) {
	t.Helper()
	return recoverDir(t, copyDir(t, filepath.Join(formatDir, name)))
}

// recoverDir opens the store in dir and restores a registry from it.
func recoverDir(t *testing.T, dir string) (*store.FileStore, *registry.Registry) {
	t.Helper()
	fs, err := store.Open(store.Options{Dir: dir, SnapshotEvery: -1, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	reg := registry.New(registry.WithStore(fs))
	if _, err := reg.Restore(fs.State().Campaigns(), fs.RecoveredAt()); err != nil {
		t.Fatal(err)
	}
	return fs, reg
}

// zeroTimes re-encodes v through JSON with every convergence wall time
// cleared, so a live settle's bytes compare with a pinned file. v is an
// event or a campaign record; the copy is decoded into a fresh value,
// leaving the caller's untouched.
func zeroTimes[T any](t *testing.T, v T) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var generic any
	if err := json.Unmarshal(buf, &generic); err != nil {
		t.Fatal(err)
	}
	clearSeconds(generic)
	var cp T
	if err := remarshal(generic, &cp); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// untimed copies an audit with its convergence wall times cleared.
func untimed(a *platform.Audit) platform.Audit {
	cp := *a
	cp.Convergence = append([]truth.IterationStats(nil), a.Convergence...)
	for i := range cp.Convergence {
		cp.Convergence[i].DependenceSeconds = 0
		cp.Convergence[i].IndependenceSeconds = 0
		cp.Convergence[i].EstimateSeconds = 0
	}
	return cp
}

// clearSeconds deletes the wall-time keys (*_seconds) of every JSON
// object in v.
func clearSeconds(v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			if strings.HasSuffix(k, "_seconds") {
				delete(x, k)
				continue
			}
			clearSeconds(e)
		}
	case []any:
		for _, e := range x {
			clearSeconds(e)
		}
	}
}

func remarshal(v, out any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return json.Unmarshal(buf, out)
}

// checkGolden compares got with testdata/format/name, or rewrites the
// file under -update-format.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(formatDir, name)
	if *updateFormat {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: bytes differ from the pin\n got: %s\nwant: %s", name, got, want)
	}
}

// TestFormatPinUpdate rewrites the committed data directory from the
// current code when -update-format is set; the other pins then rewrite
// their files from it.
func TestFormatPinUpdate(t *testing.T) {
	if !*updateFormat {
		t.Skip("set -update-format to regenerate testdata/format")
	}
	dir := filepath.Join(formatDir, "data")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	runFormatScenario(t, dir)
}

// TestFormatPinHTTPBodies pins the GET …/report and GET …/audit bodies of
// campaigns recovered from the committed data directory, byte for byte.
func TestFormatPinHTTPBodies(t *testing.T) {
	_, reg := openFormatData(t, "data")
	srv := NewRegistryServer(reg, "", formatConfig(), nil)
	h := srv.Handler()
	for _, tc := range []struct{ path, golden string }{
		{"/v2/campaigns/" + formatSettled + "/report", "report.json"},
		{"/v2/campaigns/" + formatSettled + "/audit", "audit.json"},
		{"/v2/campaigns/" + formatSolo + "/report", "report_solo.json"},
		{"/v2/campaigns/" + formatSolo + "/audit", "audit_solo.json"},
	} {
		req, err := http.NewRequest(http.MethodGet, tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", tc.path, rec.Code, rec.Body.Bytes())
		}
		checkGolden(t, tc.golden, rec.Body.Bytes())
	}
}

// TestFormatPinWALEvents pins the JSON payload of one submissions event
// and one settled event as the current code appends them, and requires
// every event of the committed WAL's snapshotted prefix to decode and
// re-encode to its recorded bytes.
func TestFormatPinWALEvents(t *testing.T) {
	events := runFormatScenario(t, t.TempDir())
	var subs, settled *store.Event
	for i := range events {
		ev := &events[i]
		switch {
		case ev.Type == store.EventSubmissions && ev.Campaign == formatOpen:
			subs = ev
		case ev.Type == store.EventSettled && ev.Campaign == formatSettled:
			settled = ev
		}
	}
	if subs == nil || settled == nil {
		t.Fatalf("scenario appended no submissions or settled event (%d events)", len(events))
	}
	buf, err := json.Marshal(subs)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "submissions_event.json", buf)
	checkGolden(t, "settled_event.json", zeroTimes(t, *settled))

	payloads := walPayloads(t, filepath.Join(formatDir, "data", "wal-0000000000000001.log"))
	if len(payloads) == 0 {
		t.Fatal("committed WAL segment holds no events")
	}
	for i, raw := range payloads {
		var ev store.Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatalf("event %d: %v", i+1, err)
		}
		got, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Errorf("event %d (%s) re-encodes differently\n got: %s\nwant: %s", i+1, ev.Type, got, raw)
		}
	}
}

// walPayloads reads every record payload of one WAL segment.
func walPayloads(t *testing.T, path string) [][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out [][]byte
	for {
		p, err := store.ReadRecord(f)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
}

// TestFormatPinSnapshotRecord pins one snapshot campaign record as the
// current code folds it, and requires every record of the committed
// snapshot to decode and re-encode to its recorded bytes.
func TestFormatPinSnapshotRecord(t *testing.T) {
	dir := t.TempDir()
	runFormatScenario(t, dir)
	fs, _ := recoverDir(t, dir)
	rec := fs.State().Get(formatSettled)
	if rec == nil {
		t.Fatal("settled campaign missing from the recovered state")
	}
	checkGolden(t, "campaign_record.json", zeroTimes(t, *rec))

	for i, raw := range snapshotRecords(t, "data") {
		var rec store.CampaignRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Errorf("snapshot record %d (%s) re-encodes differently\n got: %s\nwant: %s", i, rec.ID, got, raw)
		}
	}
}

// snapshotRecords reads the campaign records of the one snapshot in the
// committed data directory testdata/format/name: the four campaigns
// created before the format scenario's snapshot.
func snapshotRecords(t *testing.T, name string) []json.RawMessage {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(formatDir, name, "snap-*.json"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("committed snapshots = %v, %v; want exactly one", snaps, err)
	}
	buf, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Campaigns []json.RawMessage `json:"campaigns"`
	}
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Campaigns) != 4 {
		t.Fatalf("committed snapshot holds %d campaigns, want 4", len(file.Campaigns))
	}
	return file.Campaigns
}

// TestFormatPinParentDirRecovers requires each committed data directory
// to recover to the state the current code reaches by running the same
// scenario and recovering its own directory: the same durable records
// and, campaign by campaign, the same registry.
func TestFormatPinParentDirRecovers(t *testing.T) {
	dir := t.TempDir()
	runFormatScenario(t, dir)
	newFS, newReg := recoverDir(t, dir)
	for _, name := range []string{"data", "data-ed-members"} {
		t.Run(name, func(t *testing.T) {
			oldFS, oldReg := openFormatData(t, name)
			recoversLikeFresh(t, oldFS, oldReg, newFS, newReg)
		})
	}
}

// recoversLikeFresh compares a registry recovered from a committed data
// directory with one recovered from a fresh run of the format scenario.
func recoversLikeFresh(t *testing.T, oldFS *store.FileStore, oldReg *registry.Registry, newFS *store.FileStore, newReg *registry.Registry) {
	t.Helper()
	oldRecs, newRecs := oldFS.State().Campaigns(), newFS.State().Campaigns()
	if len(oldRecs) != 5 || len(newRecs) != len(oldRecs) {
		t.Fatalf("recovered %d campaigns from the committed dir and %d from a fresh run, want 5", len(oldRecs), len(newRecs))
	}
	for i := range oldRecs {
		var a, b store.CampaignRecord
		if err := remarshal(json.RawMessage(zeroTimes(t, *oldRecs[i])), &a); err != nil {
			t.Fatal(err)
		}
		if err := remarshal(json.RawMessage(zeroTimes(t, *newRecs[i])), &b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("campaign record %s differs:\n committed: %+v\n fresh:     %+v", oldRecs[i].ID, a, b)
		}
	}

	oldCs, oldTotal := oldReg.List(0, 0)
	newCs, newTotal := newReg.List(0, 0)
	if oldTotal != newTotal {
		t.Fatalf("registries hold %d and %d campaigns", oldTotal, newTotal)
	}
	for i, oc := range oldCs {
		nc := newCs[i]
		if oc.ID() != nc.ID() || oc.Name() != nc.Name() || oc.State() != nc.State() ||
			oc.Submissions() != nc.Submissions() || !reflect.DeepEqual(oc.Tasks(), nc.Tasks()) {
			t.Errorf("campaign %d: committed %s/%q/%s/%d, fresh %s/%q/%s/%d", i,
				oc.ID(), oc.Name(), oc.State(), oc.Submissions(), nc.ID(), nc.Name(), nc.State(), nc.Submissions())
		}
		oRep, oErr := oc.Report()
		nRep, nErr := nc.Report()
		if (oErr == nil) != (nErr == nil) || !reflect.DeepEqual(oRep, nRep) {
			t.Errorf("campaign %s report: committed %+v (%v), fresh %+v (%v)", oc.ID(), oRep, oErr, nRep, nErr)
		}
		oAud, oErr := oc.Audit()
		nAud, nErr := nc.Audit()
		if (oErr == nil) != (nErr == nil) {
			t.Fatalf("campaign %s audit errors: committed %v, fresh %v", oc.ID(), oErr, nErr)
		}
		if oAud == nil {
			continue
		}
		if !reflect.DeepEqual(untimed(oAud), untimed(nAud)) {
			t.Errorf("campaign %s audit differs:\n committed: %+v\n fresh:     %+v", oc.ID(), oAud, nAud)
		}
	}

	// The zero-pair audit decodes to nil pairs from either encoding.
	solo, err := oldReg.Get(formatSolo)
	if err != nil {
		t.Fatal(err)
	}
	if a, err := solo.Audit(); err != nil || a.Pairs != nil || len(a.CopierScores) != 1 {
		t.Fatalf("solo audit = %+v, %v; want nil pairs and one copier score", a, err)
	}
}

// TestFormatPinZeroPairAudit pins the one place the WAL bytes moved when
// the store began logging platform.Audit itself: a zero-pair audit (a
// one-worker campaign's) now encodes "pairs":null where the old store
// record omitted the key. Both forms decode to nil pairs; the
// data-ed-members directory holds the old one.
func TestFormatPinZeroPairAudit(t *testing.T) {
	for _, name := range []string{"data", "data-ed-members"} {
		t.Run(name, func(t *testing.T) {
			payloads := walPayloads(t, filepath.Join(formatDir, name, "wal-000000000000000a.log"))
			var raw []byte
			for _, p := range payloads {
				var ev store.Event
				if err := json.Unmarshal(p, &ev); err != nil {
					t.Fatal(err)
				}
				if ev.Type == store.EventSettled && ev.Campaign == formatSolo {
					raw = p
				}
			}
			if raw == nil {
				t.Fatal("committed WAL tail holds no settled event for the one-worker campaign")
			}
			var ev store.Event
			if err := json.Unmarshal(raw, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Settled.Audit == nil || ev.Settled.Audit.Pairs != nil {
				t.Fatalf("zero-pair audit decoded as %+v, want nil pairs", ev.Settled.Audit)
			}
			got, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			if want := withNullPairs(raw); !bytes.Equal(got, want) {
				t.Errorf("zero-pair settled event re-encodes as\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// withNullPairs is the current encoding of a zero-pair settled event:
// raw itself, or, when the old store record omitted the key, raw with
// "pairs":null added to its audit.
func withNullPairs(raw []byte) []byte {
	if bytes.Contains(raw, []byte(`"pairs":null`)) {
		return raw
	}
	return bytes.Replace(raw, []byte(`"audit":{`), []byte(`"audit":{"pairs":null,`), 1)
}

// edMembers are the two created-event and snapshot-record members that
// ED's ordering counts were logged as before they became constants.
const edMembers = `,"ed_exact_limit":6,"ed_samples":720`

// TestFormatPinEDMembersDropped requires the committed data directory
// written with ED's ordering counts in every settle configuration to
// re-encode to its recorded bytes with exactly those two members taken
// out of each created event and snapshot campaign record, and every
// other event byte for byte, but for the zero-pair audit's older form
// (TestFormatPinZeroPairAudit).
func TestFormatPinEDMembersDropped(t *testing.T) {
	dir := filepath.Join(formatDir, "data-ed-members")
	dropped := func(t *testing.T, what string, raw, got []byte) {
		t.Helper()
		if n := bytes.Count(raw, []byte(edMembers)); n != 1 {
			t.Fatalf("%s holds the ED members %d times, want once: %s", what, n, raw)
		}
		if want := bytes.Replace(raw, []byte(edMembers), nil, 1); !bytes.Equal(got, want) {
			t.Errorf("%s re-encodes as\n got: %s\nwant: %s", what, got, want)
		}
	}

	created := 0
	for _, seg := range []string{"wal-0000000000000001.log", "wal-000000000000000a.log"} {
		for i, raw := range walPayloads(t, filepath.Join(dir, seg)) {
			var ev store.Event
			if err := json.Unmarshal(raw, &ev); err != nil {
				t.Fatalf("%s event %d: %v", seg, i+1, err)
			}
			got, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s event %d (%s %s)", seg, i+1, ev.Type, ev.Campaign)
			switch {
			case ev.Type == store.EventCreated:
				created++
				dropped(t, what, raw, got)
			case ev.Type == store.EventSettled && ev.Campaign == formatSolo:
				if want := withNullPairs(raw); !bytes.Equal(got, want) {
					t.Errorf("%s re-encodes as\n got: %s\nwant: %s", what, got, want)
				}
			case !bytes.Equal(got, raw):
				t.Errorf("%s re-encodes differently\n got: %s\nwant: %s", what, got, raw)
			}
		}
	}
	if created != 5 {
		t.Errorf("committed WAL holds %d created events, want 5", created)
	}

	for i, raw := range snapshotRecords(t, "data-ed-members") {
		var rec store.CampaignRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		dropped(t, fmt.Sprintf("snapshot record %d (%s)", i, rec.ID), raw, got)
	}
}
