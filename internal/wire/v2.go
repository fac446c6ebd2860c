package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"imc2/internal/imcerr"
	"imc2/internal/model"
	"imc2/internal/platform"
	"imc2/internal/registry"
	"imc2/internal/sched"
	"imc2/internal/store"
	"imc2/internal/tracing"
)

// Task is the wire form of a published task.
type Task = model.Task

// CampaignInfo is a campaign's lifecycle snapshot: what pollers of an
// asynchronous close observe.
type CampaignInfo struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	State       string `json:"state"`
	Tasks       int    `json:"tasks"`
	Submissions int    `json:"submissions"`
	// SettleError and SettleErrorCode carry the failure of the last
	// settle attempt, if any (the campaign is back in state "open").
	SettleError     string `json:"settle_error,omitempty"`
	SettleErrorCode string `json:"settle_error_code,omitempty"`
	// SettleAdmission refines state "closing" on a registry with a
	// settle scheduler: "queued" while the settle waits for an admission
	// slot, "running" while its stages execute. Empty otherwise.
	SettleAdmission string `json:"settle_admission,omitempty"`
	// SettleQueuePosition is the 1-based FIFO position while
	// SettleAdmission is "queued" (0 otherwise).
	SettleQueuePosition int `json:"settle_queue_position,omitempty"`
	// Persisted reports that the campaign's mutations are durable: every
	// accepted submission and lifecycle transition was logged to the
	// registry's store before it was acknowledged.
	Persisted bool `json:"persisted,omitempty"`
	// RecoveredAt (RFC 3339) is when this campaign was rebuilt from the
	// durable store after a restart; empty for campaigns created by the
	// current process.
	RecoveredAt string `json:"recovered_at,omitempty"`
}

// SchedulerStats is the wire view of the registry-wide settle scheduler
// (the scheduler section of GET /v2/stats). With no scheduler
// configured only Enabled=false is returned: every settle then runs
// immediately with its own pool.
type SchedulerStats struct {
	Enabled bool `json:"enabled"`
	// Workers is the shared truth-discovery pool size — the bound on
	// settle goroutines across all concurrent campaigns.
	Workers int `json:"workers,omitempty"`
	// MaxConcurrentSettles is the admission bound (0 = unlimited).
	MaxConcurrentSettles int `json:"max_concurrent_settles,omitempty"`
	// MaxQueuedSettles is the admission queue depth bound (0 =
	// unbounded); an overflowing close is rejected with 503.
	MaxQueuedSettles  int `json:"max_queued_settles,omitempty"`
	ActiveSettles     int `json:"active_settles"`
	QueuedSettles     int `json:"queued_settles"`
	PeakActiveSettles int `json:"peak_active_settles"`
	PeakQueuedSettles int `json:"peak_queued_settles"`
	// TotalAdmitted/TotalCompleted/TotalRejected count settles granted a
	// slot, finished, and abandoned while queued since the server
	// started. TotalOverflowed counts settles rejected at the door by
	// the queue depth bound.
	TotalAdmitted   int64 `json:"total_admitted"`
	TotalCompleted  int64 `json:"total_completed"`
	TotalRejected   int64 `json:"total_rejected"`
	TotalOverflowed int64 `json:"total_overflowed"`
}

// StoreStats is the wire view of the registry's durable campaign store
// (the store section of GET /v2/stats). With no store configured only
// Enabled=false is returned: campaigns then live in process memory
// alone and do not survive a restart.
type StoreStats struct {
	Enabled bool `json:"enabled"`
	// Dir is the store's data directory.
	Dir string `json:"dir,omitempty"`
	// Fsync is the WAL fsync policy ("settle", "always", "never").
	Fsync string `json:"fsync,omitempty"`
	// SnapshotEvery is the automatic snapshot interval in events (0:
	// automatic snapshots disabled).
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// LastSeq is the sequence number of the newest durable event.
	LastSeq uint64 `json:"last_seq"`
	// AppendedEvents counts events logged by this process;
	// RecoveredEvents counts events replayed from disk at startup.
	AppendedEvents  uint64 `json:"appended_events"`
	RecoveredEvents uint64 `json:"recovered_events"`
	// RecoveredCampaigns counts campaigns rebuilt at startup, and
	// RecoveredAt (RFC 3339) stamps when; both empty on a fresh store.
	RecoveredCampaigns int    `json:"recovered_campaigns,omitempty"`
	RecoveredAt        string `json:"recovered_at,omitempty"`
	// SnapshotsWritten counts snapshots folded by this process;
	// LastSnapshotSeq is the last event covered by the newest snapshot.
	SnapshotsWritten uint64 `json:"snapshots_written"`
	LastSnapshotSeq  uint64 `json:"last_snapshot_seq"`
	// WALBytes is the size of the live WAL tail (events newer than the
	// last snapshot).
	WALBytes int64 `json:"wal_bytes"`
	// Campaigns counts campaign records in the durable state.
	Campaigns int `json:"campaigns"`
	// Failed carries the error that latched the store into a failed
	// state (appends are refused); empty while healthy.
	Failed string `json:"failed,omitempty"`
	// SnapshotError is the most recent automatic-snapshot failure.
	// Non-fatal: appends are still durable; only restart-time replay
	// bounding is degraded until a snapshot succeeds.
	SnapshotError string `json:"snapshot_error,omitempty"`
}

// EstimateInfo is the wire view of a live campaign's provisional truth
// estimate (GET /v2/campaigns/{id}/estimate): what the settle would
// elect if the campaign closed now, computed by one cold truth pass
// when it is requested. A snapshot with staleness 0 is exactly what the
// final report's truth will say if no submission arrives before the
// close.
type EstimateInfo struct {
	CampaignID string `json:"campaign_id"`
	// Truth maps task ID → provisionally estimated value. Empty while
	// the campaign has no submissions or is no longer open.
	Truth map[string]string `json:"truth,omitempty"`
	// WorkerAccuracy maps worker ID → current estimated mean accuracy.
	WorkerAccuracy map[string]float64 `json:"worker_accuracy,omitempty"`
	// Iterations counts the truth-discovery iterations behind this
	// view; Converged reports whether that run stopped on a revisit of
	// a recent truth vector rather than at the iteration cap.
	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`
	// CoveredSubmissions is how many accepted submissions the estimate
	// reflects; Staleness how many arrived after it was assembled.
	CoveredSubmissions int `json:"covered_submissions"`
	Staleness          int `json:"staleness"`
	// Method is the truth-discovery algorithm behind the estimate.
	Method string `json:"method"`
}

// CreateCampaignRequest declares a new campaign by its task list, which
// must not be empty.
type CreateCampaignRequest struct {
	Name  string `json:"name,omitempty"`
	Tasks []Task `json:"tasks,omitempty"`
	// Draft creates the campaign unpublicized; open it with
	// POST /v2/campaigns/{id}/open.
	Draft bool `json:"draft,omitempty"`
}

// CampaignPage is one page of the campaign listing.
type CampaignPage struct {
	Campaigns []CampaignInfo `json:"campaigns"`
	Total     int            `json:"total"`
	Offset    int            `json:"offset"`
	Limit     int            `json:"limit"`
}

// SubmitResult reports how many submissions an envelope registered.
type SubmitResult struct {
	Accepted int `json:"accepted"`
}

// Campaign-list pagination bounds. Registry.List treats limit <= 0 as
// "the rest", so the handler must never forward an unclamped client
// value: an unauthenticated ?limit=0 (or a huge limit) would force a
// full-registry copy and serialization per request. (List itself is
// O(page) — the registry keeps a creation-ordered index — so with the
// clamp no request shape scales with registry size.)
const (
	defaultPageLimit = 50
	maxPageLimit     = 500
)

// clampPageLimit maps a client-supplied page size onto [1, maxPageLimit]:
// absent or non-positive values fall back to the default page size, and
// oversized values saturate at the server-side maximum.
func clampPageLimit(limit int) int {
	switch {
	case limit <= 0:
		return defaultPageLimit
	case limit > maxPageLimit:
		return maxPageLimit
	default:
		return limit
	}
}

func (s *Server) campaignInfo(c *registry.Campaign) CampaignInfo {
	info := CampaignInfo{
		ID:          c.ID(),
		Name:        c.Name(),
		State:       c.State().String(),
		Tasks:       c.NumTasks(),
		Submissions: c.Submissions(),
	}
	if err := c.SettleErr(); err != nil {
		info.SettleError = err.Error()
		info.SettleErrorCode = string(imcerr.CodeOf(err))
	}
	if st, pos := c.SettleAdmission(); st != sched.AdmissionNone {
		info.SettleAdmission = st.String()
		info.SettleQueuePosition = pos
	}
	info.Persisted = c.Persisted()
	if t := c.RecoveredAt(); !t.IsZero() {
		info.RecoveredAt = t.UTC().Format(time.RFC3339)
	}
	return info
}

// schedulerStats snapshots the registry-wide settle scheduler; a
// registry without one yields Enabled=false.
func (s *Server) schedulerStats() SchedulerStats {
	sc := s.reg.Scheduler()
	if sc == nil {
		return SchedulerStats{}
	}
	st := sc.Stats()
	return SchedulerStats{
		Enabled:              true,
		Workers:              st.Workers,
		MaxConcurrentSettles: st.MaxConcurrentSettles,
		MaxQueuedSettles:     st.MaxQueuedSettles,
		ActiveSettles:        st.ActiveSettles,
		QueuedSettles:        st.QueuedSettles,
		PeakActiveSettles:    st.PeakActiveSettles,
		PeakQueuedSettles:    st.PeakQueuedSettles,
		TotalAdmitted:        st.TotalAdmitted,
		TotalCompleted:       st.TotalCompleted,
		TotalRejected:        st.TotalRejected,
		TotalOverflowed:      st.TotalOverflowed,
	}
}

// storeStats snapshots the durable campaign store; a registry without
// one (or with a store that exposes no counters) yields Enabled=false.
func (s *Server) storeStats() StoreStats {
	type statser interface{ Stats() store.Stats }
	fs, ok := s.reg.Store().(statser)
	if !ok {
		return StoreStats{}
	}
	st := fs.Stats()
	out := StoreStats{
		Enabled:            true,
		Dir:                st.Dir,
		Fsync:              st.Fsync.String(),
		SnapshotEvery:      st.SnapshotEvery,
		LastSeq:            st.LastSeq,
		AppendedEvents:     st.AppendedEvents,
		RecoveredEvents:    st.RecoveredEvents,
		RecoveredCampaigns: st.RecoveredCampaigns,
		SnapshotsWritten:   st.SnapshotsWritten,
		LastSnapshotSeq:    st.LastSnapshotSeq,
		WALBytes:           st.WALBytes,
		Campaigns:          st.Campaigns,
		Failed:             st.Failed,
		SnapshotError:      st.SnapshotError,
	}
	if !st.RecoveredAt.IsZero() {
		out.RecoveredAt = st.RecoveredAt.UTC().Format(time.RFC3339)
	}
	return out
}

// RegistryStats is the wire view of the campaign registry itself: how
// many campaigns it hosts, by lifecycle state.
type RegistryStats struct {
	Campaigns int            `json:"campaigns"`
	States    map[string]int `json:"states"`
}

func (s *Server) registryStats() RegistryStats {
	campaigns, total := s.reg.List(0, 0)
	out := RegistryStats{Campaigns: total, States: make(map[string]int)}
	for _, c := range campaigns {
		out.States[c.State().String()]++
	}
	return out
}

// PlatformStats is the unified GET /v2/stats body: one poll covers the
// scheduler, the store, and the registry.
type PlatformStats struct {
	Scheduler SchedulerStats `json:"scheduler"`
	Store     StoreStats     `json:"store"`
	Registry  RegistryStats  `json:"registry"`
}

// handleStats serves the unified platform snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, PlatformStats{
		Scheduler: s.schedulerStats(),
		Store:     s.storeStats(),
		Registry:  s.registryStats(),
	})
}

// campaign resolves the {id} path parameter, stamping the campaign ID
// onto the request's span (when tracing) so traces filter by campaign.
func (s *Server) campaign(r *http.Request) (*registry.Campaign, error) {
	c, err := s.reg.Get(r.PathValue("id"))
	if err == nil {
		tracing.SpanFromContext(r.Context()).SetAttr("campaign", c.ID())
	}
	return c, err
}

// decodeCreateCampaignRequest parses and structurally validates a
// POST /v2/campaigns body: it must be one well-formed JSON value (white
// space aside, nothing may follow it) carrying a non-empty task list.
// Factored out of the handler so FuzzDecodeV2Request exercises the
// identical path.
func decodeCreateCampaignRequest(body []byte) (CreateCampaignRequest, error) {
	var req CreateCampaignRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, imcerr.Wrapf(imcerr.CodeInvalid, err, "malformed campaign request")
	}
	if len(req.Tasks) == 0 {
		return req, imcerr.New(imcerr.CodeInvalid, "campaign request needs tasks")
	}
	return req, nil
}

// maxBody is the largest request body the server reads: a larger one is
// refused as invalid, by its declared Content-Length before any byte is
// read, or else after at most maxBody+1 bytes are buffered.
const maxBody = 64 << 20

// bodyChunk is the size of the pieces a body of undeclared length is
// read in.
const bodyChunk = 64 << 10

// readBody reads a request body whole, sized by its Content-Length when
// the client sent one. A body of undeclared length is read in chunks of
// bodyChunk bytes and copied once into a slice of its exact size, so it
// allocates about twice its length; a buffer grown by doubling would
// allocate up to four times it.
func readBody(r *http.Request) ([]byte, error) {
	if r.ContentLength > maxBody {
		return nil, bodyTooLarge()
	}
	if r.ContentLength < 0 {
		return readUndeclared(r.Body)
	}
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, maxBody+1)); err != nil {
		return nil, imcerr.Wrapf(imcerr.CodeInvalid, err, "reading request body")
	}
	if buf.Len() > maxBody {
		return nil, bodyTooLarge()
	}
	return buf.Bytes(), nil
}

// readUndeclared reads a body of undeclared length, refusing it once it
// passes maxBody.
func readUndeclared(body io.Reader) ([]byte, error) {
	lr := io.LimitReader(body, maxBody+1)
	var chunks [][]byte
	size := 0
	for {
		c := make([]byte, bodyChunk)
		n, err := io.ReadFull(lr, c)
		chunks, size = append(chunks, c[:n]), size+n
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return nil, imcerr.Wrapf(imcerr.CodeInvalid, err, "reading request body")
		}
	}
	if size > maxBody {
		return nil, bodyTooLarge()
	}
	return bytes.Join(chunks, nil), nil
}

func bodyTooLarge() error {
	return imcerr.New(imcerr.CodeInvalid, "request body exceeds %d bytes", maxBody)
}

func (s *Server) handleCreateCampaign(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	req, err := decodeCreateCampaignRequest(body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	c, err := s.reg.Create(req.Name, req.Tasks, s.cfg, req.Draft)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.logf("campaign created: id=%s name=%q tasks=%d state=%s", c.ID(), c.Name(), len(req.Tasks), c.State())
	writeJSON(w, http.StatusCreated, s.campaignInfo(c))
}

func (s *Server) handleListCampaigns(w http.ResponseWriter, r *http.Request) {
	offset, err := queryInt(r, "offset", 0)
	if err != nil {
		s.writeError(w, err)
		return
	}
	limit, err := queryInt(r, "limit", defaultPageLimit)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Echo the page actually served: Registry.List reads a negative
	// offset as 0, just as the limit is clamped before it is echoed.
	offset = max(offset, 0)
	limit = clampPageLimit(limit)
	cs, total := s.reg.List(offset, limit)
	page := CampaignPage{Campaigns: make([]CampaignInfo, 0, len(cs)), Total: total, Offset: offset, Limit: limit}
	for _, c := range cs {
		page.Campaigns = append(page.Campaigns, s.campaignInfo(c))
	}
	writeJSON(w, http.StatusOK, page)
}

func (s *Server) handleGetCampaign(w http.ResponseWriter, r *http.Request) {
	c, err := s.campaign(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.campaignInfo(c))
}

// handleCampaignTasks serves the campaign's task list in publication
// order. It is kept out of the lifecycle snapshot, which carries only
// the count, so polling the snapshot stays cheap.
func (s *Server) handleCampaignTasks(w http.ResponseWriter, r *http.Request) {
	c, err := s.campaign(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Tasks())
}

func (s *Server) handleOpenCampaign(w http.ResponseWriter, r *http.Request) {
	c, err := s.campaign(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if err := c.Open(); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.campaignInfo(c))
}

func (s *Server) handleCancelCampaign(w http.ResponseWriter, r *http.Request) {
	c, err := s.campaign(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if err := c.Cancel(); err != nil {
		s.writeError(w, err)
		return
	}
	s.logf("campaign cancelled: id=%s", c.ID())
	writeJSON(w, http.StatusOK, s.campaignInfo(c))
}

// decodeSubmitRequest parses a POST /v2/campaigns/{id}/submissions body
// into index-form rows, accepting both envelope shapes: a single
// submission object, or a batch under "submissions" (see
// platform.DecodeSubmissions). Factored out of the handler so
// FuzzDecodeV2Request exercises the identical path.
func decodeSubmitRequest(body []byte) (platform.Rows, error) {
	rows, err := platform.DecodeSubmissions(body)
	if err != nil {
		return nil, imcerr.Wrapf(imcerr.CodeInvalid, err, "malformed submission")
	}
	return rows, nil
}

func (s *Server) handleSubmissions(w http.ResponseWriter, r *http.Request) {
	c, err := s.campaign(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	body, err := readBody(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	rows, err := decodeSubmitRequest(body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	n, err := c.SubmitRows(rows)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.logf("submissions accepted: campaign=%s count=%d", c.ID(), n)
	writeJSON(w, http.StatusAccepted, SubmitResult{Accepted: n})
}

// handleCloseCampaign begins an asynchronous settle: the campaign moves
// to "closing" and the caller polls GET /v2/campaigns/{id} until it
// reads "settled" (fetch the report) or "open" again with a settle_error.
func (s *Server) handleCloseCampaign(w http.ResponseWriter, r *http.Request) {
	c, err := s.campaign(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	switch st := c.State(); st {
	case platform.StateSettled:
		writeJSON(w, http.StatusOK, s.campaignInfo(c))
		return
	case platform.StateClosing:
		writeJSON(w, http.StatusAccepted, s.campaignInfo(c))
		return
	case platform.StateDraft, platform.StateCancelled:
		s.writeError(w, imcerr.New(imcerr.CodeConflict, "cannot close a %s campaign", st))
		return
	case platform.StateOpen:
		// The only state a close can actually act on: fall through to
		// start the settle below.
	}
	if c.Submissions() == 0 {
		s.writeError(w, imcerr.New(imcerr.CodeInfeasible, "platform: no submissions"))
		return
	}
	// Backpressure: when the settle admission queue is at its depth
	// bound, reject the close synchronously with 503 + Retry-After
	// instead of accepting work the scheduler will refuse. The check is
	// advisory (closes racing past it are still rejected inside the
	// scheduler's Acquire and surface via settle_error); its job is to
	// give well-behaved clients a retryable answer before the campaign
	// flips to closing.
	if sc := s.reg.Scheduler(); sc != nil && sc.QueueFull() {
		sc.NoteOverflow()
		s.writeError(w, imcerr.New(imcerr.CodeUnavailable,
			"settle queue is full (%d queued); retry later", sc.Stats().QueuedSettles))
		return
	}
	// Forget any previous attempt's failure before the 202 goes out, so
	// a poller racing the settle goroutine cannot mistake it for this
	// attempt's outcome.
	c.ClearSettleErr()
	// The settle outlives this request (202 now, work later) but stays
	// inside its trace: the settle span is a child of the request span.
	s.settleAsync(c, tracing.SpanFromContext(r.Context()).Child("campaign.settle"))
	info := s.campaignInfo(c)
	info.State = platform.StateClosing.String()
	writeJSON(w, http.StatusAccepted, info)
}

func (s *Server) handleCampaignReport(w http.ResponseWriter, r *http.Request) {
	c, err := s.campaign(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	rep, err := c.Report()
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleCampaignEstimate serves the campaign's provisional estimate,
// computed on request. An open campaign with submissions costs one cold
// truth pass and takes a settle slot, so a full admission queue answers
// 503 + Retry-After; any other existing campaign answers an empty
// estimate whose staleness is the submission count.
func (s *Server) handleCampaignEstimate(w http.ResponseWriter, r *http.Request) {
	c, err := s.campaign(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	snap, err := c.Estimate(r.Context())
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, EstimateInfo{
		CampaignID:         c.ID(),
		Truth:              snap.Truth,
		WorkerAccuracy:     snap.WorkerAccuracy,
		Iterations:         snap.Iterations,
		Converged:          snap.Converged,
		CoveredSubmissions: snap.Covered,
		Staleness:          snap.Staleness,
		Method:             snap.Method.String(),
	})
}

func (s *Server) handleCampaignAudit(w http.ResponseWriter, r *http.Request) {
	c, err := s.campaign(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	audit, err := c.Audit()
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, audit)
}

// queryInt parses an optional integer query parameter.
func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, imcerr.New(imcerr.CodeInvalid, "query parameter %q: %q is not an integer", name, v)
	}
	return n, nil
}
