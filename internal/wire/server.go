// Package wire exposes the crowdsourcing platform over HTTP with JSON
// bodies, making the "platform in the cloud" of the paper's Fig. 1
// runnable: cmd/platformd serves this API and cmd/workeragent drives the
// client side.
//
// The versioned /v2 protocol is the primary surface: one process hosts
// many concurrent campaigns in a registry, each with an observable
// lifecycle (draft → open → closing → settled, plus cancelled), and
// closes settle asynchronously off the request path.
//
//	POST /v2/campaigns                   create (task list or generator spec)
//	GET  /v2/campaigns                   list, paginated (?offset=&limit=)
//	GET  /v2/campaigns/{id}              lifecycle snapshot
//	POST /v2/campaigns/{id}/open         publicize a draft
//	POST /v2/campaigns/{id}/cancel       abandon a draft/open campaign
//	POST /v2/campaigns/{id}/submissions  sealed envelope (single or batch)
//	POST /v2/campaigns/{id}/close        begin async settle (poll the snapshot)
//	GET  /v2/campaigns/{id}/report       settled report
//	GET  /v2/campaigns/{id}/audit        copier audit of a settled campaign
//	GET  /v2/campaigns/{id}/estimate     provisional truth estimate, computed per request
//	GET  /v2/stats                       unified platform stats (scheduler, store, registry)
//	GET  /v2/traces                      retained traces (?campaign=&min_duration_ms=&errors=)
//	GET  /v2/traces/{id}                 one trace's full span tree
//	GET  /v2/healthz                     liveness
//
// When the registry carries a settle scheduler (internal/sched), closes
// are admission-controlled: at most MaxConcurrentSettles campaigns run
// their stages at once, the rest queue FIFO, and the campaign snapshot
// reports settle_admission ("queued"/"running") plus the 1-based
// settle_queue_position while waiting. Results are bit-identical with
// and without the scheduler — it bounds resources, never outcomes.
// With a queue depth bound configured, an overflowing close is rejected
// with 503 and a Retry-After header instead of queueing unboundedly;
// the typed client retries automatically within its context budget.
//
// When the registry carries a durable store (internal/store), every
// campaign mutation is logged before it is acknowledged, campaign
// snapshots carry persisted/recovered_at, and GET /v2/stats serves the
// WAL and snapshot counters in its store section. See API.md's "Durability" section.
//
// The original single-campaign /v1 endpoints remain as a compatibility
// shim over a designated default campaign:
//
//	GET  /v1/tasks        → published task list
//	POST /v1/submissions  → sealed bid + data envelope
//	POST /v1/close        → close the auction, run both stages, settle
//	GET  /v1/report       → settled report (409 until closed)
//	GET  /v1/healthz      → liveness
//
// Every error response carries a machine-readable code from
// internal/imcerr alongside the human-readable message; the code → HTTP
// status mapping lives in exactly one place (statusOf).
package wire

import (
	"context"
	"encoding/json"
	"log"
	"log/slog"
	"net/http"
	"sync"

	"imc2/internal/imcerr"
	"imc2/internal/platform"
	"imc2/internal/registry"
	"imc2/internal/tracing"
)

// Submission is the JSON envelope a worker posts.
type Submission struct {
	Worker  string            `json:"worker"`
	Price   float64           `json:"price"`
	Answers map[string]string `json:"answers"`
}

// Report mirrors platform.Report for the wire.
type Report struct {
	Truth           map[string]string  `json:"truth"`
	Winners         []string           `json:"winners"`
	Payments        map[string]float64 `json:"payments"`
	WorkerAccuracy  map[string]float64 `json:"worker_accuracy"`
	SocialCost      float64            `json:"social_cost"`
	TotalPayment    float64            `json:"total_payment"`
	PlatformUtility float64            `json:"platform_utility"`
	TruthIterations int                `json:"truth_iterations"`
	Converged       bool               `json:"converged"`
}

type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	// RequestID echoes the X-Request-Id header so a client-side failure
	// report can be matched to the server's log record for the request.
	RequestID string `json:"request_id,omitempty"`
}

// Server serves a campaign registry: the full /v2 protocol plus the /v1
// single-campaign shim over a default campaign. It is safe for
// concurrent use.
type Server struct {
	reg       *registry.Registry
	cfg       platform.Config
	defaultID string
	logf      func(format string, args ...any)

	// m holds the HTTP layer's obs instruments (WithObs); slogger, when
	// non-nil, receives one structured record per request (WithSlog);
	// tracer, when non-nil, opens one root span per request
	// (WithTracing). All nil: Handler returns the bare router.
	m       *wireMetrics
	slogger *slog.Logger
	tracer  *tracing.Tracer

	// ctx bounds asynchronous settles; Shutdown cancels it and waits.
	ctx     context.Context
	cancel  context.CancelFunc
	settles sync.WaitGroup
}

// NewServer wraps a single pre-built campaign — the /v1 world. The
// campaign is adopted into a fresh registry as the default campaign, so
// the /v2 protocol is available too. logf may be nil to silence logging.
func NewServer(p *platform.Platform, cfg platform.Config, logf func(string, ...any), opts ...ServerOption) *Server {
	reg := registry.New()
	// Adoption into a fresh in-memory registry cannot fail: there is no
	// store to refuse the platform and no storeErr to surface.
	c, err := reg.Adopt("default", p, cfg)
	if err != nil {
		panic("wire: adopting into a fresh in-memory registry failed: " + err.Error())
	}
	return NewRegistryServer(reg, c.ID(), cfg, logf, opts...)
}

// NewRegistryServer serves an existing registry. defaultID designates the
// campaign behind the /v1 shim (empty: /v1 campaign endpoints answer 404).
// cfg is the settle configuration applied to campaigns created over /v2.
// logf may be nil to silence logging. Options attach observability:
// WithObs for metrics, WithSlog for structured request logs.
func NewRegistryServer(reg *registry.Registry, defaultID string, cfg platform.Config, logf func(string, ...any), opts ...ServerOption) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background()) //lint:allow ctxscope server lifecycle root; Shutdown cancels it after draining settles
	s := &Server{reg: reg, cfg: cfg, defaultID: defaultID, logf: logf, ctx: ctx, cancel: cancel}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Registry exposes the campaign store the server serves.
func (s *Server) Registry() *registry.Registry { return s.reg }

// Shutdown drains in-flight asynchronous settles and waits for them to
// finish, bounded by ctx. Draining comes first — cancelling before the
// wait (the old behavior) could abort a settle between computing its
// report and recording its final state, so a durable registry could
// lose a settle the client was about to observe. Only when ctx expires
// are the stragglers cancelled (they stop at the next stage boundary)
// and awaited, so no settle goroutine ever outlives Shutdown — the
// caller may close the campaign store immediately after it returns.
func (s *Server) Shutdown(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.settles.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancel()
		return nil
	case <-ctx.Done():
		// Out of patience: abort the remaining settles and wait for
		// them to observe the cancellation. They check ctx at stage
		// boundaries, so this second wait terminates.
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// ResumeSettles re-queues recovered campaigns whose settle the previous
// process did not survive (registry.Restore's pending list): each runs
// through the identical asynchronous path a live close uses — same
// admission queue, same server-lifetime bound, same settle_error
// surfacing — so a restart finishes exactly the work a crash
// interrupted.
func (s *Server) ResumeSettles(pending []*registry.Campaign) {
	for _, c := range pending {
		c := c
		s.logf("campaign %s: re-queueing settle interrupted by restart", c.ID())
		// Recovered settles get their own root trace (there is no HTTP
		// request to join); nil tracer → nil span, zero cost.
		sctx, span := s.tracer.StartRoot(s.ctx, "campaign.settle.resume", "")
		span.SetKind("settle")
		span.SetAttr("campaign", c.ID())
		s.settles.Add(1)
		go func() {
			defer s.settles.Done()
			rep, err := c.Settle(sctx)
			span.SetError(err)
			span.End()
			if err != nil {
				s.logf("campaign %s recovered settle failed: %v", c.ID(), err)
				return
			}
			s.logf("campaign %s settled after recovery: winners=%d social_cost=%.3f", c.ID(), len(rep.Winners), rep.SocialCost)
		}()
	}
}

// Handler returns the HTTP routing for both protocol versions.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	healthz := func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}

	// v1: single-campaign shim over the default campaign.
	mux.HandleFunc("GET /v1/tasks", s.handleTasks)
	mux.HandleFunc("POST /v1/submissions", s.handleSubmit)
	mux.HandleFunc("POST /v1/close", s.handleClose)
	mux.HandleFunc("GET /v1/report", s.handleReport)
	mux.HandleFunc("GET /v1/audit", s.handleAudit)
	mux.HandleFunc("GET /v1/healthz", healthz)

	// v2: the campaign registry.
	mux.HandleFunc("POST /v2/campaigns", s.handleCreateCampaign)
	mux.HandleFunc("GET /v2/campaigns", s.handleListCampaigns)
	mux.HandleFunc("GET /v2/campaigns/{id}", s.handleGetCampaign)
	mux.HandleFunc("POST /v2/campaigns/{id}/open", s.handleOpenCampaign)
	mux.HandleFunc("POST /v2/campaigns/{id}/cancel", s.handleCancelCampaign)
	mux.HandleFunc("POST /v2/campaigns/{id}/submissions", s.handleSubmissions)
	mux.HandleFunc("POST /v2/campaigns/{id}/close", s.handleCloseCampaign)
	mux.HandleFunc("GET /v2/campaigns/{id}/report", s.handleCampaignReport)
	mux.HandleFunc("GET /v2/campaigns/{id}/audit", s.handleCampaignAudit)
	mux.HandleFunc("GET /v2/campaigns/{id}/estimate", s.handleCampaignEstimate)
	mux.HandleFunc("GET /v2/stats", s.handleStats)
	mux.HandleFunc("GET /v2/traces", s.handleListTraces)
	mux.HandleFunc("GET /v2/traces/{id}", s.handleGetTrace)
	mux.HandleFunc("GET /v2/healthz", healthz)
	return s.instrument(mux)
}

// defaultCampaign resolves the campaign behind the /v1 shim.
func (s *Server) defaultCampaign() (*registry.Campaign, error) {
	if s.defaultID == "" {
		return nil, imcerr.New(imcerr.CodeNotFound, "wire: no default campaign configured (use /v2)")
	}
	return s.reg.Get(s.defaultID)
}

func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	c, err := s.defaultCampaign()
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Tasks())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	c, err := s.defaultCampaign()
	if err != nil {
		s.writeError(w, err)
		return
	}
	var sub Submission
	if err := json.NewDecoder(r.Body).Decode(&sub); err != nil {
		s.writeError(w, imcerr.Wrapf(imcerr.CodeInvalid, err, "malformed submission"))
		return
	}
	if err := c.Submit(toPlatformSubmission(sub)); err != nil {
		s.writeError(w, err)
		return
	}
	s.logf("submission accepted: worker=%s tasks=%d", sub.Worker, len(sub.Answers))
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "accepted"})
}

// handleClose settles the default campaign synchronously — v1 semantics —
// but without any server-wide lock: the settle runs off-lock inside the
// campaign, so /v1/tasks, /v1/healthz, and every /v2 campaign stay
// responsive while the two stages execute. The settle is bounded by the
// server's lifetime, not the request's, so a client disconnect mid-settle
// still leaves the report computed and cached (the original v1 contract).
func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	c, err := s.defaultCampaign()
	if err != nil {
		s.writeError(w, err)
		return
	}
	// The settle runs under the server's lifetime context but inside
	// the request's trace: re-home the settle span onto s.ctx.
	span := tracing.SpanFromContext(r.Context()).Child("campaign.settle")
	span.SetKind("settle")
	span.SetAttr("campaign", c.ID())
	rep, err := c.Settle(tracing.ContextWithSpan(s.ctx, span))
	span.SetError(err)
	span.End()
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.logf("campaign settled: winners=%d social_cost=%.3f", len(rep.Winners), rep.SocialCost)
	writeJSON(w, http.StatusOK, toWireReport(rep))
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	c, err := s.defaultCampaign()
	if err != nil {
		s.writeError(w, err)
		return
	}
	rep, err := c.Report()
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toWireReport(rep))
}

// SuspectPair mirrors platform.SuspectPair for the wire.
type SuspectPair struct {
	WorkerA string  `json:"worker_a"`
	WorkerB string  `json:"worker_b"`
	AtoB    float64 `json:"a_to_b"`
	BtoA    float64 `json:"b_to_a"`
}

// IterationTelemetry mirrors truth.IterationStats for the wire: one
// settle iteration's pass wall times and convergence delta.
type IterationTelemetry struct {
	Iteration           int     `json:"iteration"`
	DependenceSeconds   float64 `json:"dependence_seconds,omitempty"`
	IndependenceSeconds float64 `json:"independence_seconds,omitempty"`
	EstimateSeconds     float64 `json:"estimate_seconds,omitempty"`
	Changed             int     `json:"changed"`
	Converged           bool    `json:"converged,omitempty"`
}

// AuditReport is the copier-audit view of a settled campaign.
type AuditReport struct {
	Pairs        []SuspectPair      `json:"pairs"`
	CopierScores map[string]float64 `json:"copier_scores"`
	// Convergence is the settle's per-iteration telemetry, in order.
	Convergence []IterationTelemetry `json:"convergence,omitempty"`
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	c, err := s.defaultCampaign()
	if err != nil {
		s.writeError(w, err)
		return
	}
	audit, err := c.Audit()
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toWireAudit(audit))
}

func toPlatformSubmission(sub Submission) platform.Submission {
	return platform.Submission{Worker: sub.Worker, Price: sub.Price, Answers: sub.Answers}
}

func toWireReport(rep *platform.Report) *Report {
	return &Report{
		Truth:           rep.Truth,
		Winners:         rep.Winners,
		Payments:        rep.Payments,
		WorkerAccuracy:  rep.WorkerAccuracy,
		SocialCost:      rep.SocialCost,
		TotalPayment:    rep.TotalPayment,
		PlatformUtility: rep.PlatformUtility,
		TruthIterations: rep.TruthIterations,
		Converged:       rep.Converged,
	}
}

func toWireAudit(audit *platform.Audit) *AuditReport {
	out := &AuditReport{CopierScores: audit.CopierScores}
	for _, pr := range audit.Pairs {
		out.Pairs = append(out.Pairs, SuspectPair{
			WorkerA: pr.WorkerA, WorkerB: pr.WorkerB, AtoB: pr.AtoB, BtoA: pr.BtoA,
		})
	}
	for _, it := range audit.Convergence {
		out.Convergence = append(out.Convergence, IterationTelemetry{
			Iteration:           it.Iteration,
			DependenceSeconds:   it.DependenceSeconds,
			IndependenceSeconds: it.IndependenceSeconds,
			EstimateSeconds:     it.EstimateSeconds,
			Changed:             it.Changed,
			Converged:           it.Converged,
		})
	}
	return out
}

// statusOf is the single place a machine-readable error code maps to an
// HTTP status.
func statusOf(code imcerr.Code) int {
	switch code {
	case imcerr.CodeInvalid:
		return http.StatusBadRequest
	case imcerr.CodeNotFound:
		return http.StatusNotFound
	case imcerr.CodeConflict:
		return http.StatusConflict
	case imcerr.CodeInfeasible, imcerr.CodeMonopolist:
		return http.StatusUnprocessableEntity
	case imcerr.CodeCancelled, imcerr.CodeUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// retryAfterSeconds is the backoff hint attached to backpressure
// rejections. A settle takes seconds at realistic scale, so one second
// spreads retries without making well-behaved clients wait long.
const retryAfterSeconds = 1

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		log.Printf("wire: encoding response: %v", err)
	}
}
