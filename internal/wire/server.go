// Package wire exposes the crowdsourcing platform over HTTP with JSON
// bodies, making the "platform in the cloud" of the paper's Fig. 1
// runnable: cmd/platformd serves this API and cmd/workeragent drives the
// client side.
//
// The versioned /v2 protocol is the only surface: one process hosts
// many concurrent campaigns in a registry, each with an observable
// lifecycle (draft → open → closing → settled, plus cancelled), and
// closes settle asynchronously off the request path.
//
//	POST /v2/campaigns                   create from a task list
//	GET  /v2/campaigns                   list, paginated (?offset=&limit=)
//	GET  /v2/campaigns/{id}              lifecycle snapshot
//	GET  /v2/campaigns/{id}/tasks        task list, in publication order
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
	"imc2/internal/truth"
)

// The settled record's wire names are the platform's own types: their
// JSON tags are the HTTP bodies, and the store logs the same bytes.
type (
	// Submission is the JSON envelope a worker posts.
	Submission = platform.Submission
	// Report is the GET /v2/campaigns/{id}/report body.
	Report = platform.Report
	// SuspectPair is one flagged worker pair of an audit.
	SuspectPair = platform.SuspectPair
	// IterationTelemetry is one settle iteration's pass wall times and
	// convergence delta.
	IterationTelemetry = truth.IterationStats
	// AuditReport is the GET /v2/campaigns/{id}/audit body.
	AuditReport = platform.Audit
)

type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	// RequestID echoes the X-Request-Id header so a client-side failure
	// report can be matched to the server's log record for the request.
	RequestID string `json:"request_id,omitempty"`
}

// Server serves a campaign registry over the /v2 protocol. It is safe
// for concurrent use.
type Server struct {
	reg  *registry.Registry
	cfg  platform.Config
	logf func(format string, args ...any)

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

// NewRegistryServer serves an existing registry. The second parameter is
// unused: it named the default campaign of the retired single-campaign
// protocol and is kept only so existing callers compile. cfg is the
// settle configuration applied to campaigns created over /v2. logf may
// be nil to silence logging. Options attach observability: WithObs for
// metrics, WithSlog for structured request logs.
func NewRegistryServer(reg *registry.Registry, _ string, cfg platform.Config, logf func(string, ...any), opts ...ServerOption) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background()) //lint:allow ctxscope server lifecycle root; Shutdown cancels it after draining settles
	s := &Server{reg: reg, cfg: cfg, logf: logf, ctx: ctx, cancel: cancel}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

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
		s.logf("campaign %s: re-queueing settle interrupted by restart", c.ID())
		// Recovered settles get their own root trace (there is no HTTP
		// request to join); nil tracer → nil span, zero cost.
		_, span := s.tracer.StartRoot(s.ctx, "campaign.settle.resume", "")
		s.settleAsync(c, span)
	}
}

// settleAsync settles c on its own goroutine. The settle is bounded by
// the server's lifetime context, not any request's, so it survives a
// client disconnect and Shutdown drains it. span (nil when untraced) is
// carried by the settle's context and ends with its outcome.
func (s *Server) settleAsync(c *registry.Campaign, span *tracing.Span) {
	span.SetKind("settle")
	span.SetAttr("campaign", c.ID())
	sctx := tracing.ContextWithSpan(s.ctx, span)
	s.settles.Add(1)
	go func() {
		defer s.settles.Done()
		rep, err := c.Settle(sctx)
		span.SetError(err)
		span.End()
		if err != nil {
			s.logf("campaign %s settle failed: %v", c.ID(), err)
			return
		}
		s.logf("campaign %s settled: winners=%d social_cost=%.3f", c.ID(), len(rep.Winners), rep.SocialCost)
	}()
}

// Handler returns the HTTP routing of the /v2 protocol.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/campaigns", s.handleCreateCampaign)
	mux.HandleFunc("GET /v2/campaigns", s.handleListCampaigns)
	mux.HandleFunc("GET /v2/campaigns/{id}", s.handleGetCampaign)
	mux.HandleFunc("GET /v2/campaigns/{id}/tasks", s.handleCampaignTasks)
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
	mux.HandleFunc("GET /v2/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s.instrument(mux)
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
