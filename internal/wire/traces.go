package wire

import (
	"context"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"imc2/internal/imcerr"
	"imc2/internal/tracing"
)

// TraceSummary is the wire form of one retained trace's listing row.
type TraceSummary = tracing.TraceSummary

// TraceSnapshot is the wire form of one trace's full span tree.
type TraceSnapshot = tracing.TraceSnapshot

// SpanSnapshot is one span of a TraceSnapshot.
type SpanSnapshot = tracing.SpanSnapshot

// TracePage is the GET /v2/traces body.
type TracePage struct {
	Traces []TraceSummary `json:"traces"`
	Total  int            `json:"total"`
}

// maxMinDurationMS is the largest ?min_duration_ms= whose Duration
// fits an int64 of nanoseconds.
const maxMinDurationMS = math.MaxInt64 / int64(time.Millisecond)

// handleListTraces serves the flight recorder's retained traces,
// newest first. Filters: ?campaign= keeps traces touching one
// campaign, ?min_duration_ms= keeps slow ones, ?errors=true keeps
// failed ones. Answers 404 when the server runs without a tracer.
func (s *Server) handleListTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		s.writeError(w, imcerr.New(imcerr.CodeNotFound, "tracing is not enabled (start with a tracer, e.g. platformd -trace)"))
		return
	}
	minMS, err := queryInt(r, "min_duration_ms", 0)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Out of range, the product below would wrap to a negative Duration
	// and switch the filter off.
	if minMS < 0 || int64(minMS) > maxMinDurationMS {
		s.writeError(w, imcerr.New(imcerr.CodeInvalid, "query parameter %q: %d is outside [0, %d]", "min_duration_ms", minMS, maxMinDurationMS))
		return
	}
	filter := tracing.TraceFilter{
		Campaign:    r.URL.Query().Get("campaign"),
		MinDuration: time.Duration(minMS) * time.Millisecond,
	}
	if v := r.URL.Query().Get("errors"); v != "" {
		only, err := strconv.ParseBool(v)
		if err != nil {
			s.writeError(w, imcerr.New(imcerr.CodeInvalid, "query parameter %q: %q is not a boolean", "errors", v))
			return
		}
		filter.ErrorsOnly = only
	}
	traces := s.tracer.Collector().Traces(filter)
	if traces == nil {
		traces = []TraceSummary{}
	}
	writeJSON(w, http.StatusOK, TracePage{Traces: traces, Total: len(traces)})
}

// handleGetTrace serves one trace's full span tree by trace ID.
func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		s.writeError(w, imcerr.New(imcerr.CodeNotFound, "tracing is not enabled (start with a tracer, e.g. platformd -trace)"))
		return
	}
	id := r.PathValue("id")
	snap, ok := s.tracer.Collector().Trace(id)
	if !ok {
		s.writeError(w, imcerr.New(imcerr.CodeNotFound, "trace %s is not retained (evicted, or never collected)", id))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// Traces lists the platform's retained traces, newest first. campaign,
// minDuration, and errorsOnly mirror the server-side filters; zero
// values mean "no filter".
func (c *Client) Traces(ctx context.Context, campaign string, minDuration time.Duration, errorsOnly bool) (*TracePage, error) {
	q := url.Values{}
	if campaign != "" {
		q.Set("campaign", campaign)
	}
	if minDuration > 0 {
		q.Set("min_duration_ms", strconv.FormatInt(minDuration.Milliseconds(), 10))
	}
	if errorsOnly {
		q.Set("errors", "true")
	}
	path := "/v2/traces"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out TracePage
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TraceByID fetches one trace's full span tree.
func (c *Client) TraceByID(ctx context.Context, id string) (*TraceSnapshot, error) {
	var out TraceSnapshot
	if err := c.do(ctx, http.MethodGet, "/v2/traces/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
