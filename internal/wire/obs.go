package wire

import (
	cryptorand "crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"

	"imc2/internal/imcerr"
	"imc2/internal/obs"
	"imc2/internal/tracing"
)

// ServerOption configures a Server beyond its required dependencies.
type ServerOption func(*Server)

// WithObs registers the HTTP layer's metrics (imc2_wire_*) on o and
// wraps the handler in the instrumentation middleware: request count
// and latency by route pattern, in-flight gauge, and an error counter
// by machine-readable code. A nil o is a no-op.
func WithObs(o *obs.Registry) ServerOption {
	return func(s *Server) { s.m = newWireMetrics(o) }
}

// WithSlog attaches a structured logger: the middleware emits one
// record per request (method, path, route, status, duration,
// request_id, and trace_id when tracing is on). A nil logger is a
// no-op.
func WithSlog(l *slog.Logger) ServerOption {
	return func(s *Server) { s.slogger = l }
}

// WithTracing attaches a tracer: the middleware opens one root span per
// request — adopting a valid inbound W3C traceparent header, ignoring a
// malformed one — and returns the trace ID as X-Trace-Id; handlers hang
// child spans and events off the request context, and GET /v2/traces
// serves the tracer's flight recorder. A nil tracer is a no-op.
func WithTracing(tr *tracing.Tracer) ServerOption {
	return func(s *Server) { s.tracer = tr }
}

// wireMetrics holds the HTTP layer's instruments. A nil *wireMetrics is
// the uninstrumented server.
type wireMetrics struct {
	requests *obs.CounterVec   // route, status
	latency  *obs.HistogramVec // route
	inflight *obs.Gauge
	errors   *obs.CounterVec // code
}

func newWireMetrics(o *obs.Registry) *wireMetrics {
	if o == nil {
		return nil
	}
	return &wireMetrics{
		requests: o.CounterVec("imc2_wire_requests_total",
			"HTTP requests served, by route pattern and status code.",
			"route", "status"),
		latency: o.HistogramVec("imc2_wire_request_seconds",
			"HTTP request latency by route pattern.",
			obs.LatencyBuckets, "route"),
		inflight: o.Gauge("imc2_wire_inflight_requests_count",
			"HTTP requests currently being served."),
		errors: o.CounterVec("imc2_wire_errors_total",
			"Error responses written, by machine-readable imcerr code.",
			"code"),
	}
}

// statusWriter captures the response status for the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// requestIDHeader carries the per-request correlation ID on the
// response; writeError reads it back from the response headers so the
// error body echoes it without plumbing the request through.
const requestIDHeader = "X-Request-Id"

// newRequestID mints the per-request correlation ID.
func newRequestID() string {
	var b [8]byte
	_, _ = cryptorand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// instrument wraps the router with the metrics/logging/tracing
// middleware. The uninstrumented server serves the bare mux — zero
// overhead. The route label is the mux pattern (e.g.
// "GET /v2/campaigns/{id}"), never the raw path, so label cardinality
// stays bounded by the route table; requests matching no route are
// labeled "unmatched". Every instrumented request gets an X-Request-Id;
// with a tracer attached it also gets a root span and an X-Trace-Id.
func (s *Server) instrument(mux *http.ServeMux) http.Handler {
	if s.m == nil && s.slogger == nil && s.tracer == nil {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, pattern := mux.Handler(r)
		if pattern == "" {
			pattern = "unmatched"
		}
		reqID := newRequestID()
		// Set before the handler runs so writeError can echo it into
		// error bodies by reading the response headers.
		w.Header().Set(requestIDHeader, reqID)
		var latency *obs.Histogram
		if s.m != nil {
			latency = s.m.latency.With(pattern)
			s.m.inflight.Inc()
		}
		// One phase times the request for the root span, the latency
		// histogram and the log record alike. The traceparent lookup
		// allocates, so untraced servers skip it.
		var remote string
		if s.tracer != nil {
			remote = r.Header.Get(tracing.TraceParentHeader)
		}
		ctx, ph := s.tracer.StartRootPhase(r.Context(), pattern, remote, latency)
		span := ph.Span()
		if span != nil {
			span.SetAttr("http.method", r.Method)
			span.SetAttr("http.path", r.URL.Path)
			span.SetAttr("request_id", reqID)
			w.Header().Set("X-Trace-Id", span.TraceIDString())
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		// Observe in a defer so a panicking handler can neither leak
		// the inflight gauge nor vanish from the counters and the log;
		// the panic is re-raised afterwards so net/http still aborts
		// the connection.
		defer func() {
			p := recover()
			if p != nil {
				sw.status = http.StatusInternalServerError
			}
			span.SetAttr("http.status", strconv.Itoa(sw.status))
			var err error
			if sw.status >= http.StatusInternalServerError {
				err = imcerr.New(imcerr.CodeInternal, "HTTP %d", sw.status)
			}
			elapsed := ph.End(err)
			if s.m != nil {
				s.m.inflight.Dec()
				s.m.requests.With(pattern, strconv.Itoa(sw.status)).Inc()
			}
			if s.slogger != nil {
				args := []any{
					"method", r.Method,
					"path", r.URL.Path,
					"route", pattern,
					"status", sw.status,
					"duration_ms", float64(elapsed.Microseconds()) / 1e3,
					"request_id", reqID,
				}
				if span != nil {
					args = append(args, "trace_id", span.TraceIDString())
				}
				s.slogger.Info("request", args...)
			}
			if p != nil {
				panic(p)
			}
		}()
		mux.ServeHTTP(sw, r)
	})
}

// writeError is the single place an error becomes an HTTP response:
// code → status via statusOf, the Retry-After hint on backpressure, the
// request-ID echo, and the error counter — every handler routes
// failures through here, so middleware and metrics observe one
// consistent mapping.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := imcerr.CodeOf(err)
	if s.m != nil {
		s.m.errors.With(string(code)).Inc()
	}
	if code == imcerr.CodeUnavailable {
		// Backpressure: tell retrying clients when to come back.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(w, statusOf(code), errorBody{
		Error:     err.Error(),
		Code:      string(code),
		RequestID: w.Header().Get(requestIDHeader),
	})
}
