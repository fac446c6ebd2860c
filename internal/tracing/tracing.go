// Package tracing is the repo's dependency-free span subsystem: the
// causal, per-operation counterpart to the aggregate metrics in
// internal/obs. A Tracer opens a root span per unit of work (an HTTP
// request, a resumed settle), child spans mark the phases it passes
// through (sched admission, truth discovery, store fsync), and the
// whole tree is retained in a fixed-size flight recorder (see
// Collector) for after-the-fact "why was THIS close slow?" forensics.
//
// The package mirrors the nil-is-free contract the metrics layer
// established: a nil *Tracer and a nil *Span are inert — every method
// returns before touching the clock or allocating, so uninstrumented
// paths pay nothing. Spans use time.Now's monotonic reading, so
// durations are immune to wall-clock steps. Attributes and events are
// bounded per span and spans are bounded per trace; overflow is
// counted, never grown.
//
// Trace identity follows the W3C Trace Context wire format: inbound
// traceparent headers are adopted when valid (see ParseTraceParent)
// and Span.TraceParent renders the outbound header, so traces join up
// across the wire.Client / wire.Server boundary.
package tracing

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte W3C trace identifier shared by every span in
// one trace.
type TraceID [16]byte

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// SpanID is the 8-byte W3C span identifier, unique within a trace.
type SpanID [8]byte

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// idCounter salts generated IDs so they stay non-zero and unique even
// if the system's entropy source misbehaves.
var idCounter atomic.Uint64

func newTraceID() TraceID {
	var id TraceID
	_, _ = cryptorand.Read(id[:])
	if id.IsZero() {
		n := idCounter.Add(1)
		for i := 0; i < 8; i++ {
			id[15-i] = byte(n >> (8 * i))
		}
		id[0] = 1
	}
	return id
}

func newSpanID() SpanID {
	var id SpanID
	_, _ = cryptorand.Read(id[:])
	if id.IsZero() {
		n := idCounter.Add(1)
		for i := 0; i < 8; i++ {
			id[7-i] = byte(n >> (8 * i))
		}
		id[0] |= 1
	}
	return id
}

// Limits on per-span payload. Overflow increments a drop counter that
// surfaces in the snapshot rather than growing without bound.
const (
	maxAttrsPerSpan  = 16
	maxEventsPerSpan = 128
	maxSpansPerTrace = 512
	// errorKeep is how many evicted error traces the collector retains
	// beyond the recent ring, and slowKeep how many of the slowest
	// evicted settles.
	errorKeep = 32
	slowKeep  = 16
)

// Attr is one key/value annotation on a span or event. Values are
// strings so snapshots are trivially JSON-stable; use the Str/Int/F64
// constructors for deterministic formatting.
type Attr struct {
	Key   string
	Value string
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// F64 builds a float attribute with shortest-round-trip formatting.
func F64(k string, v float64) Attr {
	return Attr{Key: k, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// spanEvent is one timestamped point annotation inside a span.
type spanEvent struct {
	name  string
	at    time.Time
	attrs []Attr
}

// Span is one timed operation inside a trace. The zero of the API is
// the nil *Span: every method is a guarded no-op on a nil receiver, so
// callers thread spans unconditionally and only instrumented runs pay.
type Span struct {
	tr     *trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu            sync.Mutex
	end           time.Time
	ended         bool
	err           string
	attrs         []Attr
	events        []spanEvent
	droppedAttrs  int
	droppedEvents int
}

// trace is the shared container every span of one trace registers
// into. The collector holds it live: spans that end after the root
// (async settles outliving their 202 response) still land in the same
// recorded trace, and snapshots are taken at query time.
type trace struct {
	id  TraceID
	col *Collector

	mu      sync.Mutex
	root    *Span
	spans   []*Span
	dropped int
	kind    string
	failed  bool
}

// register adds a child span to the trace, bounded by maxSpansPerTrace.
func (tr *trace) register(s *Span) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= maxSpansPerTrace {
		tr.dropped++
		return
	}
	tr.spans = append(tr.spans, s)
}

// Tracer mints root spans and feeds ended traces to its Collector. A
// nil Tracer is fully inert.
type Tracer struct {
	col *Collector
}

// Options bounds a Tracer's flight recorder. The zero value selects
// the defaults noted on each field. The retention pools are fixed:
// errorKeep error traces and the slowKeep slowest settles survive
// eviction, and a trace holds at most maxSpansPerTrace spans.
type Options struct {
	// Buffer is the size of the recent-trace ring (default 256).
	Buffer int
	// SlowFloor is the minimum settle duration eligible for the slow
	// pool; faster settles are never retained there (default 0).
	SlowFloor time.Duration
}

// New builds a Tracer with its own Collector sized by opts.
func New(opts Options) *Tracer {
	if opts.Buffer <= 0 {
		opts.Buffer = 256
	}
	return &Tracer{col: newCollector(opts)}
}

// Collector returns the tracer's flight recorder (nil on a nil
// Tracer).
func (t *Tracer) Collector() *Collector {
	if t == nil {
		return nil
	}
	return t.col
}

// StartRoot opens a new trace rooted at name and returns a context
// carrying its root span. remote is the inbound traceparent header (or
// ""): when it parses as a valid W3C value the new trace adopts its
// trace ID and parent span ID, otherwise a fresh trace ID is minted —
// malformed headers are ignored, never an error. On a nil Tracer it
// returns (ctx, nil) without reading the clock or allocating.
func (t *Tracer) StartRoot(ctx context.Context, name, remote string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	return t.startRootAt(ctx, name, remote, time.Now())
}

// startRootAt is StartRoot with the start time supplied by the caller
// (a Phase's single start reading); t must be non-nil.
func (t *Tracer) startRootAt(ctx context.Context, name, remote string, start time.Time) (context.Context, *Span) {
	tid, parent, ok := ParseTraceParent(remote)
	if !ok {
		tid = newTraceID()
		parent = SpanID{}
	}
	tr := &trace{id: tid, col: t.col}
	s := &Span{tr: tr, id: newSpanID(), parent: parent, name: name, start: start}
	tr.root = s
	tr.spans = append(tr.spans, s)
	return ContextWithSpan(ctx, s), s
}

type ctxKey struct{}

// ContextWithSpan returns ctx carrying s. A nil span leaves ctx
// unchanged (and so costs nothing downstream).
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start opens a child of the span carried by ctx and returns a context
// carrying it. When ctx carries no span it returns (ctx, nil) — the
// uninstrumented fast path.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.Child(name)
	return ContextWithSpan(ctx, s), s
}

// Child opens a sub-span under s. On a nil receiver it returns nil
// without reading the clock.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.childAt(name, time.Now())
}

// childAt opens a sub-span starting at start; s must be non-nil.
func (s *Span) childAt(name string, start time.Time) *Span {
	c := &Span{tr: s.tr, id: newSpanID(), parent: s.id, name: name, start: start}
	s.tr.register(c)
	return c
}

// SetAttr annotates the span; bounded, drops counted.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.attrs) >= maxAttrsPerSpan {
		s.droppedAttrs++
		return
	}
	s.attrs = append(s.attrs, Attr{Key: k, Value: v})
}

// Event records a timestamped point annotation; bounded, drops
// counted. Nil receivers skip the clock read entirely.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.eventAt(time.Now(), name, attrs)
}

// eventAt records an event stamped at; s must be non-nil.
func (s *Span) eventAt(at time.Time, name string, attrs []Attr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) >= maxEventsPerSpan {
		s.droppedEvents++
		return
	}
	s.events = append(s.events, spanEvent{name: name, at: at, attrs: attrs})
}

// SetError marks the span (and therefore its trace) failed. A nil err
// is a no-op, so callers can pass their return error unconditionally.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err.Error()
	s.mu.Unlock()
	s.tr.mu.Lock()
	s.tr.failed = true
	s.tr.mu.Unlock()
}

// SetKind labels the whole trace (e.g. "settle") for the collector's
// retention policy and list filters.
func (s *Span) SetKind(kind string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.kind = kind
	s.tr.mu.Unlock()
}

// End closes the span; the duration is monotonic. Ending the trace's
// root span hands the trace to the collector — child spans may keep
// running and end later (async settles), and still appear in the
// recorded trace because the collector snapshots at query time.
// Double End is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.endAt(time.Now())
}

// endAt closes the span at end; s must be non-nil.
func (s *Span) endAt(end time.Time) {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = end
	s.mu.Unlock()
	if s.tr.root == s {
		s.tr.col.add(s.tr)
	}
}

// TraceParent renders the outbound W3C traceparent header for the
// span, or "" on a nil receiver.
func (s *Span) TraceParent() string {
	if s == nil {
		return ""
	}
	return FormatTraceParent(s.tr.id, s.id)
}

// TraceIDString returns the span's 32-hex-digit trace ID, or "" on a
// nil receiver — the correlation key stamped into log records.
func (s *Span) TraceIDString() string {
	if s == nil {
		return ""
	}
	return s.tr.id.String()
}
