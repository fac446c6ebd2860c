package tracing

import (
	"context"
	"time"

	"imc2/internal/obs"
)

// Phase times one operation from a single pair of clock readings and
// hands the same measurement to every attached sink: the phase's span
// (or an event on its parent span) and an obs histogram. Span and
// metric therefore cannot disagree — the span-metrics pattern: measure
// once, emit both.
//
// A phase started with neither a span nor a histogram is the zero
// Phase, which is inert: starting and ending it reads no clock and
// allocates nothing, so uninstrumented paths time their phases
// unconditionally for free.
type Phase struct {
	span  *Span // the phase's own span (ended by End), or nil
	event *Span // EndEvent's target span, or nil
	h     *obs.Histogram
	start time.Time
}

// StartPhase opens a child span name under parent and times it into h;
// either may be nil. The child starts at the phase's start reading.
func StartPhase(parent *Span, name string, h *obs.Histogram) Phase {
	if parent == nil && h == nil {
		return Phase{}
	}
	start := time.Now()
	p := Phase{h: h, start: start}
	if parent != nil {
		p.span = parent.childAt(name, start)
	}
	return p
}

// StartEventPhase times a wait that is a point in span's timeline
// rather than a span of its own (a settle's admission queue wait, its
// slot hold): EndEvent records it as one event on span carrying the
// duration, and observes h. Either may be nil.
func StartEventPhase(span *Span, h *obs.Histogram) Phase {
	if span == nil && h == nil {
		return Phase{}
	}
	return Phase{event: span, h: h, start: time.Now()}
}

// StartRootPhase opens a new trace rooted at name (see StartRoot for
// remote) and times it into h. Unlike StartPhase it always reads the
// clock, on a nil Tracer and nil h too: a root phase is the top of an
// instrumented unit of work whose caller logs End's duration (the
// request middleware runs only when metrics, logging or tracing is on).
func (t *Tracer) StartRootPhase(ctx context.Context, name, remote string, h *obs.Histogram) (context.Context, Phase) {
	start := time.Now()
	p := Phase{h: h, start: start}
	if t != nil {
		ctx, p.span = t.startRootAt(ctx, name, remote, start)
	}
	return ctx, p
}

// Span returns the phase's own span (nil when untraced) for attributes
// and child spans.
func (p Phase) Span() *Span { return p.span }

// End reads the clock once, ends the phase's span there — marked
// failed when err is non-nil — observes the duration on the histogram,
// and returns it. An inert phase returns 0.
func (p Phase) End(err error) time.Duration {
	if p.start.IsZero() {
		return 0
	}
	end := time.Now()
	d := end.Sub(p.start)
	if p.span != nil {
		p.span.SetError(err)
		p.span.endAt(end)
	}
	p.h.Observe(d.Seconds())
	return d
}

// EndEvent ends an event phase: it reads the clock once, records event
// name on the target span stamped there, with attrs plus durKey set to
// the duration in seconds, observes the histogram, and returns the
// duration. An inert phase returns 0.
func (p Phase) EndEvent(name, durKey string, attrs ...Attr) time.Duration {
	if p.start.IsZero() {
		return 0
	}
	end := time.Now()
	d := end.Sub(p.start)
	if p.event != nil {
		// A fresh slice, so the caller's attrs never escape: an inert or
		// untraced event phase allocates nothing, attrs or not.
		all := make([]Attr, 0, len(attrs)+1)
		all = append(append(all, attrs...), F64(durKey, d.Seconds()))
		p.event.eventAt(end, name, all)
	}
	p.h.Observe(d.Seconds())
	return d
}
