package tracing

import (
	"context"
	"errors"
	"testing"

	"imc2/internal/obs"
)

// TestInertPhaseZeroAllocs pins the nil-is-free contract for the phase
// timer: with no span and no histogram attached, starting and ending a
// phase allocates nothing and measures nothing.
func TestInertPhaseZeroAllocs(t *testing.T) {
	var got int64
	avg := testing.AllocsPerRun(1000, func() {
		ph := StartPhase(nil, "phase", nil)
		ph.Span().SetAttr("k", "v")
		got += int64(ph.End(nil))
		ev := StartEventPhase(nil, nil)
		got += int64(ev.EndEvent("ev", "seconds"))
		ev = StartEventPhase(nil, nil)
		got += int64(ev.EndEvent("ev", "seconds", Str("queued", "true")))
	})
	if avg != 0 {
		t.Fatalf("inert phase allocates %.1f allocs/op, want 0", avg)
	}
	if got != 0 {
		t.Fatalf("inert phase measured %d ns, want 0", got)
	}
}

// TestPhaseFeedsSpanAndHistogramOneMeasurement: span and histogram take
// their value from the same two clock readings, so the histogram's sum
// equals the span's recorded duration exactly, and End returns it.
func TestPhaseFeedsSpanAndHistogramOneMeasurement(t *testing.T) {
	tr := New(Options{})
	_, root := tr.StartRoot(context.Background(), "root", "")
	h := obs.NewRegistry().Histogram("imc2_store_probe_seconds", "probe", obs.LatencyBuckets)
	ph := StartPhase(root, "phase", h)
	boom := errors.New("boom")
	d := ph.End(boom)
	root.End()

	span := ph.Span()
	if got := span.end.Sub(span.start); got != d {
		t.Fatalf("span duration %v, End returned %v", got, d)
	}
	if span.start.Before(root.start) || span.err != "boom" || !span.ended {
		t.Fatalf("phase span start=%v (root %v) err=%q ended=%v", span.start, root.start, span.err, span.ended)
	}
	if h.Count() != 1 || h.Sum() != d.Seconds() {
		t.Fatalf("histogram count=%d sum=%v, want 1 and exactly %v", h.Count(), h.Sum(), d.Seconds())
	}
}

// TestEventPhaseStampsParent: an event phase adds one event to its span,
// stamped at the end reading and carrying the duration the histogram
// observed.
func TestEventPhaseStampsParent(t *testing.T) {
	tr := New(Options{})
	_, root := tr.StartRoot(context.Background(), "root", "")
	h := obs.NewRegistry().Histogram("imc2_sched_probe_seconds", "probe", obs.LatencyBuckets)
	ph := StartEventPhase(root, h)
	d := ph.EndEvent("waited", "wait_seconds", Str("queued", "true"))
	root.End()

	if len(root.events) != 1 {
		t.Fatalf("root has %d events, want 1", len(root.events))
	}
	ev := root.events[0]
	if ev.name != "waited" || ev.at.Sub(ph.start) != d {
		t.Fatalf("event %q at +%v, want \"waited\" at +%v", ev.name, ev.at.Sub(ph.start), d)
	}
	want := []Attr{Str("queued", "true"), F64("wait_seconds", d.Seconds())}
	if len(ev.attrs) != 2 || ev.attrs[0] != want[0] || ev.attrs[1] != want[1] {
		t.Fatalf("event attrs %v, want %v", ev.attrs, want)
	}
	if h.Sum() != d.Seconds() {
		t.Fatalf("histogram sum %v, want %v", h.Sum(), d.Seconds())
	}
}

// TestRootPhaseTimesWithoutSinks: the request middleware's root phase
// always measures — its log record needs the duration even with
// tracing and metrics off — and carries a root span when traced.
func TestRootPhaseTimesWithoutSinks(t *testing.T) {
	var nilTracer *Tracer
	ctx := context.Background()
	c, ph := nilTracer.StartRootPhase(ctx, "req", "", nil)
	if c != ctx || ph.Span() != nil || ph.start.IsZero() {
		t.Fatal("untraced root phase must keep ctx, carry no span, and still time")
	}
	if d := ph.End(nil); d < 0 {
		t.Fatalf("untraced root phase measured %v", d)
	}

	tr := New(Options{})
	c, ph = tr.StartRootPhase(ctx, "req", "", nil)
	if SpanFromContext(c) != ph.Span() || ph.Span() == nil || ph.Span().start != ph.start {
		t.Fatal("traced root phase must carry its root span, started at the phase's reading")
	}
	ph.End(nil)
	if _, ok := tr.Collector().Trace(ph.Span().TraceIDString()); !ok {
		t.Fatal("ending the root phase did not hand the trace to the collector")
	}
}
