package tracing

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTracerZeroAllocs pins the nil-is-free contract: a nil Tracer,
// a nil Span, and a span-free context must cost zero allocations on
// every entry point a hot path can reach.
func TestNilTracerZeroAllocs(t *testing.T) {
	ctx := context.Background()
	var tr *Tracer
	var sp *Span
	errBoom := errors.New("boom")
	avg := testing.AllocsPerRun(1000, func() {
		c, s := tr.StartRoot(ctx, "root", "")
		_, _ = c, s
		c2, s2 := Start(ctx, "child")
		_, _ = c2, s2
		sp.SetAttr("k", "v")
		sp.Event("ev")
		sp.SetError(errBoom)
		sp.SetKind("settle")
		sp.End()
		_ = sp.Child("c")
		_ = sp.TraceParent()
		_ = sp.TraceIDString()
		_ = ContextWithSpan(ctx, nil)
		_ = tr.Collector()
		_ = tr.Collector().Traces(TraceFilter{})
	})
	if avg != 0 {
		t.Fatalf("nil tracer path allocates %.1f allocs/op, want 0", avg)
	}
}

// TestSpanTreeRoundTrip walks a root→child→event tree through the
// collector and checks the snapshot reproduces it.
func TestSpanTreeRoundTrip(t *testing.T) {
	tr := New(Options{Buffer: 4})
	ctx, root := tr.StartRoot(context.Background(), "req", "")
	root.SetAttr("campaign", "cmp-1")
	cctx, child := Start(ctx, "phase")
	child.Event("tick", Int("i", 1), F64("x", 0.5))
	_, grand := Start(cctx, "inner")
	grand.End()
	child.End()
	root.End()

	snap, ok := tr.Collector().Trace(root.TraceIDString())
	if !ok {
		t.Fatalf("trace %s not retained", root.TraceIDString())
	}
	if len(snap.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(snap.Spans))
	}
	byName := map[string]SpanSnapshot{}
	for _, s := range snap.Spans {
		byName[s.Name] = s
	}
	if byName["req"].ParentID != "" {
		t.Errorf("root has parent %q", byName["req"].ParentID)
	}
	if byName["phase"].ParentID != byName["req"].SpanID {
		t.Errorf("child parent = %q, want root %q", byName["phase"].ParentID, byName["req"].SpanID)
	}
	if byName["inner"].ParentID != byName["phase"].SpanID {
		t.Errorf("grandchild parent = %q, want %q", byName["inner"].ParentID, byName["phase"].SpanID)
	}
	if got := byName["req"].Attrs["campaign"]; got != "cmp-1" {
		t.Errorf("campaign attr = %q", got)
	}
	evs := byName["phase"].Events
	if len(evs) != 1 || evs[0].Name != "tick" || evs[0].Attrs["i"] != "1" || evs[0].Attrs["x"] != "0.5" {
		t.Errorf("events = %+v", evs)
	}
	for _, s := range snap.Spans {
		if s.InProgress {
			t.Errorf("span %s still in progress", s.Name)
		}
	}
}

// TestLateEndingSpansAppear covers the async-settle shape: the root
// ends (202 returned) while a child keeps running; the trace is
// already retrievable and the child lands in it once ended.
func TestLateEndingSpansAppear(t *testing.T) {
	tr := New(Options{Buffer: 4})
	ctx, root := tr.StartRoot(context.Background(), "req", "")
	_, settle := Start(ctx, "campaign.settle")
	settle.SetKind("settle")
	root.End()

	snap, ok := tr.Collector().Trace(root.TraceIDString())
	if !ok {
		t.Fatal("trace not retained after root end")
	}
	var inProgress bool
	for _, s := range snap.Spans {
		if s.Name == "campaign.settle" && s.InProgress {
			inProgress = true
		}
	}
	if !inProgress {
		t.Fatalf("settle span should be in progress: %+v", snap.Spans)
	}

	settle.Event("done")
	settle.End()
	snap, _ = tr.Collector().Trace(root.TraceIDString())
	for _, s := range snap.Spans {
		if s.Name == "campaign.settle" {
			if s.InProgress {
				t.Fatal("settle span still in progress after End")
			}
			if len(s.Events) != 1 {
				t.Fatalf("late event lost: %+v", s.Events)
			}
		}
	}
	if snap.Kind != "settle" {
		t.Errorf("trace kind = %q, want settle", snap.Kind)
	}
}

// TestBounds drives attrs, events, and spans past their limits and
// checks the overflow is counted, not grown.
func TestBounds(t *testing.T) {
	tr := New(Options{Buffer: 4})
	ctx, root := tr.StartRoot(context.Background(), "req", "")
	for i := 0; i < maxAttrsPerSpan+5; i++ {
		root.SetAttr(fmt.Sprintf("k%d", i), "v")
	}
	for i := 0; i < maxEventsPerSpan+7; i++ {
		root.Event("e")
	}
	// The root plus maxSpansPerTrace+3 children: four over the bound.
	for i := 0; i < maxSpansPerTrace+3; i++ {
		_, s := Start(ctx, fmt.Sprintf("c%d", i))
		s.End()
	}
	root.End()
	snap, _ := tr.Collector().Trace(root.TraceIDString())
	if len(snap.Spans) != maxSpansPerTrace {
		t.Errorf("spans = %d, want %d (bounded)", len(snap.Spans), maxSpansPerTrace)
	}
	if snap.DroppedSpans != 4 {
		t.Errorf("dropped spans = %d, want 4", snap.DroppedSpans)
	}
	rootSnap := snap.Spans[0]
	if len(rootSnap.Attrs) != maxAttrsPerSpan || rootSnap.DroppedAttrs != 5 {
		t.Errorf("attrs = %d (dropped %d), want %d (dropped 5)",
			len(rootSnap.Attrs), rootSnap.DroppedAttrs, maxAttrsPerSpan)
	}
	if len(rootSnap.Events) != maxEventsPerSpan || rootSnap.DroppedEvents != 7 {
		t.Errorf("events = %d (dropped %d), want %d (dropped 7)",
			len(rootSnap.Events), rootSnap.DroppedEvents, maxEventsPerSpan)
	}
}

// endTrace runs one root span through tr with the given shape.
func endTrace(tr *Tracer, name string, fail bool, kind string, d time.Duration) string {
	_, root := tr.StartRoot(context.Background(), name, "")
	if fail {
		root.SetError(errors.New(name + " failed"))
	}
	if kind != "" {
		root.SetKind(kind)
	}
	if d > 0 {
		// Backdate the start instead of sleeping so retention tests
		// stay fast; duration math only uses span fields.
		root.start = root.start.Add(-d)
	}
	root.End()
	return root.TraceIDString()
}

// TestRetentionKeepsErrorsAndSlowSettles fills the ring far past its
// size and checks the flight recorder's promise: error traces and the
// slowest settles survive eviction while plain traffic does not.
func TestRetentionKeepsErrorsAndSlowSettles(t *testing.T) {
	tr := New(Options{Buffer: 4, SlowFloor: time.Millisecond})
	// errorKeep+2 error traces: the error ring keeps the newest errorKeep.
	var errIDs []string
	for i := 0; i < errorKeep+2; i++ {
		errIDs = append(errIDs, endTrace(tr, "bad", true, "", 0))
	}
	// slowKeep settles fill the slow pool; the slowest one, arriving
	// after, displaces the fastest of them (300 ms).
	var slow []string
	for i := 0; i < slowKeep; i++ {
		slow = append(slow, endTrace(tr, "slow-settle", false, "settle", 300*time.Millisecond+time.Duration(i)*time.Millisecond))
	}
	slowest := endTrace(tr, "slowest-settle", false, "settle", time.Second)
	fastSettle := endTrace(tr, "fast-settle", false, "settle", 0) // below floor
	midSettle := endTrace(tr, "mid-settle", false, "settle", 100*time.Millisecond)
	var plain []string
	for i := 0; i < 20; i++ {
		plain = append(plain, endTrace(tr, "plain", false, "", 0))
	}

	col := tr.Collector()
	for i, id := range errIDs {
		if _, ok := col.Trace(id); ok != (i >= 2) {
			t.Errorf("error trace %d retained = %v, want %v", i, ok, i >= 2)
		}
	}
	if _, ok := col.Trace(slowest); !ok {
		t.Error("slowest settle evicted; must be retained")
	}
	for i, id := range slow {
		if _, ok := col.Trace(id); ok != (i > 0) {
			t.Errorf("slow settle %d retained = %v, want %v", i, ok, i > 0)
		}
	}
	if _, ok := col.Trace(midSettle); ok {
		t.Error("mid settle should have lost the slow pool to slower settles")
	}
	if _, ok := col.Trace(fastSettle); ok {
		t.Error("settle below SlowFloor must not be retained")
	}
	if _, ok := col.Trace(plain[0]); ok {
		t.Error("oldest plain trace should be evicted")
	}
	st := col.Stats()
	if st.RecentTraces != 4 || st.ErrorTraces != errorKeep || st.SlowTraces != slowKeep {
		t.Errorf("stats = %+v", st)
	}
	if want := uint64(errorKeep + 2 + slowKeep + 3 + 20); st.Collected != want {
		t.Errorf("collected = %d, want %d", st.Collected, want)
	}
}

// TestTraceFilter exercises the listing filters.
func TestTraceFilter(t *testing.T) {
	tr := New(Options{Buffer: 16})
	_, a := tr.StartRoot(context.Background(), "a", "")
	a.SetAttr("campaign", "cmp-1")
	a.End()
	_, b := tr.StartRoot(context.Background(), "b", "")
	b.SetAttr("campaign", "cmp-2")
	b.SetError(errors.New("boom"))
	b.End()
	col := tr.Collector()

	if got := col.Traces(TraceFilter{}); len(got) != 2 {
		t.Fatalf("unfiltered = %d, want 2", len(got))
	}
	got := col.Traces(TraceFilter{Campaign: "cmp-1"})
	if len(got) != 1 || got[0].Root != "a" {
		t.Errorf("campaign filter = %+v", got)
	}
	got = col.Traces(TraceFilter{ErrorsOnly: true})
	if len(got) != 1 || got[0].Root != "b" || !got[0].Error {
		t.Errorf("errors filter = %+v", got)
	}
	if got := col.Traces(TraceFilter{MinDuration: time.Hour}); len(got) != 0 {
		t.Errorf("min-duration filter = %+v", got)
	}
}

// TestParseTraceParent is the W3C conformance table: valid headers
// round-trip, malformed ones are ignored.
func TestParseTraceParent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tid, parent, ok := ParseTraceParent(valid)
	if !ok {
		t.Fatalf("valid header rejected: %s", valid)
	}
	if tid.String() != "4bf92f3577b34da6a3ce929d0e0e4736" || parent.String() != "00f067aa0ba902b7" {
		t.Fatalf("parsed %s / %s", tid, parent)
	}
	if got := FormatTraceParent(tid, parent); got != valid {
		t.Fatalf("round trip = %q, want %q", got, valid)
	}

	// Future version with trailing data is accepted.
	if _, _, ok := ParseTraceParent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Error("future version with suffix should parse")
	}

	malformed := []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",  // bad hex flags
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",  // bad hex trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902zz-01",  // bad hex parent
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero parent id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // version ff invalid
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // version 00 must be exactly 55
		"0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // bad hex version
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // wrong delimiter
		strings.Repeat("0", 55),
	}
	for _, h := range malformed {
		if _, _, ok := ParseTraceParent(h); ok {
			t.Errorf("malformed header accepted: %q", h)
		}
	}
}

// TestStartRootAdoptsRemote checks inbound context propagation: a
// valid traceparent fixes the trace ID and parent span ID; a malformed
// one mints a fresh trace.
func TestStartRootAdoptsRemote(t *testing.T) {
	tr := New(Options{Buffer: 4})
	remote := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	_, root := tr.StartRoot(context.Background(), "req", remote)
	if root.TraceIDString() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("remote trace id not adopted: %s", root.TraceIDString())
	}
	root.End()
	snap, _ := tr.Collector().Trace("4bf92f3577b34da6a3ce929d0e0e4736")
	if len(snap.Spans) != 1 || snap.Spans[0].ParentID != "00f067aa0ba902b7" {
		t.Errorf("remote parent not adopted: %+v", snap.Spans)
	}

	_, fresh := tr.StartRoot(context.Background(), "req", "ff-bad")
	if fresh.TraceIDString() == "" || fresh.TraceIDString() == "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("malformed remote should mint fresh id, got %s", fresh.TraceIDString())
	}
}

// TestConcurrentSpans hammers one trace from many goroutines (run
// under -race in CI).
func TestConcurrentSpans(t *testing.T) {
	tr := New(Options{Buffer: 8})
	ctx, root := tr.StartRoot(context.Background(), "req", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, s := Start(ctx, fmt.Sprintf("worker-%d", i))
			for j := 0; j < 50; j++ {
				s.Event("tick", Int("j", j))
				s.SetAttr(fmt.Sprintf("a%d", j%4), "v")
			}
			s.End()
		}(i)
	}
	var snaps sync.WaitGroup
	for i := 0; i < 4; i++ {
		snaps.Add(1)
		go func() {
			defer snaps.Done()
			tr.Collector().Traces(TraceFilter{})
			tr.Collector().Trace(root.TraceIDString())
		}()
	}
	wg.Wait()
	root.End()
	snaps.Wait()
	snap, ok := tr.Collector().Trace(root.TraceIDString())
	if !ok || len(snap.Spans) != 9 {
		t.Fatalf("got ok=%v spans=%d, want 9", ok, len(snap.Spans))
	}
}

// TestDoubleEndIsNoop pins that a second End neither re-registers the
// trace nor moves the duration.
func TestDoubleEndIsNoop(t *testing.T) {
	tr := New(Options{Buffer: 4})
	_, root := tr.StartRoot(context.Background(), "req", "")
	root.End()
	d1, _ := tr.Collector().Trace(root.TraceIDString())
	root.End()
	d2, _ := tr.Collector().Trace(root.TraceIDString())
	if d1.DurationMS != d2.DurationMS {
		t.Errorf("duration moved on double End: %v vs %v", d1.DurationMS, d2.DurationMS)
	}
	if st := tr.Collector().Stats(); st.Collected != 1 {
		t.Errorf("collected = %d, want 1", st.Collected)
	}
}
