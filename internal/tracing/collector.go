package tracing

import (
	"sort"
	"sync"
	"time"
)

// Collector is the flight recorder: a fixed-size ring of recent traces
// with tail retention. When the ring evicts a trace, error traces move
// to a separate error ring and slow settles (kind "settle", duration ≥
// SlowFloor) compete for the slowest-N pool — so the traces an
// operator actually needs survive long after the steady-state traffic
// that followed them.
//
// The collector holds live *trace containers and snapshots them at
// query time under the trace's own lock, which is how spans that end
// after their root (async settles outliving the 202 response) still
// show up complete in GET /v2/traces/{id}.
type Collector struct {
	mu        sync.Mutex
	recent    []*trace // ring, next is the write cursor
	next      int
	errors    []*trace // ring of evicted error traces
	errNext   int
	slow      []*trace // pool of the slowest evicted settles
	slowFloor time.Duration
	collected uint64
	evicted   uint64
}

func newCollector(opts Options) *Collector {
	return &Collector{
		recent:    make([]*trace, 0, opts.Buffer),
		slowFloor: opts.SlowFloor,
	}
}

// add records a trace whose root span just ended.
func (c *Collector) add(tr *trace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.collected++
	if len(c.recent) < cap(c.recent) {
		c.recent = append(c.recent, tr)
		return
	}
	if cap(c.recent) == 0 {
		c.evicted++
		return
	}
	old := c.recent[c.next]
	c.recent[c.next] = tr
	c.next = (c.next + 1) % cap(c.recent)
	c.retain(old)
}

// retain decides an evicted trace's fate: error ring, slow-settle
// pool, or gone (counted).
func (c *Collector) retain(tr *trace) {
	tr.mu.Lock()
	failed, kind := tr.failed, tr.kind
	tr.mu.Unlock()
	if failed {
		if len(c.errors) < errorKeep {
			c.errors = append(c.errors, tr)
			return
		}
		c.evicted++
		c.errors[c.errNext] = tr
		c.errNext = (c.errNext + 1) % errorKeep
		return
	}
	if kind == "settle" {
		d := traceDuration(tr)
		if d >= c.slowFloor {
			if len(c.slow) < slowKeep {
				c.slow = append(c.slow, tr)
				return
			}
			// Evict the fastest of the pool if this one is slower.
			fastest, fd := 0, traceDuration(c.slow[0])
			for i := 1; i < len(c.slow); i++ {
				if di := traceDuration(c.slow[i]); di < fd {
					fastest, fd = i, di
				}
			}
			if d > fd {
				c.evicted++
				c.slow[fastest] = tr
				return
			}
		}
	}
	c.evicted++
}

// traceDuration is the span of the trace's ended work: latest span end
// minus root start. Unended spans contribute nothing, so no clock read
// is needed.
func traceDuration(tr *trace) time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.root == nil {
		return 0
	}
	var latest time.Time
	for _, s := range tr.spans {
		s.mu.Lock()
		if s.ended && s.end.After(latest) {
			latest = s.end
		}
		s.mu.Unlock()
	}
	if latest.IsZero() {
		return 0
	}
	return latest.Sub(tr.root.start)
}

// CollectorStats is the flight recorder's own gauge set, exported so
// daemons can surface pool occupancy as imc2_tracing_* metrics.
type CollectorStats struct {
	RecentTraces int
	ErrorTraces  int
	SlowTraces   int
	Collected    uint64
	Evicted      uint64
}

// Stats snapshots pool occupancy and lifetime counters. Nil-safe.
func (c *Collector) Stats() CollectorStats {
	if c == nil {
		return CollectorStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CollectorStats{
		RecentTraces: len(c.recent),
		ErrorTraces:  len(c.errors),
		SlowTraces:   len(c.slow),
		Collected:    c.collected,
		Evicted:      c.evicted,
	}
}

// EventSnapshot is one point annotation in a span snapshot.
type EventSnapshot struct {
	Name  string            `json:"name"`
	At    time.Time         `json:"at"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// SpanSnapshot is one span of a full trace snapshot. InProgress marks
// spans that had not ended when the snapshot was taken; their
// DurationMS is 0.
type SpanSnapshot struct {
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	InProgress bool              `json:"in_progress,omitempty"`
	Error      string            `json:"error,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Events     []EventSnapshot   `json:"events,omitempty"`

	DroppedAttrs  int `json:"dropped_attrs,omitempty"`
	DroppedEvents int `json:"dropped_events,omitempty"`
}

// TraceSnapshot is the full span tree of one trace as served by
// GET /v2/traces/{id}.
type TraceSnapshot struct {
	TraceID      string         `json:"trace_id"`
	Kind         string         `json:"kind,omitempty"`
	Error        bool           `json:"error,omitempty"`
	Start        time.Time      `json:"start"`
	DurationMS   float64        `json:"duration_ms"`
	Spans        []SpanSnapshot `json:"spans"`
	DroppedSpans int            `json:"dropped_spans,omitempty"`
}

// TraceSummary is the listing row served by GET /v2/traces.
type TraceSummary struct {
	TraceID    string    `json:"trace_id"`
	Root       string    `json:"root"`
	Kind       string    `json:"kind,omitempty"`
	Campaign   string    `json:"campaign,omitempty"`
	Error      bool      `json:"error,omitempty"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
	InProgress bool      `json:"in_progress,omitempty"`
}

func durationMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// snapshotSpan copies one span's state under its lock.
func snapshotSpan(s *Span) SpanSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss := SpanSnapshot{
		SpanID:        s.id.String(),
		Name:          s.name,
		Start:         s.start,
		InProgress:    !s.ended,
		Error:         s.err,
		DroppedAttrs:  s.droppedAttrs,
		DroppedEvents: s.droppedEvents,
	}
	if !s.parent.IsZero() {
		ss.ParentID = s.parent.String()
	}
	if s.ended {
		ss.InProgress = false
		ss.DurationMS = durationMS(s.end.Sub(s.start))
	}
	if len(s.attrs) > 0 {
		ss.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			ss.Attrs[a.Key] = a.Value
		}
	}
	for _, ev := range s.events {
		es := EventSnapshot{Name: ev.name, At: ev.at}
		if len(ev.attrs) > 0 {
			es.Attrs = make(map[string]string, len(ev.attrs))
			for _, a := range ev.attrs {
				es.Attrs[a.Key] = a.Value
			}
		}
		ss.Events = append(ss.Events, es)
	}
	return ss
}

// snapshot renders the trace's current state. Spans registered after
// the root ended are included — that is the point.
func snapshot(tr *trace) TraceSnapshot {
	tr.mu.Lock()
	spans := make([]*Span, len(tr.spans))
	copy(spans, tr.spans)
	ts := TraceSnapshot{
		TraceID:      tr.id.String(),
		Kind:         tr.kind,
		Error:        tr.failed,
		DroppedSpans: tr.dropped,
	}
	root := tr.root
	tr.mu.Unlock()
	for _, s := range spans {
		ts.Spans = append(ts.Spans, snapshotSpan(s))
	}
	if root != nil {
		ts.Start = root.start
	}
	ts.DurationMS = durationMS(traceDuration(tr))
	return ts
}

// summarize renders the trace's listing row, including the first
// "campaign" attribute found on any span so listings filter by
// campaign without walking full trees client-side.
func summarize(tr *trace) TraceSummary {
	tr.mu.Lock()
	spans := make([]*Span, len(tr.spans))
	copy(spans, tr.spans)
	sum := TraceSummary{
		TraceID: tr.id.String(),
		Kind:    tr.kind,
		Error:   tr.failed,
		Spans:   len(spans),
	}
	root := tr.root
	tr.mu.Unlock()
	if root != nil {
		sum.Root = root.name
		sum.Start = root.start
	}
	for _, s := range spans {
		s.mu.Lock()
		if !s.ended {
			sum.InProgress = true
		}
		if sum.Campaign == "" {
			for _, a := range s.attrs {
				if a.Key == "campaign" {
					sum.Campaign = a.Value
					break
				}
			}
		}
		s.mu.Unlock()
	}
	sum.DurationMS = durationMS(traceDuration(tr))
	return sum
}

// all returns every retained trace, deduplicated, newest root first.
func (c *Collector) all() []*trace {
	c.mu.Lock()
	seen := make(map[TraceID]bool, len(c.recent)+len(c.errors)+len(c.slow))
	out := make([]*trace, 0, len(c.recent)+len(c.errors)+len(c.slow))
	for _, pool := range [][]*trace{c.recent, c.errors, c.slow} {
		for _, tr := range pool {
			if tr == nil || seen[tr.id] {
				continue
			}
			seen[tr.id] = true
			out = append(out, tr)
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		var si, sj time.Time
		if out[i].root != nil {
			si = out[i].root.start
		}
		if out[j].root != nil {
			sj = out[j].root.start
		}
		if !si.Equal(sj) {
			return si.After(sj)
		}
		return out[i].id.String() < out[j].id.String()
	})
	return out
}

// TraceFilter narrows a Traces listing. Zero value matches everything.
type TraceFilter struct {
	// Campaign keeps only traces carrying this campaign attribute.
	Campaign string
	// MinDuration keeps only traces at least this long.
	MinDuration time.Duration
	// ErrorsOnly keeps only failed traces.
	ErrorsOnly bool
}

// Traces lists retained traces newest-first, filtered. Nil-safe.
func (c *Collector) Traces(f TraceFilter) []TraceSummary {
	if c == nil {
		return nil
	}
	var out []TraceSummary
	for _, tr := range c.all() {
		sum := summarize(tr)
		if f.Campaign != "" && sum.Campaign != f.Campaign {
			continue
		}
		if f.ErrorsOnly && !sum.Error {
			continue
		}
		if f.MinDuration > 0 && sum.DurationMS < durationMS(f.MinDuration) {
			continue
		}
		out = append(out, sum)
	}
	return out
}

// Trace returns the full span tree for one trace ID. Nil-safe.
func (c *Collector) Trace(id string) (TraceSnapshot, bool) {
	if c == nil {
		return TraceSnapshot{}, false
	}
	for _, tr := range c.all() {
		if tr.id.String() == id {
			return snapshot(tr), true
		}
	}
	return TraceSnapshot{}, false
}
