package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"time"

	"imc2/internal/sched"
	"imc2/internal/store"
	"imc2/internal/truth"
)

// span is one timed interval of the traced run, recorded by the harness
// around its calls into a layer. Times are nanoseconds since the run
// started; spans of one cycle or session share its root.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	tr     *tracer
}

// tracer keeps the traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs pay no more than a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) startAt(name string, parent *span, at time.Time) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Start: at.Sub(t.t0).Nanoseconds(), tr: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (t *tracer) start(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	return t.startAt(name, parent, time.Now())
}

// record adds a finished span.
func (t *tracer) record(name string, parent *span, start, end time.Time) *span {
	s := t.startAt(name, parent, start)
	s.endAt(end)
	return s
}

func (s *span) endAt(at time.Time) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.End = at.Sub(s.tr.t0).Nanoseconds()
	s.tr.mu.Unlock()
}

func (s *span) end() {
	if s != nil && s.End == 0 {
		s.endAt(time.Now())
	}
}

func (s *span) set(key string, v any) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = map[string]any{}
	}
	s.Attrs[key] = v
	s.tr.mu.Unlock()
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// appendRec is one store append seen by the decorator.
type appendRec struct {
	typ store.EventType
	// subs counts the submissions a submissions event carries.
	subs       int
	start, end time.Time
	// walGrowth is how many bytes the WAL grew, or -1 when the append
	// folded a snapshot and rotated the WAL.
	walGrowth int64
}

// iteration is one truth-discovery iteration seen by the trace sink, with
// the time the sink observed it (the end of its estimate pass).
type iteration struct {
	at    time.Time
	stats truth.IterationStats
}

// closeTrace is one close's layer timeline, read from the server's seams.
type closeTrace struct {
	start, end, reportStart  time.Time
	closeReq, settled        *appendRec
	acquireStart, acquireEnd time.Time
	assembled, released      time.Time
	iterations               []iteration
}

// probe is the traced server's set of seams: a store decorator, an
// admission wrapper, a truth.Trace sink and the settle's warm-start hook.
// It attributes what they see to the close in flight (one at a time).
type probe struct {
	mu      sync.Mutex
	cur     *closeTrace
	appends []appendRec
}

func (p *probe) beginClose() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.cur = &closeTrace{}
	p.mu.Unlock()
}

func (p *probe) endClose() *closeTrace {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ct := p.cur
	p.cur = nil
	return ct
}

// ObserveIteration makes the probe a truth.Trace.
func (p *probe) ObserveIteration(s truth.IterationStats) {
	now := time.Now()
	p.mu.Lock()
	if p.cur != nil {
		p.cur.iterations = append(p.cur.iterations, iteration{at: now, stats: s})
	}
	p.mu.Unlock()
}

func (p *probe) assembled() {
	now := time.Now()
	p.mu.Lock()
	if p.cur != nil {
		p.cur.assembled = now
	}
	p.mu.Unlock()
}

// timedStore times every append of the FileStore it wraps. It keeps the
// ContextAppender seam, so the registry takes the same path as with the
// bare store.
type timedStore struct {
	*store.FileStore
	p *probe
}

func (s timedStore) Append(ev store.Event) error {
	return s.p.timeAppend(s.FileStore, ev, func() error { return s.FileStore.Append(ev) })
}

func (s timedStore) AppendContext(ctx context.Context, ev store.Event) error {
	return s.p.timeAppend(s.FileStore, ev, func() error { return s.FileStore.AppendContext(ctx, ev) })
}

func (p *probe) timeAppend(st *store.FileStore, ev store.Event, appendFn func() error) error {
	before := st.Stats()
	start := time.Now()
	err := appendFn()
	end := time.Now()
	after := st.Stats()
	rec := appendRec{typ: ev.Type, subs: len(ev.Submissions), start: start, end: end, walGrowth: after.WALBytes - before.WALBytes}
	if after.SnapshotsWritten != before.SnapshotsWritten {
		rec.walGrowth = -1
	}
	p.mu.Lock()
	p.appends = append(p.appends, rec)
	if p.cur != nil {
		switch ev.Type {
		case store.EventCloseRequested:
			p.cur.closeReq = &rec
		case store.EventSettled:
			p.cur.settled = &rec
		}
	}
	p.mu.Unlock()
	return err
}

// timedAdmission wraps the settle scheduler as a platform.Admission,
// timing the queue wait and the slot's hold.
type timedAdmission struct {
	s *sched.Scheduler
	p *probe
}

func (a timedAdmission) Acquire(ctx context.Context, key string) (func(), error) {
	start := time.Now()
	release, err := a.s.Acquire(ctx, key)
	end := time.Now()
	a.p.mu.Lock()
	if a.p.cur != nil {
		a.p.cur.acquireStart, a.p.cur.acquireEnd = start, end
	}
	a.p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return func() {
		now := time.Now()
		a.p.mu.Lock()
		if a.p.cur != nil {
			a.p.cur.released = now
		}
		a.p.mu.Unlock()
		release()
	}, nil
}

// closeParts is one close's wall time split into the consecutive layer
// intervals on its blocking path; unaccounted is what they leave over.
type closeParts struct {
	dispatch     time.Duration // POST close sent → close-requested append starts
	closeReq     time.Duration // store: close-requested append
	queueWait    time.Duration // sched: Acquire
	assemble     time.Duration // platform: admission → dataset assembled
	dependence   time.Duration // truth: Σ dependence passes
	independence time.Duration // truth: Σ independence passes
	estimate     time.Duration // truth: Σ estimate passes
	finish       time.Duration // platform: last truth pass → settled append (audit, auction, report)
	settled      time.Duration // store: settled append, with its fsync
	pollTail     time.Duration // wire: settled append done → settled snapshot in hand
	report       time.Duration // wire: GET report
	run          time.Duration // sched: slot held (overlaps assemble…finish)
	iterations   int
	unaccounted  time.Duration
}

// parts splits the close; ok is false when a seam did not fire.
func (ct *closeTrace) parts() (closeParts, bool) {
	var cp closeParts
	if ct.closeReq == nil || ct.settled == nil || ct.acquireEnd.IsZero() || ct.assembled.IsZero() ||
		ct.released.IsZero() || len(ct.iterations) == 0 {
		return cp, false
	}
	last := ct.iterations[len(ct.iterations)-1].at
	cp.dispatch = ct.closeReq.start.Sub(ct.start)
	cp.closeReq = ct.closeReq.end.Sub(ct.closeReq.start)
	cp.queueWait = ct.acquireEnd.Sub(ct.acquireStart)
	cp.assemble = ct.assembled.Sub(ct.acquireEnd)
	for _, it := range ct.iterations {
		cp.dependence += seconds(it.stats.DependenceSeconds)
		cp.independence += seconds(it.stats.IndependenceSeconds)
		cp.estimate += seconds(it.stats.EstimateSeconds)
	}
	cp.finish = ct.settled.start.Sub(last)
	cp.settled = ct.settled.end.Sub(ct.settled.start)
	cp.pollTail = ct.reportStart.Sub(ct.settled.end)
	cp.report = ct.end.Sub(ct.reportStart)
	cp.run = ct.released.Sub(ct.acquireEnd)
	cp.iterations = len(ct.iterations)
	cp.unaccounted = ct.end.Sub(ct.start) - (cp.dispatch + cp.closeReq + cp.queueWait + cp.assemble +
		cp.dependence + cp.independence + cp.estimate + cp.finish + cp.settled + cp.pollTail + cp.report)
	return cp, true
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// emit records the close's server-side timeline as spans under parent.
func (ct *closeTrace) emit(tr *tracer, parent *span) {
	if ct.closeReq != nil {
		tr.record("store.append", parent, ct.closeReq.start, ct.closeReq.end).set("event", string(ct.closeReq.typ))
	}
	if ct.acquireEnd.IsZero() {
		return
	}
	tr.record("sched.queue_wait", parent, ct.acquireStart, ct.acquireEnd)
	if !ct.released.IsZero() {
		tr.record("sched.run", parent, ct.acquireEnd, ct.released)
	}
	if !ct.assembled.IsZero() {
		tr.record("platform.assemble", parent, ct.acquireEnd, ct.assembled)
	}
	for _, it := range ct.iterations {
		est := it.at.Add(-seconds(it.stats.EstimateSeconds))
		ind := est.Add(-seconds(it.stats.IndependenceSeconds))
		dep := ind.Add(-seconds(it.stats.DependenceSeconds))
		s := tr.record("truth.iteration", parent, dep, it.at)
		s.set("iteration", it.stats.Iteration)
		s.set("changed", it.stats.Changed)
		tr.record("truth.dependence", s, dep, ind)
		tr.record("truth.independence", s, ind, est)
		tr.record("truth.estimate", s, est, it.at)
	}
	if ct.settled != nil && len(ct.iterations) > 0 {
		tr.record("platform.finish", parent, ct.iterations[len(ct.iterations)-1].at, ct.settled.start)
		tr.record("store.append", parent, ct.settled.start, ct.settled.end).set("event", string(ct.settled.typ))
	}
}
