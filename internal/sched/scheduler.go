package sched

import (
	"context"
	"fmt"
	"sync"

	"imc2/internal/imcerr"
	"imc2/internal/obs"
	"imc2/internal/tracing"
)

// ErrQueueFull reports an admission queue at its configured depth
// bound: the settle was rejected immediately instead of queueing
// unboundedly. It carries imcerr.CodeUnavailable, so the wire layer
// maps it to 503 with a Retry-After — backpressure, not a failure of
// the campaign itself.
var ErrQueueFull error = imcerr.New(imcerr.CodeUnavailable, "sched: settle admission queue is full")

// Config sizes a Scheduler.
type Config struct {
	// Workers is the shared truth-discovery pool size. 0 means GOMAXPROCS.
	Workers int
	// MaxConcurrentSettles bounds how many settles may run their stages
	// at once; further settles queue FIFO. 0 means no admission bound
	// (every settle runs immediately, all sharing the bounded pool).
	MaxConcurrentSettles int
	// MaxQueuedSettles bounds the admission queue: an Acquire that would
	// queue deeper than this fails immediately with ErrQueueFull instead
	// of waiting. 0 means unbounded queueing. Only meaningful with a
	// concurrency bound (without one nothing ever queues).
	MaxQueuedSettles int
	// Obs, when non-nil, registers the scheduler's metrics
	// (imc2_sched_*): admission outcome counters, depth gauges, and
	// queue-wait / run-duration histograms. Nil disables instrumentation
	// entirely — no clocks are read.
	Obs *obs.Registry
}

// metrics holds the scheduler's instruments. The zero value (all nil)
// is the uninstrumented scheduler: every method call below no-ops.
type metrics struct {
	admitted    *obs.Counter
	completed   *obs.Counter
	rejected    *obs.Counter
	overflowed  *obs.Counter
	queueWait   *obs.Histogram
	runDuration *obs.Histogram
}

func newMetrics(r *obs.Registry, s *Scheduler) (m metrics) {
	if r == nil {
		return m
	}
	m.admitted = r.Counter("imc2_sched_settles_admitted_total",
		"Settles granted an admission slot.")
	m.completed = r.Counter("imc2_sched_settles_completed_total",
		"Settles that released their admission slot.")
	m.rejected = r.Counter("imc2_sched_settles_rejected_total",
		"Settles abandoned while queued (context expiry).")
	m.overflowed = r.Counter("imc2_sched_settles_overflowed_total",
		"Settles rejected because the admission queue was at its depth bound.")
	m.queueWait = r.Histogram("imc2_sched_queue_wait_seconds",
		"Admission wait of settles that queued (immediate admissions are not observed).",
		obs.LatencyBuckets)
	m.runDuration = r.Histogram("imc2_sched_settle_run_seconds",
		"Wall time an admitted settle held its slot.", obs.LatencyBuckets)
	r.GaugeFunc("imc2_sched_active_settles_count",
		"Settles currently holding an admission slot.",
		func() float64 { return float64(s.Stats().ActiveSettles) })
	r.GaugeFunc("imc2_sched_queued_settles_count",
		"Settles currently waiting for admission.",
		func() float64 { return float64(s.Stats().QueuedSettles) })
	return m
}

// AdmissionState is a campaign's position in the settle scheduler.
type AdmissionState int

const (
	// AdmissionNone: the campaign has no settle in the scheduler.
	AdmissionNone AdmissionState = iota
	// AdmissionQueued: the settle is waiting for an admission slot.
	AdmissionQueued
	// AdmissionRunning: the settle holds an admission slot.
	AdmissionRunning
)

// String names the admission state as it appears on the wire.
func (s AdmissionState) String() string {
	switch s {
	case AdmissionNone:
		return "none"
	case AdmissionQueued:
		return "queued"
	case AdmissionRunning:
		return "running"
	default:
		return fmt.Sprintf("admission(%d)", int(s))
	}
}

// Stats is a point-in-time snapshot of the scheduler.
type Stats struct {
	// Workers is the shared pool size (the bound on truth-discovery
	// goroutines across every concurrent settle).
	Workers int
	// MaxConcurrentSettles is the admission bound (0 = unlimited).
	MaxConcurrentSettles int
	// ActiveSettles counts settles currently holding an admission slot.
	ActiveSettles int
	// QueuedSettles counts settles waiting for admission.
	QueuedSettles int
	// PeakActiveSettles is the historical maximum of ActiveSettles.
	PeakActiveSettles int
	// PeakQueuedSettles is the historical maximum of QueuedSettles.
	PeakQueuedSettles int
	// MaxQueuedSettles is the admission queue depth bound (0 =
	// unbounded).
	MaxQueuedSettles int
	// TotalAdmitted counts settles ever granted a slot.
	TotalAdmitted int64
	// TotalCompleted counts settles that released their slot.
	TotalCompleted int64
	// TotalRejected counts settles abandoned while queued (ctx expiry).
	TotalRejected int64
	// TotalOverflowed counts settles rejected at the door because the
	// queue was at its depth bound (ErrQueueFull).
	TotalOverflowed int64
}

// Scheduler is a registry-wide settle gate: a FIFO admission semaphore
// in front of one shared worker pool. Construct with New; all methods
// are safe for concurrent use. It satisfies platform.Admission, and its
// Pool satisfies truth.Executor.
type Scheduler struct {
	pool       *Pool
	maxSettles int
	maxQueued  int

	mu sync.Mutex
	// active is the semaphore count: admission slots currently held. It
	// is tracked separately from the key map because keys need not be
	// unique — two settles acquiring under the same (or an empty) key
	// must still consume two slots.
	active int
	// running ref-counts held slots per key for StateOf.
	running map[string]int
	queue   []*waiter
	stats   Stats

	// m holds the obs instruments; all nil on an uninstrumented
	// scheduler, whose phases then read no clock (see tracing.Phase).
	m metrics
}

// waiter is one settle waiting for admission.
type waiter struct {
	key      string
	ready    chan struct{}
	admitted bool // set under Scheduler.mu when the slot is granted
	// wait times the queue wait into the histogram and the
	// "sched.admitted" span event; inert when neither is attached.
	wait tracing.Phase
}

// New builds a scheduler and starts its shared pool.
func New(cfg Config) *Scheduler {
	s := &Scheduler{
		pool:       NewPool(cfg.Workers),
		maxSettles: cfg.MaxConcurrentSettles,
		maxQueued:  cfg.MaxQueuedSettles,
		running:    make(map[string]int),
	}
	if s.maxSettles < 0 {
		s.maxSettles = 0
	}
	if s.maxQueued < 0 {
		s.maxQueued = 0
	}
	s.m = newMetrics(cfg.Obs, s)
	return s
}

// Pool returns the shared executor every admitted settle's
// truth-discovery passes run on.
func (s *Scheduler) Pool() *Pool { return s.pool }

// Close stops the shared pool. Settles queued or running are not
// interrupted (admission itself needs no goroutines); their
// truth-discovery passes degrade to inline serial runs.
func (s *Scheduler) Close() { s.pool.Close() }

// Acquire blocks until the settle identified by key may run, FIFO among
// waiters, or until ctx expires. With a queue depth bound configured,
// an Acquire that would exceed it fails immediately with ErrQueueFull —
// backpressure instead of an unbounded queue. The returned release
// function must be called exactly once when the settle's stages finish.
// When ctx carries a tracing span, admission and release are recorded
// as events on it ("sched.admitted" with the queue wait, then
// "sched.released" with the slot-hold time). Acquire satisfies
// platform.Admission.
func (s *Scheduler) Acquire(ctx context.Context, key string) (release func(), err error) {
	span := tracing.SpanFromContext(ctx)
	s.mu.Lock()
	if s.maxSettles == 0 || (len(s.queue) == 0 && s.active < s.maxSettles) {
		s.admitLocked(key)
		s.mu.Unlock()
		span.Event("sched.admitted", tracing.Str("queued", "false"))
		return s.releaseFunc(key, span), nil
	}
	if s.maxQueued > 0 && len(s.queue) >= s.maxQueued {
		s.stats.TotalOverflowed++
		s.mu.Unlock()
		s.m.overflowed.Inc()
		return nil, ErrQueueFull
	}
	w := &waiter{key: key, ready: make(chan struct{}), wait: tracing.StartEventPhase(span, s.m.queueWait)}
	s.queue = append(s.queue, w)
	if q := len(s.queue); q > s.stats.PeakQueuedSettles {
		s.stats.PeakQueuedSettles = q
	}
	s.mu.Unlock()

	select {
	case <-w.ready:
		w.wait.EndEvent("sched.admitted", "queue_wait_seconds", tracing.Str("queued", "true"))
		return s.releaseFunc(key, span), nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.admitted {
			// The slot was granted in the instant ctx fired; keep it —
			// the settle proceeds rather than wasting the admission.
			s.mu.Unlock()
			w.wait.EndEvent("sched.admitted", "queue_wait_seconds", tracing.Str("queued", "true"))
			return s.releaseFunc(key, span), nil
		}
		for i, qw := range s.queue {
			if qw == w {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.stats.TotalRejected++
		s.mu.Unlock()
		s.m.rejected.Inc()
		return nil, ctx.Err()
	}
}

// releaseFunc wraps release for one admission, timing how long the
// slot was held into the histogram and the "sched.released" event on
// span (nil: untraced).
func (s *Scheduler) releaseFunc(key string, span *tracing.Span) func() {
	run := tracing.StartEventPhase(span, s.m.runDuration)
	return func() {
		run.EndEvent("sched.released", "run_seconds")
		s.release(key)
	}
}

// admitLocked grants key a slot and updates the counters.
func (s *Scheduler) admitLocked(key string) {
	s.active++
	s.running[key]++
	s.stats.TotalAdmitted++
	s.m.admitted.Inc()
	if s.active > s.stats.PeakActiveSettles {
		s.stats.PeakActiveSettles = s.active
	}
}

// release returns key's slot and admits the head of the queue.
func (s *Scheduler) release(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	if s.running[key]--; s.running[key] <= 0 {
		delete(s.running, key)
	}
	s.stats.TotalCompleted++
	s.m.completed.Inc()
	for len(s.queue) > 0 && (s.maxSettles == 0 || s.active < s.maxSettles) {
		w := s.queue[0]
		s.queue = s.queue[1:]
		w.admitted = true
		s.admitLocked(w.key)
		close(w.ready)
	}
}

// StateOf reports key's admission state; for AdmissionQueued the second
// result is its 1-based queue position.
func (s *Scheduler) StateOf(key string) (AdmissionState, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running[key] > 0 {
		return AdmissionRunning, 0
	}
	for i, w := range s.queue {
		if w.key == key {
			return AdmissionQueued, i + 1
		}
	}
	return AdmissionNone, 0
}

// Stats snapshots the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Workers = s.pool.Workers()
	st.MaxConcurrentSettles = s.maxSettles
	st.MaxQueuedSettles = s.maxQueued
	st.ActiveSettles = s.active
	st.QueuedSettles = len(s.queue)
	return st
}

// NoteOverflow records a settle rejected before it reached Acquire —
// the wire layer's synchronous 503 on a full queue — so
// TotalOverflowed counts every backpressure rejection regardless of
// which layer issued it.
func (s *Scheduler) NoteOverflow() {
	s.mu.Lock()
	s.stats.TotalOverflowed++
	s.mu.Unlock()
	s.m.overflowed.Inc()
}

// QueueFull reports whether a new settle would be rejected right now
// because the admission queue is at its depth bound. It is advisory —
// the authoritative check happens inside Acquire — but lets the wire
// layer answer an overflowing close synchronously with 503 instead of
// accepting work it already knows will be rejected.
func (s *Scheduler) QueueFull() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxSettles == 0 || s.maxQueued == 0 {
		return false
	}
	return len(s.queue) >= s.maxQueued && s.active >= s.maxSettles
}
