// Package platform implements the crowdsourcing campaign lifecycle of the
// paper's Fig. 1: the platform publicizes tasks with accuracy
// requirements, workers submit sealed bids together with their data, the
// platform runs truth discovery (estimating worker accuracies), and a
// reverse auction selects winners and computes payments.
package platform

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"unicode/utf8"

	"imc2/internal/auction"
	"imc2/internal/imcerr"
	"imc2/internal/model"
	"imc2/internal/tracing"
	"imc2/internal/truth"
)

// Mechanism selects the auction algorithm for the second stage.
type Mechanism int

const (
	// MechanismReverseAuction is Algorithm 2 (the IMC2 mechanism).
	MechanismReverseAuction Mechanism = iota + 1
	// MechanismGreedyAccuracy is the GA baseline.
	MechanismGreedyAccuracy
	// MechanismGreedyBid is the GB baseline.
	MechanismGreedyBid
)

// String names the mechanism as the paper does.
func (m Mechanism) String() string {
	switch m {
	case MechanismReverseAuction:
		return "ReverseAuction"
	case MechanismGreedyAccuracy:
		return "GA"
	case MechanismGreedyBid:
		return "GB"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// Admission gates the expensive settle stages behind a shared scheduler
// (see internal/sched.Scheduler, which satisfies it). Acquire blocks —
// FIFO among waiters, bounded by ctx — until the settle identified by
// key may run, and returns the release the settle must call when its
// stages finish.
type Admission interface {
	Acquire(ctx context.Context, key string) (release func(), err error)
}

// Config assembles both stages of IMC2.
type Config struct {
	// TruthMethod selects the stage-1 algorithm (default DATE).
	TruthMethod truth.Method
	// TruthOptions parameterizes stage 1 (default truth.DefaultOptions).
	TruthOptions truth.Options
	// Mechanism selects the stage-2 auction (default ReverseAuction).
	Mechanism Mechanism

	// Admission, when non-nil, makes Settle acquire an admission slot
	// (identified by SettleKey) after the campaign enters Closing and
	// before the stages run, releasing it when they finish. This is how
	// a registry bounds how many settles execute concurrently; while
	// queued the campaign stays Closing (submissions frozen) and the
	// scheduler reports its queue position. Nil settles immediately.
	Admission Admission
	// SettleKey identifies this campaign to the Admission scheduler
	// (queue-position reporting and per-campaign fairness).
	SettleKey string

	// RecordClosing, when non-nil, is invoked by the settling caller
	// right after the campaign enters Closing and before admission —
	// the durability hook that logs a close-requested event. An error
	// fails the settle before any stage runs (the campaign reverts to
	// Open). Submissions are already frozen when it runs, so the event
	// it appends is ordered after every accepted submission. ctx is the
	// settle's context — carrying its trace span when tracing is on —
	// never a cancellation signal the hook must honor.
	RecordClosing func(ctx context.Context) error
	// RecordSettled, when non-nil, is invoked after both stages succeed
	// and before the campaign transitions to Settled. An error fails
	// the settle (the campaign reverts to Open and the report is
	// discarded) — a campaign never reads Settled in memory unless its
	// report is durable. The campaign is still Closing while it runs,
	// so no submission or lifecycle event can interleave. ctx carries
	// the settle's trace span, as for RecordClosing. conv is the
	// settle's per-iteration telemetry, recorded for every truth method;
	// when audit is non-nil, audit.Convergence is the same slice (a
	// method without a dependence model has no audit, but still
	// iterates).
	RecordSettled func(ctx context.Context, rep *Report, audit *Audit, conv []truth.IterationStats) error

	// WarmStart, when non-nil, is consulted by the settle stages after
	// the campaign enters Closing, once the dataset is assembled: given
	// the frozen submission count, it may return a resumable truth
	// engine whose dataset was assembled — with the settle's own method
	// and options — from exactly those submissions in acceptance order.
	// The settle resumes it to convergence instead of starting cold;
	// because the engine is the cold computation paused, the settled
	// report is byte-identical either way. Returning nil falls back to a
	// cold run, which also makes the hook a probe for the end of
	// assembly.
	WarmStart func(frozenSubs int) *truth.Engine
}

// DefaultConfig returns the paper's configuration: DATE + ReverseAuction.
func DefaultConfig() Config {
	return Config{
		TruthMethod:  truth.MethodDATE,
		TruthOptions: truth.DefaultOptions(),
		Mechanism:    MechanismReverseAuction,
	}
}

// Submission is one worker's sealed envelope: the bid price and the data
// for the tasks the worker performed (D_i determines T_i).
//
// The JSON tags are the wire envelope a worker posts and the store's
// submissions record.
type Submission struct {
	Worker string `json:"worker"`
	// Price is the claimed cost b_i.
	Price float64 `json:"price"`
	// Answers maps task ID → value. Submit copies the answers into the
	// campaign's log, so the caller keeps the map and may reuse or
	// modify it once Submit returns.
	Answers map[string]string `json:"answers"`
}

// ErrDuplicateSubmission reports a worker submitting twice. It carries
// imcerr.CodeConflict.
var ErrDuplicateSubmission error = imcerr.New(imcerr.CodeConflict, "platform: worker already submitted")

// Platform runs one campaign through its lifecycle (see State). Construct
// with New (or NewDraft), feed with Submit, and settle with Settle. All
// methods are safe for concurrent use; the two settle stages run without
// holding the campaign lock.
type Platform struct {
	tasks   []model.Task
	taskIdx map[string]int

	mu       sync.Mutex
	state    State
	settling chan struct{} // non-nil while StateClosing; closed on exit
	log      subLog
	byID     map[string]bool
	report   *Report
	audit    *Audit
}

// subLog holds the accepted submissions in index form, in acceptance
// order: row i is dataset worker i, and prices[i] is its bid. It only
// grows — a rejected submission's cells are taken back before p.mu is
// released — so a snapshot stays valid while later submissions append.
type subLog struct {
	model.Rows
	prices []float64
	// index[j] maps task j's values to their dictionary indexes once the
	// dictionary has reached indexFrom entries (nil before), so a task
	// that receives many distinct values is not scanned per answer.
	// Only the live log reads it.
	index []map[string]int32
}

// indexFrom is the dictionary size from which intern looks values up in
// the task's index: an honest task has num_j+1 values, so an index
// pays only for input that gives a task many distinct values.
const indexFrom = 16

// stage appends one answer of worker's submission as an uncommitted
// cell, interning v into task j's dictionary; j < 0 is a task ID the
// campaign did not publish. An answer naming an unpublished task,
// carrying an empty value, or adding a value that is not valid UTF-8
// fails the submission; the caller then truncates the staged cells. The
// caller holds p.mu and either commits the row or truncates it before
// releasing the lock.
func (l *subLog) stage(worker string, j int, taskID, v string) error {
	if j < 0 {
		return imcerr.New(imcerr.CodeInvalid, "platform: %q answered unpublished task %q", worker, taskID)
	}
	if v == "" {
		return imcerr.New(imcerr.CodeInvalid, "platform: %q submitted an empty value for %q", worker, taskID)
	}
	val, ok := l.intern(j, v)
	if !ok {
		return imcerr.New(imcerr.CodeInvalid, "platform: %q submitted a value for %q that is not valid UTF-8", worker, taskID)
	}
	l.Cells = append(l.Cells, model.Cell{Task: int32(j), Val: val})
	return nil
}

// commit makes the cells staged from start on a row: it clears their
// new-value marks and records the worker and bid. The row keeps the
// order its answers were staged in; model.FromRows needs no sorted rows.
func (l *subLog) commit(worker string, price float64, start int) {
	for k := start; k < len(l.Cells); k++ {
		if l.Cells[k].Val < 0 {
			l.Cells[k].Val = ^l.Cells[k].Val
		}
	}
	l.Workers = append(l.Workers, worker)
	l.prices = append(l.prices, price)
	l.Offsets = append(l.Offsets, len(l.Cells))
}

// intern returns v's index in task j's value dictionary. A value the
// dictionary lacks is appended and its index returned complemented
// (negative), which marks it for truncate until the row is committed;
// ok is false, and nothing is appended, for a new value that is not
// valid UTF-8, so every dictionary entry is valid UTF-8. A dictionary
// holds one entry per distinct value the task has received: it is
// scanned while it is short, and looked up in index[j] from indexFrom
// entries on.
func (l *subLog) intern(j int, v string) (val int32, ok bool) {
	dict, idx := l.Values[j], l.index[j]
	if idx != nil {
		if k, ok := idx[v]; ok {
			return k, true
		}
	} else {
		for k, s := range dict {
			if s == v {
				return int32(k), true
			}
		}
	}
	if !utf8.ValidString(v) {
		return 0, false
	}
	if idx == nil && len(dict)+1 == indexFrom {
		idx = make(map[string]int32, 2*indexFrom)
		for k, s := range dict {
			idx[s] = int32(k)
		}
		l.index[j] = idx
	}
	if idx != nil {
		idx[v] = int32(len(dict))
	}
	l.Values[j] = append(dict, v)
	return ^int32(len(dict)), true
}

// truncate drops the uncommitted cells from start on, together with the
// dictionary and index entries they added.
func (l *subLog) truncate(start int) {
	for _, c := range l.Cells[start:] {
		if c.Val < 0 {
			dict := l.Values[c.Task]
			delete(l.index[c.Task], dict[len(dict)-1])
			l.Values[c.Task] = dict[:len(dict)-1]
		}
	}
	l.Cells = l.Cells[:start]
}

// snapshot returns the log as it stands. The copy shares every backing
// array but owns its slice headers, dictionary headers included, so
// appends after it — which only write past its lengths — leave it
// intact. The caller holds p.mu.
func (l *subLog) snapshot() subLog {
	s := *l
	s.Values = append([][]string(nil), l.Values...)
	return s
}

// New opens a campaign over the given tasks (state Open).
func New(tasks []model.Task) (*Platform, error) {
	p, err := NewDraft(tasks)
	if err != nil {
		return nil, err
	}
	p.state = StateOpen
	return p, nil
}

// NewDraft declares a campaign without publicizing it (state Draft);
// submissions are rejected until Open is called.
func NewDraft(tasks []model.Task) (*Platform, error) {
	if len(tasks) == 0 {
		return nil, imcerr.New(imcerr.CodeInvalid, "platform: campaign needs at least one task")
	}
	p := &Platform{
		taskIdx: make(map[string]int, len(tasks)),
		byID:    make(map[string]bool),
		state:   StateDraft,
	}
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, imcerr.Wrap(imcerr.CodeInvalid, err)
		}
		if _, dup := p.taskIdx[t.ID]; dup {
			return nil, imcerr.New(imcerr.CodeInvalid, "platform: duplicate task %q", t.ID)
		}
		p.taskIdx[t.ID] = len(p.tasks)
		p.tasks = append(p.tasks, t)
	}
	p.log.Offsets = []int{0}
	p.log.Values = make([][]string, len(p.tasks))
	p.log.index = make([]map[string]int32, len(p.tasks))
	return p, nil
}

// Tasks returns the published task list.
func (p *Platform) Tasks() []model.Task {
	return append([]model.Task(nil), p.tasks...)
}

// NumTasks counts the published tasks without copying them.
func (p *Platform) NumTasks() int { return len(p.tasks) }

// Submit registers a sealed submission. Each worker may submit once; the
// submission must bid a finite, non-negative price under a worker ID
// that is valid UTF-8, and answer at least one published task with
// non-empty, valid UTF-8 values. Submissions are only accepted while the
// campaign is Open. An invalid submission is reported as such even when
// the campaign would also refuse it for its state or as a duplicate.
func (p *Platform) Submit(sub Submission) error {
	if err := checkHead(sub.Worker, sub.Price, len(sub.Answers)); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	start := len(p.log.Cells)
	// Answers are staged in map order; of several refused answers, the
	// one with the smallest task ID is reported, as SubmitRows reports
	// it on RowsOf's sorted rows.
	var refused error
	var refusedID string
	for taskID, v := range sub.Answers {
		j, ok := p.taskIdx[taskID]
		if !ok {
			j = -1
		}
		if err := p.log.stage(sub.Worker, j, taskID, v); err != nil && (refused == nil || taskID < refusedID) {
			refused, refusedID = err, taskID
		}
	}
	if refused != nil {
		p.log.truncate(start)
		return refused
	}
	return p.commitLocked(sub.Worker, sub.Price, start)
}

// SubmitRows registers rows in order, under Submit's rules, until the
// first refused row. It returns how many rows were accepted and that
// row's error. Accepted rows stand.
func (p *Platform) SubmitRows(rows Rows) (int, error) {
	var res resolved
	for i, r := range rows {
		if r.t != res.t {
			res = p.resolve(r.t)
		}
		if err := p.submitRow(r, &res); err != nil {
			return i, err
		}
	}
	return len(rows), nil
}

// resolved maps a row table onto the campaign: taskOf[k] is key k's
// task index (-1: not published), and valOf[v] is value v's index in
// its task's dictionary once a committed entry holds it (-1: not
// looked up yet). Committed dictionary entries never move, so valOf
// stays valid while other submissions interleave.
type resolved struct {
	t      *rowTable
	taskOf []int32
	valOf  []int32
}

func (p *Platform) resolve(t *rowTable) resolved {
	idx := make([]int32, len(t.keys)+len(t.vals))
	res := resolved{t: t, taskOf: idx[:len(t.keys)], valOf: idx[len(t.keys):]}
	for k, id := range t.keys {
		j, ok := p.taskIdx[id]
		if !ok {
			j = -1
		}
		res.taskOf[k] = int32(j)
	}
	for v := range res.valOf {
		res.valOf[v] = -1
	}
	return res
}

// submitRow is Submit for one row of res's table.
func (p *Platform) submitRow(r Row, res *resolved) error {
	if err := checkHead(r.Worker, r.Price, len(r.cells)); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	start := len(p.log.Cells)
	for _, c := range r.cells {
		j := res.taskOf[c.Task]
		if v := res.valOf[c.Val]; v >= 0 {
			p.log.Cells = append(p.log.Cells, model.Cell{Task: j, Val: v})
			continue
		}
		if err := p.log.stage(r.Worker, int(j), r.t.keys[c.Task], r.t.vals[c.Val]); err != nil {
			p.log.truncate(start)
			return err
		}
		if v := p.log.Cells[len(p.log.Cells)-1].Val; v >= 0 {
			res.valOf[c.Val] = v
		}
	}
	return p.commitLocked(r.Worker, r.Price, start)
}

// checkHead validates a submission's bid and answer count.
func checkHead(worker string, price float64, answers int) error {
	if err := (model.Bid{Worker: worker, Price: price}).Validate(); err != nil {
		return imcerr.Wrap(imcerr.CodeInvalid, err)
	}
	if answers == 0 {
		return imcerr.New(imcerr.CodeInvalid, "platform: submission from %q has no answers", worker)
	}
	return nil
}

// commitLocked commits the cells staged from start as worker's row, or
// truncates them when the campaign refuses the worker. The caller holds
// p.mu.
func (p *Platform) commitLocked(worker string, price float64, start int) error {
	if err := p.acceptsFrom(worker); err != nil {
		p.log.truncate(start)
		return err
	}
	p.log.commit(worker, price, start)
	p.byID[worker] = true
	return nil
}

// acceptsFrom reports why the campaign refuses a submission from worker
// in its current state, or nil. The caller holds p.mu.
func (p *Platform) acceptsFrom(worker string) error {
	switch p.state {
	case StateOpen:
	case StateDraft:
		return imcerr.New(imcerr.CodeConflict, "platform: campaign is still a draft")
	case StateCancelled:
		return imcerr.New(imcerr.CodeConflict, "platform: campaign is cancelled")
	default: // Closing, Settled
		return imcerr.New(imcerr.CodeConflict, "platform: auction already closed")
	}
	if p.byID[worker] {
		return fmt.Errorf("%w: %q", ErrDuplicateSubmission, worker)
	}
	return nil
}

// Submissions returns how many workers have submitted.
func (p *Platform) Submissions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.log.Workers)
}

// Report is the settled campaign outcome. Its JSON encoding is both the
// GET …/report body and the report of the store's settled event.
type Report struct {
	// Truth maps task ID → estimated value.
	Truth map[string]string `json:"truth"`
	// Winners lists winning worker IDs in selection order.
	Winners []string `json:"winners"`
	// Payments maps worker ID → payment (winners only).
	Payments map[string]float64 `json:"payments"`
	// WorkerAccuracy maps worker ID → estimated mean accuracy.
	WorkerAccuracy map[string]float64 `json:"worker_accuracy"`
	// SocialCost is the winners' total bid (the SOAC objective).
	SocialCost float64 `json:"social_cost"`
	// TotalPayment is the platform's outlay.
	TotalPayment float64 `json:"total_payment"`
	// PlatformUtility is V(S) − Σp (eq. 2).
	PlatformUtility float64 `json:"platform_utility"`
	// TruthIterations is how many refinement rounds stage 1 used.
	TruthIterations int `json:"truth_iterations"`
	// Converged reports whether stage 1 stopped before MaxIterations,
	// its truth vector back at one of its last four values.
	Converged bool `json:"converged"`
}

// SuspectPair is a worker pair the platform flags for audit, with the
// posterior copying probabilities in both directions.
type SuspectPair struct {
	WorkerA string  `json:"worker_a"`
	WorkerB string  `json:"worker_b"`
	AtoB    float64 `json:"a_to_b"`
	BtoA    float64 `json:"b_to_a"`
}

// Audit lists the TopK most dependence-suspicious worker pairs (and each
// worker's copier score) discovered during Run. Empty until Run executes
// with a dependence-aware method. Its JSON encoding is both the
// GET …/audit body and the audit of the store's settled event; a
// zero-pair audit encodes "pairs":null.
type Audit struct {
	Pairs        []SuspectPair      `json:"pairs"`
	CopierScores map[string]float64 `json:"copier_scores"`
	// Convergence is the settle's per-iteration telemetry — pass wall
	// times and how many task truths moved each round (truth.Trace).
	// Wall-clock times vary run to run; equality checks on settle output
	// should compare Reports, which stay bit-identical.
	Convergence []truth.IterationStats `json:"convergence,omitempty"`
}

// Run executes both stages and settles the campaign. It is the
// synchronous convenience form of Settle with a background context; once
// settled, subsequent calls return the cached report. Callers that need
// cancellation or deadlines use Settle directly.
func (p *Platform) Run(cfg Config) (*Report, error) {
	return p.Settle(context.Background(), cfg) //lint:allow ctxscope documented uncancellable convenience wrapper over Settle
}

// runStages assembles the frozen submissions and executes truth
// discovery and the auction on them. It must only be called by Settle
// while the campaign is Closing (submissions frozen), and deliberately
// holds no lock: ctx is checked at stage boundaries so an abandoned
// settle stops between the expensive phases.
func (p *Platform) runStages(ctx context.Context, cfg Config) (*Report, *Audit, []truth.IterationStats, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, nil, nil, err
	}
	ds, bids, err := p.assemble()
	if err != nil {
		return nil, nil, nil, err
	}
	return p.settleDataset(ctx, cfg, ds, bids)
}

// settleDataset runs both stages on an assembled dataset and its bids.
func (p *Platform) settleDataset(ctx context.Context, cfg Config, ds *model.Dataset, bids []float64) (*Report, *Audit, []truth.IterationStats, error) {
	span := tracing.SpanFromContext(ctx)
	// Stage 1 runs as the "truth.discover" phase; the settle observer
	// is the engine's only Trace.
	tph := tracing.StartPhase(span, "truth.discover", nil)
	tph.Span().SetAttr("method", cfg.TruthMethod.String())
	observer := &settleObserver{span: tph.Span(), next: cfg.TruthOptions.Trace}
	topt := cfg.TruthOptions
	topt.Trace = observer
	res, err := p.discoverTruth(ds, cfg, topt)
	if err != nil {
		err = imcerr.Wrapf(imcerr.CodeInvalid, err, "platform: truth discovery")
		tph.End(err)
		return nil, nil, nil, err
	}
	tph.Span().SetAttr("iterations", strconv.Itoa(res.Iterations))
	tph.Span().SetAttr("converged", strconv.FormatBool(res.Converged))
	tph.End(nil)
	if err := checkCtx(ctx); err != nil {
		return nil, nil, nil, err
	}
	audit := buildAudit(ds, res, 20)
	if audit != nil {
		audit.Convergence = observer.iterations
	}
	in := BuildInstance(ds, res.Accuracy, bids)
	aph := tracing.StartPhase(span, "auction", nil)
	aph.Span().SetAttr("mechanism", cfg.Mechanism.String())
	out, err := runAuction(in, cfg.Mechanism)
	if err != nil {
		aph.End(err)
		return nil, nil, nil, err
	}
	aph.Span().SetAttr("winners", strconv.Itoa(len(out.Winners)))
	aph.End(nil)
	if err := checkCtx(ctx); err != nil {
		return nil, nil, nil, err
	}

	values := make([]float64, ds.NumTasks())
	for j := 0; j < ds.NumTasks(); j++ {
		values[j] = ds.Task(j).Value
	}
	report := &Report{
		Truth:           res.TruthMap(ds),
		Payments:        make(map[string]float64, len(out.Winners)),
		WorkerAccuracy:  make(map[string]float64, ds.NumWorkers()),
		SocialCost:      out.SocialCost,
		TotalPayment:    out.TotalPayment,
		PlatformUtility: auction.PlatformUtility(in, values, out),
		TruthIterations: res.Iterations,
		Converged:       res.Converged,
	}
	for _, i := range out.Winners {
		id := ds.WorkerID(i)
		report.Winners = append(report.Winners, id)
		report.Payments[id] = out.Payments[i]
	}
	for i, a := range res.WorkerAccuracy(ds) {
		report.WorkerAccuracy[ds.WorkerID(i)] = a
	}
	return report, audit, observer.iterations, nil
}

// settleObserver is a settle's only truth.Trace. Each iteration is
// appended to the settle's convergence history (the audit's, and the
// conv RecordSettled receives), emitted as a
// "truth.iteration" event on the truth.discover span (nil: untraced),
// and forwarded to the caller's TruthOptions.Trace (nil: none). It only
// observes: the estimate stays bit-identical traced or not.
type settleObserver struct {
	iterations []truth.IterationStats
	span       *tracing.Span
	next       truth.Trace
}

func (o *settleObserver) ObserveIteration(it truth.IterationStats) {
	o.iterations = append(o.iterations, it)
	if o.span != nil {
		attrs := make([]tracing.Attr, 0, 6)
		attrs = append(attrs,
			tracing.Int("iteration", it.Iteration),
			tracing.Int("changed", it.Changed))
		if it.DependenceSeconds > 0 {
			attrs = append(attrs, tracing.F64("dependence_seconds", it.DependenceSeconds))
		}
		if it.IndependenceSeconds > 0 {
			attrs = append(attrs, tracing.F64("independence_seconds", it.IndependenceSeconds))
		}
		if it.EstimateSeconds > 0 {
			attrs = append(attrs, tracing.F64("estimate_seconds", it.EstimateSeconds))
		}
		if it.Converged {
			attrs = append(attrs, tracing.Str("converged", "true"))
		}
		o.span.Event("truth.iteration", attrs...)
	}
	if o.next != nil {
		o.next.ObserveIteration(it)
	}
}

// runAuction dispatches stage 2 to the configured mechanism.
func runAuction(in *auction.Instance, mech Mechanism) (*auction.Outcome, error) {
	var out *auction.Outcome
	var err error
	switch mech {
	case MechanismReverseAuction:
		out, err = auction.ReverseAuction(in)
	case MechanismGreedyAccuracy:
		out, err = auction.GreedyAccuracy(in)
	case MechanismGreedyBid:
		out, err = auction.GreedyBid(in)
	default:
		return nil, imcerr.New(imcerr.CodeInvalid, "platform: unknown mechanism %v", mech)
	}
	if err != nil {
		return nil, fmt.Errorf("platform: %v: %w", mech, err)
	}
	return out, nil
}

// discoverTruth runs stage 1: a warm engine resumed to convergence when
// the WarmStart seam offers one covering the frozen submissions, a cold
// Discover otherwise. The warm engine's dataset is content-identical to
// ds (same submissions, same deterministic assembly), so its indices
// align with ds for the auction stage; resuming it under the settle's
// trace records exactly the iterations the settle itself performs.
func (p *Platform) discoverTruth(ds *model.Dataset, cfg Config, topt truth.Options) (*truth.Result, error) {
	if cfg.WarmStart != nil {
		if eng := cfg.WarmStart(ds.NumWorkers()); eng != nil {
			eng.SetTrace(topt.Trace)
			eng.Run(0)
			return eng.Result(), nil
		}
	}
	return truth.Discover(ds, cfg.TruthMethod, topt)
}

// Dataset assembles the submissions accepted so far into the dataset a
// settle of them works on: tasks in publication order, worker i the i-th
// accepted submission, and each task's values indexed in the order they
// were first submitted.
func (p *Platform) Dataset() (*model.Dataset, error) {
	ds, _, err := p.assemble()
	return ds, err
}

// assemble snapshots the submission log and compiles it into the
// dataset plus the bid vector aligned with its worker indexing — the
// log's prices, since worker i is the i-th accepted submission.
func (p *Platform) assemble() (*model.Dataset, []float64, error) {
	p.mu.Lock()
	l := p.log.snapshot()
	p.mu.Unlock()
	ds, err := p.dataset(l)
	if err != nil {
		return nil, nil, err
	}
	return ds, l.prices, nil
}

// dataset compiles a log snapshot. Settles and estimates both build
// through here, so equal prefixes yield identical datasets and worker
// indexings, and an estimate of every accepted submission previews the
// settled truth exactly.
func (p *Platform) dataset(l subLog) (*model.Dataset, error) {
	if len(l.Workers) == 0 {
		return nil, imcerr.New(imcerr.CodeInfeasible, "platform: no submissions")
	}
	ds, err := model.FromRows(p.tasks, p.taskIdx, l.Rows)
	if err != nil {
		return nil, fmt.Errorf("platform: assembling dataset: %w", err)
	}
	return ds, nil
}

// LastAudit returns the dependence audit of the settled campaign, or nil
// if no dependence-aware run has settled yet.
func (p *Platform) LastAudit() *Audit {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.audit
}

// buildAudit converts a truth result's dependence posterior into the
// platform's audit report.
func buildAudit(ds *model.Dataset, res *truth.Result, topK int) *Audit {
	pairs := res.TopDependentPairs(topK)
	if pairs == nil {
		return nil
	}
	a := &Audit{CopierScores: make(map[string]float64, ds.NumWorkers())}
	for _, pr := range pairs {
		a.Pairs = append(a.Pairs, SuspectPair{
			WorkerA: ds.WorkerID(pr.A),
			WorkerB: ds.WorkerID(pr.B),
			AtoB:    pr.AtoB,
			BtoA:    pr.BtoA,
		})
	}
	for i, score := range res.CopierScores() {
		a.CopierScores[ds.WorkerID(i)] = score
	}
	return a
}

// BuildInstance converts a dataset plus its per-observation accuracy and
// bid vector into the SOAC instance the auction stage consumes.
// accuracy[i] is aligned with ds.WorkerTasks(i), as truth.Result.Accuracy
// is, and so with the instance's TaskSets[i]. The instance shares both
// the accuracy rows and the dataset's task lists (TaskSets[i] is
// ds.WorkerTasks(i)); no mechanism writes either.
func BuildInstance(ds *model.Dataset, accuracy [][]float64, bids []float64) *auction.Instance {
	n, m := ds.NumWorkers(), ds.NumTasks()
	in := &auction.Instance{
		Bids:         append([]float64(nil), bids...),
		TaskSets:     make([][]int, n),
		Accuracy:     accuracy,
		Requirements: make([]float64, m),
	}
	for i := 0; i < n; i++ {
		in.TaskSets[i] = ds.WorkerTasks(i)
	}
	for j := 0; j < m; j++ {
		in.Requirements[j] = ds.Task(j).Requirement
	}
	return in
}
