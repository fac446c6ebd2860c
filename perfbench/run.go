package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"imc2/internal/store"
	"imc2/internal/wire"
)

// run sets up, measures and checks one invocation. The result is non-nil
// whenever set-up got far enough to count operations; a non-nil error
// means the run is not correct.
func run(o options) (res *result, err error) {
	// The machine's CPUs, at most two: client and platform share them.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	w := o.workload
	res = &result{}
	res.note = fmt.Sprintf("workload %s, seed %d, %v measured, trace %v, GOMAXPROCS %d of %d CPUs, %d client connections, sessions at %g/s",
		w.name, o.seed, o.seconds, o.traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), maxConns, w.rate)
	work := filepath.Join(o.out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return res, err
	}
	defer func() {
		if rerr := os.RemoveAll(work); rerr != nil && err == nil {
			err = rerr
		}
	}()

	sessions := max(2, int(w.rate*w.sessionShare*o.seconds.Seconds()))
	servers := 0
	open := func(p *probe) func() (*server, error) {
		return func() (*server, error) {
			servers++
			return openServer(filepath.Join(work, fmt.Sprintf("server-%d", servers)), w.mechanism, p)
		}
	}
	c := newClient()
	defer func() {
		c.close()
		res.attempted, res.failed = c.attempted.Load(), c.failed.Load()
		if err != nil && res.failed == 0 {
			res.failed = 1 // a wrong output counts as a failed operation
		}
		res.correct = err == nil
	}()

	// Set up several times and keep the last: setup_s is the median.
	var setups, gens []time.Duration
	var in *inputs
	var srv *server
	for k := 0; k < setupReps; k++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return res, err
			}
		}
		runtime.GC()
		t := time.Now()
		if in, err = newInputs(w, o.seed, sessions); err != nil {
			return res, err
		}
		if srv, err = open(nil)(); err != nil {
			return res, err
		}
		setups = append(setups, time.Since(t))
		gens = append(gens, in.genTime)
	}

	if !o.traced {
		sp, err := newSessionPart(c, srv.base, in.session, w.rate, in.slots, nil)
		if err != nil {
			return res, err
		}
		cs, err := runParts(sp, in.slots, w.sessionShare, time.Now().Add(o.seconds),
			func() (cycle, error) { return freshCycle(c, open(nil), in.cycle, nil, nil) })
		if err == nil {
			err = sp.verify(srv)
		}
		if cerr := srv.close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return res, err
		}
		rep, err := checkCycles(cs, in)
		if err != nil {
			return res, err
		}
		var batch, closes, allocs, submit, read []float64
		for _, cy := range cs {
			batch = append(batch, cy.batch.Seconds())
			closes = append(closes, cy.close.Seconds())
			allocs = append(allocs, float64(cy.alloc)/1e6)
		}
		for _, s := range sp.sessions {
			submit = append(submit, ms(s.submit))
			read = append(read, ms(s.read))
		}
		res.add("setup_s", median(scaled(time.Second, setups...)), "s", len(setups))
		res.add("close_p50_s", median(closes), "s", len(closes))
		res.add("batch_submit_s", median(batch), "s", len(batch))
		res.add("close_alloc_mb", median(allocs), "MB", len(allocs))
		res.add("precision", precision(rep.Truth, in.cycle.camp.GroundTruth), "ratio", 1)
		res.add("social_cost", rep.SocialCost, "cost", 1)
		res.add("submit_p50_ms", median(submit), "ms", len(submit))
		// The p99 is set by the few largest store snapshots of the run,
		// so it spreads more between runs than any bound allows: it is
		// printed, not declared.
		res.extra = append(res.extra, metric{"submit_p99_ms", quantile(submit, 0.99), "ms", len(submit)})
		res.add("read_p50_ms", median(read), "ms", len(read))
		return res, nil
	}

	// The traced run: the first half of the time runs untraced on
	// platformd-wired servers, the second half traced on servers wired
	// with the probe's seams; then the registry and both stages are timed
	// by direct calls on the same inputs.
	tr, p := newTracer(), &probe{}
	half := len(in.slots) / 2
	sp0, err := newSessionPart(c, srv.base, in.session, w.rate, in.slots[:half], nil)
	if err != nil {
		return res, err
	}
	cs0, err := runParts(sp0, in.slots[:half], w.sessionShare, time.Now().Add(o.seconds/2),
		func() (cycle, error) { return freshCycle(c, open(nil), in.cycle, nil, nil) })
	if err == nil {
		err = sp0.verify(srv)
	}
	if cerr := srv.close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return res, err
	}
	tsrv, err := open(p)()
	if err != nil {
		return res, err
	}
	sp1, err := newSessionPart(c, tsrv.base, in.session, w.rate, in.slots[half:], tr)
	var cs1 []cycle
	if err == nil {
		cs1, err = runParts(sp1, in.slots[half:], w.sessionShare, time.Now().Add(o.seconds/2),
			func() (cycle, error) { return freshCycle(c, open(p), in.cycle, tr, p) })
	}
	if err == nil {
		err = sp1.verify(tsrv)
	}
	if cerr := tsrv.close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return res, err
	}
	rep, err := checkCycles(append(cs0, cs1...), in)
	if err != nil {
		return res, err
	}
	twin, err := runTwin(filepath.Join(work, "twin"), w, in, rep, tr)
	if err != nil {
		return res, err
	}
	rp, err := runReplay(w, in.cycle, rep, tr)
	if err != nil {
		return res, err
	}
	if err := tr.write(filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))); err != nil {
		return res, err
	}
	return res, layerMetrics(res, w, layerInputs{
		gens: gens, sp0: sp0, sp1: sp1, cs0: cs0, cs1: cs1, twin: twin, replay: rp, appends: p.appends,
	})
}

// runParts runs the two parts in rounds until deadline: one cycle, then
// as many sessions as keep the sessions part on its share of the elapsed
// time. Rounds go on while half of the last one still fits; the sessions
// left then run last, so a run makes every session of its slots.
// Interleaving spreads both parts' samples over the whole run.
func runParts(sp *sessionPart, slots []int, share float64, deadline time.Time, cyc func() (cycle, error)) ([]cycle, error) {
	var cycles []cycle
	var last time.Duration
	owed := 0.0
	for len(cycles) == 0 || time.Now().Add(last/2).Before(deadline) {
		start := time.Now()
		cy, err := cyc()
		if err != nil {
			return cycles, err
		}
		cycles = append(cycles, cy)
		owed += time.Since(start).Seconds() * share / (1 - share) * sp.rate
		n := min(len(slots), int(owed))
		owed -= float64(n)
		if err := sp.run(slots[:n]); err != nil {
			return cycles, err
		}
		slots = slots[n:]
		last = time.Since(start)
	}
	return cycles, sp.run(slots)
}

// checkCycles checks that every report is byte-identical to the first,
// then decodes and validates the first.
func checkCycles(cs []cycle, in *inputs) (*wire.Report, error) {
	if len(cs) == 0 {
		return nil, errors.New("no cycle ran")
	}
	if err := sameReports(cs); err != nil {
		return nil, err
	}
	var rep wire.Report
	if err := decode(cs[0].body, "report", &rep); err != nil {
		return nil, err
	}
	if err := checkReport(&rep, in.cycle); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	return &rep, nil
}

// layerInputs is what the traced run collected.
type layerInputs struct {
	gens     []time.Duration
	sp0, sp1 *sessionPart
	cs0, cs1 []cycle
	twin     twinStats
	replay   replayStats
	appends  []appendRec
}

// layerMetrics derives the per-layer metrics from the traced run.
func layerMetrics(res *result, w workload, li layerInputs) error {
	var closeRTT, reportRTT, polls, batch []float64
	var queue, run, assemble, finish, settled, iters, dep, ind, est, unaccounted []float64
	for _, cy := range li.cs1 {
		cp, ok := cy.trace.parts()
		if !ok {
			return errors.New("a traced close missed a seam (store, admission, truth trace or warm-start)")
		}
		closeRTT = append(closeRTT, ms(cy.closeRTT))
		reportRTT = append(reportRTT, ms(cy.report))
		polls = append(polls, float64(cy.polls))
		batch = append(batch, ms(cy.batch))
		queue = append(queue, ms(cp.queueWait))
		run = append(run, ms(cp.run))
		assemble = append(assemble, ms(cp.assemble))
		finish = append(finish, ms(cp.finish))
		settled = append(settled, ms(cp.settled))
		iters = append(iters, float64(cp.iterations))
		dep = append(dep, ms(cp.dependence))
		ind = append(ind, ms(cp.independence))
		est = append(est, ms(cp.estimate))
		unaccounted = append(unaccounted, ms(cp.unaccounted))
	}
	var post, lag []float64
	for _, s := range li.sp1.sessions {
		post = append(post, us(s.postRTT))
	}
	for _, l := range append(li.sp0.lag, li.sp1.lag...) {
		lag = append(lag, ms(l))
	}
	var single, walBytes, batchAppend []float64
	for _, a := range li.appends {
		switch {
		case a.typ != store.EventSubmissions:
		case a.subs == 1:
			single = append(single, us(a.end.Sub(a.start)))
			if a.walGrowth >= 0 {
				walBytes = append(walBytes, float64(a.walGrowth))
			}
		default:
			batchAppend = append(batchAppend, ms(a.end.Sub(a.start)))
		}
	}
	regSubmit := median(scaled(time.Microsecond, li.twin.submit...))
	n := len(li.cs1)

	res.add("wire.close_rtt_ms", median(closeRTT), "ms", n)
	res.add("wire.report_rtt_ms", median(reportRTT), "ms", n)
	res.add("wire.poll_n", median(polls), "count", n)
	res.add("wire.batch_rtt_ms", median(batch), "ms", n)
	res.add("wire.submit_self_us", median(post)-regSubmit, "us", len(post))
	res.add("registry.submit_us", regSubmit, "us", len(li.twin.submit))
	res.add("registry.settle_ms", ms(li.twin.settle), "ms", 1)
	res.add("store.append_submission_us", median(single), "us", len(single))
	res.add("store.append_batch_ms", median(batchAppend), "ms", len(batchAppend))
	res.add("store.append_settled_ms", median(settled), "ms", n)
	res.add("store.append_n", float64(len(li.appends)), "count", 1)
	res.add("store.wal_bytes", median(walBytes), "bytes", len(walBytes))
	res.add("sched.queue_wait_ms", median(queue), "ms", n)
	res.add("sched.run_ms", median(run), "ms", n)
	res.add("platform.assemble_ms", median(assemble), "ms", n)
	res.add("platform.finish_ms", median(finish), "ms", n)
	res.add("truth.iterations", median(iters), "count", n)
	res.add("truth.dependence_ms", median(dep), "ms", n)
	res.add("truth.independence_ms", median(ind), "ms", n)
	res.add("truth.estimate_ms", median(est), "ms", n)
	res.add("truth.discover_alloc_mb", float64(li.replay.discoverAlloc)/1e6, "MB", 1)
	res.add("truth.rank_pairs_ms", ms(li.replay.rankPairs), "ms", 1)
	res.add("auction.run_ms", ms(li.replay.auction), "ms", 1)
	res.add("auction.alloc_mb", float64(li.replay.auctionAlloc)/1e6, "MB", 1)
	res.add("auction.winners", float64(li.replay.winners), "count", 1)
	res.add("gen.campaign_ms", median(scaled(time.Millisecond, li.gens...)), "ms", len(li.gens))
	res.add("bench.gen_lag_p99_ms", quantile(lag, 0.99), "ms", len(lag))
	res.add("bench.unaccounted_ms", median(unaccounted), "ms", n)

	// The tracing overhead is read on the workload's main operation.
	var untraced, traced []float64
	if w.sessionShare > 0.5 {
		for _, s := range li.sp0.sessions {
			untraced = append(untraced, ms(s.submit))
		}
		for _, s := range li.sp1.sessions {
			traced = append(traced, ms(s.submit))
		}
	} else {
		for _, cy := range li.cs0 {
			untraced = append(untraced, ms(cy.close))
		}
		for _, cy := range li.cs1 {
			traced = append(traced, ms(cy.close))
		}
	}
	res.add("bench.trace_overhead_pct", 100*(median(traced)/median(untraced)-1), "%", len(traced))
	return nil
}
