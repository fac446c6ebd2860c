package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"time"

	"imc2/internal/auction"
	"imc2/internal/model"
	"imc2/internal/platform"
	"imc2/internal/registry"
	"imc2/internal/sched"
	"imc2/internal/store"
	"imc2/internal/truth"
	"imc2/internal/wire"
)

// twinStats are the registry's own costs, measured by calling it
// directly on a twin of the served registry (same wiring, own store).
type twinStats struct {
	submit []time.Duration // Campaign.Submit of one worker, durable
	settle time.Duration   // Campaign.Settle of the cycle shape
}

// runTwin submits every session-shape worker one by one to a twin
// campaign, then settles a twin of the cycle campaign directly. The
// direct settle's report must equal the served one.
func runTwin(dir string, w workload, in *inputs, served *wire.Report, tr *tracer) (twinStats, error) {
	var ts twinStats
	st, err := store.Open(store.Options{Dir: dir, SnapshotEvery: snapshotEvery, Fsync: store.FsyncSettle})
	if err != nil {
		return ts, err
	}
	sc := sched.New(sched.Config{MaxConcurrentSettles: maxSettles, MaxQueuedSettles: maxQueued})
	defer func() {
		st.Close() // a no-op after the checked close below
		sc.Close()
		_ = os.RemoveAll(dir)
	}()
	reg := registry.New(registry.WithScheduler(sc), registry.WithStore(st))
	cfg := settleConfig(w.mechanism)

	root := tr.start("twin", nil)
	defer root.end()
	c, err := reg.Create("twin-sessions", in.session.camp.Dataset.Tasks(), cfg, false)
	if err != nil {
		return ts, err
	}
	loop := tr.start("registry.submit", root)
	for _, sub := range in.session.subs {
		t := time.Now()
		err := c.Submit(sub)
		ts.submit = append(ts.submit, time.Since(t))
		if err != nil {
			return ts, fmt.Errorf("twin submit: %w", err)
		}
	}
	loop.set("calls", len(ts.submit))
	loop.end()

	c, err = reg.Create("twin-cycle", in.cycle.camp.Dataset.Tasks(), cfg, false)
	if err != nil {
		return ts, err
	}
	if n, err := c.SubmitBatch(in.cycle.subs); err != nil {
		return ts, fmt.Errorf("twin batch accepted %d: %w", n, err)
	}
	t := time.Now()
	rep, err := c.Settle(context.Background())
	ts.settle = time.Since(t)
	tr.record("registry.settle", root, t, t.Add(ts.settle))
	if err != nil {
		return ts, fmt.Errorf("twin settle: %w", err)
	}
	if err := st.Close(); err != nil {
		return ts, err
	}
	got, err := wireReport(rep)
	if err != nil {
		return ts, err
	}
	if !reflect.DeepEqual(got, served) {
		return ts, fmt.Errorf("direct Campaign.Settle report differs from the served report")
	}
	return ts, nil
}

// wireReport is a platform report as a client decodes it off the wire.
func wireReport(rep *platform.Report) (*wire.Report, error) {
	buf, err := json.Marshal(&wire.Report{
		Truth: rep.Truth, Winners: rep.Winners, Payments: rep.Payments, WorkerAccuracy: rep.WorkerAccuracy,
		SocialCost: rep.SocialCost, TotalPayment: rep.TotalPayment, PlatformUtility: rep.PlatformUtility,
		TruthIterations: rep.TruthIterations, Converged: rep.Converged,
	})
	if err != nil {
		return nil, fmt.Errorf("encoding direct report: %w", err)
	}
	var back wire.Report
	return &back, decode(buf, "direct report", &back)
}

// replayStats are stage 1 and stage 2 rerun on the settle's own inputs.
type replayStats struct {
	discover      time.Duration
	discoverAlloc uint64
	rankPairs     time.Duration
	auction       time.Duration
	auctionAlloc  uint64
	winners       int
}

// assemble builds the dataset and bid vector a settle of sh's
// submissions works on, the way the platform assembles them: tasks in
// publication order, then submissions in acceptance order with each
// submission's task IDs sorted.
func assemble(sh *shape) (*model.Dataset, []float64, error) {
	b := model.NewBuilder()
	for _, t := range sh.camp.Dataset.Tasks() {
		b.AddTask(t)
	}
	for _, sub := range sh.subs {
		ids := make([]string, 0, len(sub.Answers))
		for id := range sub.Answers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			b.AddObservation(sub.Worker, id, sub.Answers[id])
		}
	}
	ds, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	bids := make([]float64, ds.NumWorkers())
	for _, sub := range sh.subs {
		i, ok := ds.WorkerIndex(sub.Worker)
		if !ok {
			return nil, nil, fmt.Errorf("worker %q lost during assembly", sub.Worker)
		}
		bids[i] = sub.Price
	}
	return ds, bids, nil
}

// runReplay reruns truth.Discover, Result.RankDependentPairs and the
// workload's mechanism on platform.BuildInstance with the settle's
// inputs and options, checking both stages against the served report.
func runReplay(w workload, sh *shape, served *wire.Report, tr *tracer) (replayStats, error) {
	var rs replayStats
	ds, bids, err := assemble(sh)
	if err != nil {
		return rs, err
	}
	pool := sched.NewPool(0)
	defer pool.Close()
	opt := settleConfig(w.mechanism).TruthOptions
	opt.Executor = pool

	root := tr.start("replay", nil)
	defer root.end()
	a0, t := allocated(), time.Now()
	res, err := truth.Discover(ds, truth.MethodDATE, opt)
	rs.discover, rs.discoverAlloc = time.Since(t), allocated()-a0
	tr.record("truth.discover", root, t, t.Add(rs.discover))
	if err != nil {
		return rs, err
	}
	if !reflect.DeepEqual(res.TruthMap(ds), served.Truth) || res.Iterations != served.TruthIterations {
		return rs, fmt.Errorf("truth.Discover replay differs from the served report's truth")
	}
	t = time.Now()
	pairs := res.RankDependentPairs()
	rs.rankPairs = time.Since(t)
	tr.record("truth.rank_pairs", root, t, t.Add(rs.rankPairs)).set("pairs", len(pairs))

	in := platform.BuildInstance(ds, res.Accuracy, bids)
	mech := map[platform.Mechanism]func(*auction.Instance) (*auction.Outcome, error){
		platform.MechanismReverseAuction: auction.ReverseAuction,
		platform.MechanismGreedyAccuracy: auction.GreedyAccuracy,
		platform.MechanismGreedyBid:      auction.GreedyBid,
	}[w.mechanism]
	a0, t = allocated(), time.Now()
	out, err := mech(in)
	rs.auction, rs.auctionAlloc = time.Since(t), allocated()-a0
	tr.record("auction.run", root, t, t.Add(rs.auction)).set("mechanism", w.mechanism.String())
	if err != nil {
		return rs, err
	}
	rs.winners = len(out.Winners)
	winners := make([]string, len(out.Winners))
	for k, i := range out.Winners {
		winners[k] = ds.WorkerID(i)
	}
	if !reflect.DeepEqual(winners, served.Winners) || out.SocialCost != served.SocialCost {
		return rs, fmt.Errorf("%v replay differs from the served report's winners", w.mechanism)
	}
	return rs, nil
}
