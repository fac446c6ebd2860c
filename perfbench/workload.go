package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"imc2/internal/gen"
	"imc2/internal/platform"
	"imc2/internal/randx"
	"imc2/internal/wire"
)

// workload is one traffic mix. Every run has two parts on one server:
//
//   - sessions: an open loop of independent worker sessions at a fixed
//     arrival rate (GET the campaign, then POST one single-worker
//     submission) over open durable campaigns of the session shape;
//     nothing closes.
//   - cycles: a closed loop of one requester running the campaign
//     lifecycle on the cycle shape: create → SubmitBatch → close → poll
//     until settled → GET report.
//
// The workload fixes both shapes, the stage-2 mechanism, the arrival
// rate, and how the measured seconds are split between the parts.
type workload struct {
	name      string
	cycle     gen.CampaignSpec
	mechanism platform.Mechanism
	session   gen.CampaignSpec
	// rate is the session arrival rate in sessions per second.
	rate float64
	// sessionShare is the fraction of the measured seconds given to the
	// sessions part; the cycles part gets the rest.
	sessionShare float64
}

// fig5Spec is the ROADMAP's baseline shape, bench_test.go's
// benchFig5Campaign: 400 workers (100 copiers) × 2000 tasks, 500 answers
// per worker.
func fig5Spec() gen.CampaignSpec {
	spec := gen.DefaultSpec()
	spec.Workers = 400
	spec.Tasks = 2000
	spec.Copiers = 100
	spec.TasksPerWorker = 500
	spec.ParticipationDecay = 0.3
	spec.RequirementLow, spec.RequirementHigh = 1, 2
	return spec
}

// sparseSpec is platformd's demo shape at scale: 800 workers (160
// copiers) × 2000 tasks, 20 answers per worker, over-provisioned
// requirements.
func sparseSpec() gen.CampaignSpec {
	spec := gen.DefaultSpec()
	spec.Workers = 800
	spec.Tasks = 2000
	spec.Copiers = 160
	spec.TasksPerWorker = 20
	spec.MinProvidersPerTask = 4
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	return spec
}

// paperSpec is the paper's default task shape (300 tasks, 50 answers per
// submission) with the given worker population.
func paperSpec(workers int) gen.CampaignSpec {
	spec := gen.DefaultSpec()
	spec.Workers = workers
	spec.Copiers = workers / 4
	return spec
}

// workloads lists the benchmark's traffic mixes. Every session part runs
// workers of the paper's default task shape. The close workloads give it
// 18% of the run at 600 sessions/s (enough samples for a p99);
// submit-durable gives it 85% of the run at 400 sessions/s, where the
// growing durable state keeps the server clear of saturation, and its
// cycles run the paper's default shape.
var workloads = []workload{
	{
		name: "dense-gb", cycle: fig5Spec(), mechanism: platform.MechanismGreedyBid,
		session: paperSpec(2000), rate: 600, sessionShare: 0.18,
	},
	{
		name: "dense-ra", cycle: fig5Spec(), mechanism: platform.MechanismReverseAuction,
		session: paperSpec(2000), rate: 600, sessionShare: 0.18,
	},
	{
		name: "sparse-gb", cycle: sparseSpec(), mechanism: platform.MechanismGreedyBid,
		session: paperSpec(2000), rate: 600, sessionShare: 0.18,
	},
	{
		name: "submit-durable", cycle: paperSpec(120), mechanism: platform.MechanismGreedyBid,
		session: paperSpec(2000), rate: 400, sessionShare: 0.85,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// shape is one generated campaign and its pre-encoded requests: the
// benchmark's inputs. Bodies are encoded once in set-up so the timed
// operations measure the platform, not the client's JSON encoder.
type shape struct {
	camp *gen.Campaign
	subs []platform.Submission
	// create is the POST /v2/campaigns body carrying the task list.
	create []byte
	// batch is the SubmitBatch envelope with every worker.
	batch []byte
	// single[i] is worker i's single-submission body.
	single [][]byte
}

// newShape generates the campaign for spec from seed and encodes its
// requests.
func newShape(spec gen.CampaignSpec, seed int64, name string) (*shape, error) {
	camp, err := gen.NewCampaign(spec, randx.New(seed))
	if err != nil {
		return nil, fmt.Errorf("generating %s campaign: %w", name, err)
	}
	ds := camp.Dataset
	sh := &shape{camp: camp}
	wsubs := make([]wire.Submission, ds.NumWorkers())
	for i := range wsubs {
		answers := make(map[string]string, len(ds.WorkerTasks(i)))
		for _, j := range ds.WorkerTasks(i) {
			answers[ds.Task(j).ID] = ds.ValueString(j, ds.ValueOf(i, j))
		}
		wsubs[i] = wire.Submission{Worker: ds.WorkerID(i), Price: camp.Costs[i], Answers: answers}
		sh.subs = append(sh.subs, platform.Submission{Worker: ds.WorkerID(i), Price: camp.Costs[i], Answers: answers})
	}
	if sh.create, err = json.Marshal(wire.CreateCampaignRequest{Name: name, Tasks: ds.Tasks()}); err != nil {
		return nil, err
	}
	if sh.batch, err = json.Marshal(struct {
		Submissions []wire.Submission `json:"submissions"`
	}{wsubs}); err != nil {
		return nil, err
	}
	for _, s := range wsubs {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		sh.single = append(sh.single, b)
	}
	return sh, nil
}

// fixtureSeed pins the generated campaigns: bench_test.go's fig5 fixture
// seed, at which the sparse shape takes 46 DATE iterations. DATE's
// iteration count on the sparse shape swings between 8 and the cap of
// 100 across generator seeds, and even across worker orders of one
// campaign, so campaigns drawn from the run seed would make runs measure
// the seed instead of the code. The run seed drives the session traffic.
const fixtureSeed = 5

// inputs is everything a run generates.
type inputs struct {
	cycle, session *shape
	// slots[s] is session s's (campaign, worker) slot: campaign
	// slots[s] / workers, worker slots[s] % workers.
	slots   []int
	genTime time.Duration
}

// newInputs generates both shapes from the fixture seed and orders n
// sessions from the run seed: which worker arrives when, on which of the
// few campaigns that hold n distinct workers. The generator time is
// reported as gen.campaign_ms.
func newInputs(w workload, seed int64, n int) (*inputs, error) {
	start := time.Now()
	cyc, err := newShape(w.cycle, fixtureSeed, "cycle")
	if err != nil {
		return nil, err
	}
	ses, err := newShape(w.session, fixtureSeed, "session")
	if err != nil {
		return nil, err
	}
	workers := len(ses.single)
	campaigns := (n + workers - 1) / workers
	slots := randx.New(seed).Perm(campaigns * workers)[:n]
	return &inputs{cycle: cyc, session: ses, slots: slots, genTime: time.Since(start)}, nil
}

// precision scores a settled truth map against the generator's ground
// truth: the share of tasks whose settled value is the true one.
func precision(truth, ground map[string]string) float64 {
	if len(ground) == 0 {
		return 0
	}
	hit := 0
	for task, v := range ground {
		if truth[task] == v {
			hit++
		}
	}
	return float64(hit) / float64(len(ground))
}

// checkReport validates a settled report against the inputs it was
// settled from: every task has a truth, every winner submitted, payments
// cover the winners, and the social cost is the winners' total bid.
func checkReport(rep *wire.Report, sh *shape) error {
	ds := sh.camp.Dataset
	if len(rep.Truth) != ds.NumTasks() {
		return fmt.Errorf("report settles %d of %d tasks", len(rep.Truth), ds.NumTasks())
	}
	if len(rep.Winners) == 0 {
		return fmt.Errorf("report has no winners")
	}
	bids := make(map[string]float64, len(sh.subs))
	for _, s := range sh.subs {
		bids[s.Worker] = s.Price
	}
	winners := append([]string(nil), rep.Winners...)
	sort.Strings(winners)
	cost := 0.0
	for k, id := range winners {
		b, ok := bids[id]
		if !ok {
			return fmt.Errorf("winner %q never submitted", id)
		}
		if k > 0 && winners[k-1] == id {
			return fmt.Errorf("winner %q listed twice", id)
		}
		if _, ok := rep.Payments[id]; !ok {
			return fmt.Errorf("winner %q has no payment", id)
		}
		cost += b
	}
	if d := cost - rep.SocialCost; d > 1e-6*cost || d < -1e-6*cost {
		return fmt.Errorf("social cost %v is not the winners' total bid %v", rep.SocialCost, cost)
	}
	if len(rep.WorkerAccuracy) != ds.NumWorkers() {
		return fmt.Errorf("report rates %d of %d workers", len(rep.WorkerAccuracy), ds.NumWorkers())
	}
	return nil
}
