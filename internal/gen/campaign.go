// Package gen synthesizes crowdsourcing workloads.
//
// The paper evaluates on two external datasets that are not available
// offline: the Qatar Living Forum annotations (SemEval-2015 task 3; 300
// questions, 120 workers, 6000 comments labelled from a 3-value domain)
// and an eBay auction trace (5017 bid prices) for worker costs. This
// package generates synthetic equivalents that preserve every property
// the algorithms are sensitive to — domain size, participation sparsity
// (low-index tasks receive more answers), copier fraction, copy
// probability, copy-error rate, accuracy mix, and right-skewed costs —
// with ground truth known by construction.
package gen

import (
	"fmt"
	"math"
	"sort"

	"imc2/internal/model"
	"imc2/internal/randx"
)

// CampaignSpec parameterizes the synthetic campaign generator. The zero
// value is not valid; start from DefaultSpec.
type CampaignSpec struct {
	// Workers is n, the total worker count including copiers.
	Workers int
	// Tasks is m.
	Tasks int
	// Copiers is the number of workers that copy (paper default: 30 of
	// 120).
	Copiers int
	// TasksPerWorker is how many tasks each worker answers (the paper's
	// default campaign has 6000 observations over 120 workers ≈ 50 each).
	TasksPerWorker int
	// MinProvidersPerTask tops up sparsely-answered tasks with extra
	// honest workers until every task has at least this many answers.
	// Real platforms do the same (they assign open tasks); mechanisms
	// additionally need ≥ 2 providers per task or a worker becomes an
	// irreplaceable monopolist with no critical payment. 0 disables.
	MinProvidersPerTask int
	// NumFalse is the number of false values in each task's domain (the
	// Good/Bad/Other annotation domain of the original data has 2).
	NumFalse int

	// CopyProb is the behavioural probability that a copier copies a
	// given answer from its source rather than answering independently.
	CopyProb float64
	// CopyError is the probability that a copied value is corrupted in
	// transit ("UWisc" arriving as "UWise"), producing a distinct value.
	CopyError float64
	// SourcesPerCopier is how many source workers a copier draws from.
	SourcesPerCopier int
	// SourcePoolFraction concentrates copying: all copiers draw their
	// sources from a random pool of ceil(fraction·honest) workers. Real
	// copiers crawl the same prominent sources, and concentration is what
	// turns copied mistakes into false majorities (the paper's Table 1
	// story). 1 disables concentration.
	SourcePoolFraction float64

	// AccuracyLow/AccuracyHigh bound the uniform distribution of honest
	// answering accuracy (also used for copiers' independent answers).
	AccuracyLow, AccuracyHigh float64

	// ParticipationDecay skews which tasks workers answer: task j is
	// picked with weight (j+1)^(−ParticipationDecay), so low-index tasks
	// receive more answers (the property the paper invokes to explain
	// Fig. 4(a)). Zero means uniform participation.
	ParticipationDecay float64

	// FalseZipfS skews which false value a wrong answer lands on
	// (0 = uniform false values, matching §II-B's base assumption).
	FalseZipfS float64

	// PresentationNoise is the probability that an honest answer is
	// emitted in a variant spelling ("IT" for "Information Technology",
	// §IV-A's motivation). The variant form is drawn per answer from two
	// common presentations; correlating forms with worker identity would
	// manufacture spurious dependence cliques (shared rare values are
	// DATE's copier signal). 0 disables.
	PresentationNoise float64

	// RequirementLow/High bound Θ_j ~ U[2, 4] (paper §VII-A).
	RequirementLow, RequirementHigh float64
	// RequirementCoverageCap additionally caps Θ_j at
	// cap · Σ_{i answering j} trueAccuracy_i so sparsely-answered tasks
	// stay coverable — the property the paper's real dataset has
	// implicitly, and which the SOAC mechanisms require (critical
	// payments only exist when any single winner is replaceable).
	// 0 disables the cap.
	RequirementCoverageCap float64
	// ValueLow/High bound task values ~ U[5, 8] (paper §VII-A).
	ValueLow, ValueHigh float64

	// CostMedian and CostSigma shape the log-normal worker-cost sampler
	// standing in for the eBay bid trace; costs are clamped to
	// [CostMin, CostMax].
	CostMedian, CostSigma float64
	CostMin, CostMax      float64
}

// DefaultSpec mirrors the paper's default simulation setup (§VII-A).
func DefaultSpec() CampaignSpec {
	return CampaignSpec{
		Workers:                120,
		Tasks:                  300,
		Copiers:                30,
		TasksPerWorker:         50,
		MinProvidersPerTask:    3,
		NumFalse:               2,
		CopyProb:               0.8,
		CopyError:              0.05,
		SourcesPerCopier:       1,
		SourcePoolFraction:     0.15,
		AccuracyLow:            0.45,
		AccuracyHigh:           0.8,
		ParticipationDecay:     0.8,
		FalseZipfS:             0,
		RequirementLow:         2,
		RequirementHigh:        4,
		RequirementCoverageCap: 0.35,
		ValueLow:               5,
		ValueHigh:              8,
		CostMedian:             4,
		CostSigma:              0.45,
		CostMin:                1,
		CostMax:                10,
	}
}

// DemoSpec shapes the demo campaign that cmd/platformd opens and
// cmd/workeragent regenerates from the same seed: each worker answers a
// third of the tasks (at least one), and the requirements are
// over-provisioned (Θ in [0.5, 1], four honest providers per task) so
// every winner stays replaceable and critical payments exist. The
// agent's answers fit the daemon's tasks only because both binaries
// shape the campaign here.
func DemoSpec(workers, tasks, copiers int) (CampaignSpec, error) {
	spec := DefaultSpec()
	spec.Workers = workers
	spec.Tasks = tasks
	spec.Copiers = copiers
	spec.TasksPerWorker = max(tasks/3, 1)
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	spec.MinProvidersPerTask = 4
	return spec, spec.Validate()
}

// Validate reports the first invalid spec field.
func (s CampaignSpec) Validate() error {
	switch {
	case s.Workers < 2:
		return fmt.Errorf("gen: Workers %d must be >= 2", s.Workers)
	case s.Tasks < 1:
		return fmt.Errorf("gen: Tasks %d must be >= 1", s.Tasks)
	case s.Copiers < 0 || s.Copiers >= s.Workers:
		return fmt.Errorf("gen: Copiers %d must be in [0, Workers)", s.Copiers)
	case s.TasksPerWorker < 1 || s.TasksPerWorker > s.Tasks:
		return fmt.Errorf("gen: TasksPerWorker %d must be in [1, Tasks]", s.TasksPerWorker)
	case s.MinProvidersPerTask < 0 || s.MinProvidersPerTask > s.Workers-s.Copiers:
		return fmt.Errorf("gen: MinProvidersPerTask %d must be in [0, honest workers]", s.MinProvidersPerTask)
	case s.NumFalse < 1:
		return fmt.Errorf("gen: NumFalse %d must be >= 1", s.NumFalse)
	case s.CopyProb < 0 || s.CopyProb > 1:
		return fmt.Errorf("gen: CopyProb %v must be in [0, 1]", s.CopyProb)
	case s.CopyError < 0 || s.CopyError > 1:
		return fmt.Errorf("gen: CopyError %v must be in [0, 1]", s.CopyError)
	case s.SourcesPerCopier < 1:
		return fmt.Errorf("gen: SourcesPerCopier %d must be >= 1", s.SourcesPerCopier)
	case !(s.SourcePoolFraction > 0) || s.SourcePoolFraction > 1:
		return fmt.Errorf("gen: SourcePoolFraction %v must be in (0, 1]", s.SourcePoolFraction)
	case !(s.AccuracyLow > 0) || !(s.AccuracyHigh < 1) || s.AccuracyLow > s.AccuracyHigh:
		return fmt.Errorf("gen: accuracy range [%v, %v] must satisfy 0 < low <= high < 1",
			s.AccuracyLow, s.AccuracyHigh)
	case s.ParticipationDecay < 0:
		return fmt.Errorf("gen: ParticipationDecay %v must be >= 0", s.ParticipationDecay)
	case s.FalseZipfS < 0:
		return fmt.Errorf("gen: FalseZipfS %v must be >= 0", s.FalseZipfS)
	case s.PresentationNoise < 0 || s.PresentationNoise > 1:
		return fmt.Errorf("gen: PresentationNoise %v must be in [0, 1]", s.PresentationNoise)
	case s.RequirementLow < 0 || s.RequirementHigh < s.RequirementLow:
		return fmt.Errorf("gen: requirement range [%v, %v] invalid", s.RequirementLow, s.RequirementHigh)
	case s.RequirementCoverageCap < 0:
		return fmt.Errorf("gen: RequirementCoverageCap %v must be >= 0", s.RequirementCoverageCap)
	case s.ValueLow < 0 || s.ValueHigh < s.ValueLow:
		return fmt.Errorf("gen: value range [%v, %v] invalid", s.ValueLow, s.ValueHigh)
	case !(s.CostMedian > 0) || s.CostSigma < 0 || !(s.CostMin > 0) || s.CostMax < s.CostMin:
		return fmt.Errorf("gen: cost parameters invalid")
	}
	return nil
}

// Campaign is a generated workload: the sealed dataset, the hidden ground
// truth, the workers' private costs, and the copier layout for analysis.
type Campaign struct {
	Dataset     *model.Dataset
	GroundTruth map[string]string
	// Costs[i] is worker i's private cost c_i, indexed like the dataset's
	// workers.
	Costs []float64
	// TrueAccuracy[i] is the answering accuracy the worker was generated
	// with (for copiers: the accuracy of their independent answers).
	TrueAccuracy []float64
	// CopierIndex marks which worker indices are copiers.
	CopierIndex map[int]bool
	// Sources[i] lists the worker indices copier i copies from.
	Sources map[int][]int
	Spec    CampaignSpec
}

// WorkerID formats worker i's identity as the generator named it.
func workerID(i int) string { return fmt.Sprintf("w%03d", i) }

// taskID formats task j's identity.
func taskID(j int) string { return fmt.Sprintf("t%03d", j) }

// falseNames give false values distinct lexical cores. Value strings of
// one task must NOT share long prefixes: the §IV-A similarity functions
// would otherwise classify different answers as presentations of each
// other ("t017-false0" vs "t017-false1" are one edit apart, "Sydney" vs
// "Melbourne" are not).
var falseNames = [...]string{
	"mirage", "canard", "rumour", "spectre", "legend", "phantom", "fable", "decoy",
}

// trueValue is task j's ground-truth answer string.
func trueValue(j int) string { return fmt.Sprintf("verity%03d", j) }

// falseValue is task j's k-th false answer string.
func falseValue(j, k int) string {
	if k < len(falseNames) {
		return fmt.Sprintf("%s%03d", falseNames[k], j)
	}
	return fmt.Sprintf("wrong%dx%03d", k, j)
}

// NewCampaign generates a campaign from the spec using rng.
func NewCampaign(spec CampaignSpec, rng *randx.RNG) (*Campaign, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("gen: nil RNG")
	}

	tasksRNG := rng.Split("tasks")
	workersRNG := rng.Split("workers")
	answersRNG := rng.Split("answers")
	costsRNG := rng.Split("costs")

	groundTruth := make(map[string]string, spec.Tasks)
	for j := 0; j < spec.Tasks; j++ {
		groundTruth[taskID(j)] = trueValue(j)
	}

	// Copiers are a random subset of the worker indices.
	copierIdx := make(map[int]bool, spec.Copiers)
	for _, i := range workersRNG.Sample(spec.Workers, spec.Copiers) {
		copierIdx[i] = true
	}
	var honest []int
	for i := 0; i < spec.Workers; i++ {
		if !copierIdx[i] {
			honest = append(honest, i)
		}
	}
	if len(honest) == 0 {
		return nil, fmt.Errorf("gen: no honest workers to copy from")
	}

	// Copier sources come from a concentrated pool of prominent workers.
	poolSize := int(math.Ceil(spec.SourcePoolFraction * float64(len(honest))))
	if poolSize < spec.SourcesPerCopier {
		poolSize = spec.SourcesPerCopier
	}
	if poolSize > len(honest) {
		poolSize = len(honest)
	}
	pool := make([]int, 0, poolSize)
	for _, pos := range workersRNG.Sample(len(honest), poolSize) {
		pool = append(pool, honest[pos])
	}

	accuracy := make([]float64, spec.Workers)
	for i := range accuracy {
		accuracy[i] = workersRNG.Uniform(spec.AccuracyLow, spec.AccuracyHigh)
	}

	falseDist, err := randx.NewZipf(spec.NumFalse, spec.FalseZipfS)
	if err != nil {
		return nil, fmt.Errorf("gen: false-value distribution: %w", err)
	}

	// Participation weights decay with the task index.
	weights := make([]float64, spec.Tasks)
	for j := range weights {
		weights[j] = math.Pow(float64(j+1), -spec.ParticipationDecay)
	}

	// Honest answers are drawn first so copiers can copy from them.
	taskSets := make([][]int, spec.Workers)
	answers := make([]map[int]string, spec.Workers)
	for _, i := range honest {
		taskSets[i] = sampleTasks(workersRNG, weights, spec.TasksPerWorker)
	}
	topUpSparseTasks(workersRNG, spec, honest, taskSets)
	for _, i := range honest {
		answers[i] = make(map[int]string, len(taskSets[i]))
		for _, j := range taskSets[i] {
			answers[i][j] = independentAnswer(answersRNG, spec, i, j, accuracy[i], falseDist)
		}
	}

	sources := make(map[int][]int, spec.Copiers)
	for i := 0; i < spec.Workers; i++ {
		if !copierIdx[i] {
			continue
		}
		k := spec.SourcesPerCopier
		if k > len(pool) {
			k = len(pool)
		}
		var srcs []int
		for _, pos := range workersRNG.Sample(len(pool), k) {
			srcs = append(srcs, pool[pos])
		}
		sources[i] = srcs

		// The copier's task set is drawn from its sources' tasks, topped
		// up with independent picks if the sources are too narrow.
		pool := make(map[int]bool)
		for _, s := range srcs {
			for _, j := range taskSets[s] {
				pool[j] = true
			}
		}
		poolList := make([]int, 0, len(pool))
		for j := range pool {
			poolList = append(poolList, j)
		}
		sort.Ints(poolList)
		want := spec.TasksPerWorker
		var mine []int
		if len(poolList) <= want {
			mine = poolList
		} else {
			for _, pos := range workersRNG.Sample(len(poolList), want) {
				mine = append(mine, poolList[pos])
			}
			sort.Ints(mine)
		}
		taskSets[i] = mine
		answers[i] = make(map[int]string, len(mine))
		for _, j := range mine {
			answers[i][j] = copierAnswer(answersRNG, j, i, accuracy[i], srcs, answers, spec, falseDist)
		}
	}

	// Requirements are drawn from the paper's U[low, high] band, capped —
	// when configured — by a fraction of each task's total true-accuracy
	// coverage so every task remains coverable with redundancy.
	coverage := make([]float64, spec.Tasks)
	for i := 0; i < spec.Workers; i++ {
		for _, j := range taskSets[i] {
			coverage[j] += accuracy[i]
		}
	}
	b := model.NewBuilder()
	for j := 0; j < spec.Tasks; j++ {
		req := tasksRNG.Uniform(spec.RequirementLow, spec.RequirementHigh)
		if spec.RequirementCoverageCap > 0 {
			if cap := spec.RequirementCoverageCap * coverage[j]; req > cap {
				req = cap
			}
		}
		b.AddTask(model.Task{
			ID:          taskID(j),
			NumFalse:    spec.NumFalse,
			Requirement: req,
			Value:       tasksRNG.Uniform(spec.ValueLow, spec.ValueHigh),
		})
	}
	for i := 0; i < spec.Workers; i++ {
		for _, j := range taskSets[i] {
			b.AddObservation(workerID(i), taskID(j), answers[i][j])
		}
	}
	ds, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("gen: assembling dataset: %w", err)
	}

	// Private costs: right-skewed log-normal standing in for the eBay bid
	// trace, clamped to the configured band.
	costs := make([]float64, ds.NumWorkers())
	mu := math.Log(spec.CostMedian)
	for i := range costs {
		c := costsRNG.LogNormal(mu, spec.CostSigma)
		costs[i] = math.Min(spec.CostMax, math.Max(spec.CostMin, c))
	}

	// The builder indexes workers by first observation; remap the
	// generator-side per-index metadata to dataset indices.
	remap := func(genIdx int) int {
		i, ok := ds.WorkerIndex(workerID(genIdx))
		if !ok {
			return -1
		}
		return i
	}
	trueAcc := make([]float64, ds.NumWorkers())
	copiersOut := make(map[int]bool, len(copierIdx))
	sourcesOut := make(map[int][]int, len(sources))
	for g := 0; g < spec.Workers; g++ {
		i := remap(g)
		if i < 0 {
			continue // worker generated no observations (possible only for empty pools)
		}
		trueAcc[i] = accuracy[g]
		if copierIdx[g] {
			copiersOut[i] = true
			var ss []int
			for _, s := range sources[g] {
				if si := remap(s); si >= 0 {
					ss = append(ss, si)
				}
			}
			sourcesOut[i] = ss
		}
	}

	return &Campaign{
		Dataset:      ds,
		GroundTruth:  groundTruth,
		Costs:        costs,
		TrueAccuracy: trueAcc,
		CopierIndex:  copiersOut,
		Sources:      sourcesOut,
		Spec:         spec,
	}, nil
}

// sampleTasks picks k distinct task indices with the given weights using
// exponential keys (Efraimidis–Spirakis weighted sampling without
// replacement).
func sampleTasks(rng *randx.RNG, weights []float64, k int) []int {
	n := len(weights)
	if k >= n {
		out := make([]int, n)
		for j := range out {
			out[j] = j
		}
		return out
	}
	type kv struct {
		key float64
		j   int
	}
	keys := make([]kv, n)
	for j, w := range weights {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		keys[j] = kv{key: -math.Log(u) / w, j: j}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].key < keys[b].key })
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = keys[i].j
	}
	sort.Ints(out)
	return out
}

// topUpSparseTasks assigns extra honest workers to tasks with fewer than
// MinProvidersPerTask answers, mutating taskSets in place.
func topUpSparseTasks(rng *randx.RNG, spec CampaignSpec, honest []int, taskSets [][]int) {
	if spec.MinProvidersPerTask == 0 {
		return
	}
	providers := make([]int, spec.Tasks)
	assigned := make([]map[int]bool, len(taskSets))
	for _, i := range honest {
		assigned[i] = make(map[int]bool, len(taskSets[i]))
		for _, j := range taskSets[i] {
			providers[j]++
			assigned[i][j] = true
		}
	}
	order := rng.Perm(len(honest))
	cursor := 0
	for j := 0; j < spec.Tasks; j++ {
		for providers[j] < spec.MinProvidersPerTask {
			// Find the next honest worker not yet assigned to j.
			var picked = -1
			for scanned := 0; scanned < len(honest); scanned++ {
				cand := honest[order[cursor%len(honest)]]
				cursor++
				if !assigned[cand][j] {
					picked = cand
					break
				}
			}
			if picked < 0 {
				break // every honest worker already answers j
			}
			assigned[picked][j] = true
			taskSets[picked] = append(taskSets[picked], j)
			sort.Ints(taskSets[picked])
			providers[j]++
		}
	}
}

// independentAnswer draws worker self's own answer for task j, possibly
// emitted in a per-worker variant spelling (PresentationNoise, §IV-A).
func independentAnswer(rng *randx.RNG, spec CampaignSpec, self, j int, acc float64, falseDist *randx.Zipf) string {
	var v string
	if rng.Bool(acc) {
		v = trueValue(j)
	} else {
		v = falseValue(j, falseDist.Sample(rng))
	}
	if spec.PresentationNoise > 0 && rng.Bool(spec.PresentationNoise) {
		v = fmt.Sprintf("%s~p%d", v, rng.Intn(2))
	}
	return v
}

// copierAnswer draws a copier's answer: with probability CopyProb it
// copies from a source that answered j (possibly corrupting the value),
// otherwise it answers independently.
func copierAnswer(rng *randx.RNG, j, self int, acc float64, srcs []int,
	answers []map[int]string, spec CampaignSpec, falseDist *randx.Zipf) string {
	var available []string
	for _, s := range srcs {
		if v, ok := answers[s][j]; ok {
			available = append(available, v)
		}
	}
	if len(available) > 0 && rng.Bool(spec.CopyProb) {
		v := available[rng.Intn(len(available))]
		if rng.Bool(spec.CopyError) {
			// Corruption lands on a stable per-copier variant so repeated
			// errors by the same copier collide (as real typos do).
			return fmt.Sprintf("%s~e%d", v, self%3)
		}
		return v
	}
	return independentAnswer(rng, spec, self, j, acc, falseDist)
}
