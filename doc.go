// Package imc2 reproduces "Incentivizing the Workers for Truth Discovery
// in Crowdsourcing with Copiers" (Jiang, Niu, Xu, Yang, Xu — ICDCS 2019).
//
// IMC2 is a two-stage incentive mechanism for crowdsourcing platforms
// whose worker pool contains copiers:
//
//   - Stage 1 — truth discovery (DATE): a Bayesian analysis detects
//     directed copying between workers from a single data snapshot,
//     discounts copied values, and jointly estimates worker accuracy and
//     per-task truth. Extensions handle values with multiple
//     presentations (similarity merging) and non-uniformly distributed
//     false values.
//
//   - Stage 2 — reverse auction: the platform selects a minimum-cost set
//     of workers whose estimated accuracies meet every task's accuracy
//     requirement (the NP-hard SOAC problem) with a greedy mechanism that
//     is individually rational, truthful, and 2εH_Ω-approximate, then
//     pays each winner its critical value.
//
// The package is a facade: the heavy lifting lives in internal packages
// (truth, auction, platform, registry, gen, experiment), and this package
// re-exports the stable API. Quick tour:
//
//	// Build a dataset by hand…
//	ds, err := imc2.NewDatasetBuilder().
//		AddTask(imc2.Task{ID: "capital-of-au", NumFalse: 3, Requirement: 2, Value: 5}).
//		AddObservation("alice", "capital-of-au", "Canberra").
//		AddObservation("bob", "capital-of-au", "Sydney").
//		Build()
//
//	// …or generate a synthetic campaign with copiers.
//	campaign, err := imc2.NewCampaign(imc2.DefaultCampaignSpec(), imc2.NewRNG(42))
//
//	// Stage 1: truth discovery.
//	res, err := imc2.DiscoverTruth(ds, imc2.MethodDATE, imc2.DefaultTruthOptions())
//
//	// Stage 2: the full campaign (truth discovery + reverse auction).
//	p, err := imc2.NewPlatform(ds.Tasks())
//	… p.Submit(imc2.Submission{…}) …
//	report, err := p.Run(imc2.DefaultPlatformConfig())
//
// A long-lived service hosts many concurrent campaigns in a registry;
// each campaign walks an explicit lifecycle (Draft → Open → Closing →
// Settled, or Cancelled) and settles off the caller's lock, so one slow
// settle never blocks the others:
//
//	reg := imc2.NewCampaignRegistry()
//	cfg := imc2.DefaultPlatformConfig()
//	cfg.Mechanism = imc2.MechanismGreedyBid
//	c, err := reg.Create("week-31", ds.Tasks(), cfg, false)
//	… c.Submit(imc2.Submission{…}) …
//	report, err := c.Settle(ctx)        // ctx-bounded two-stage settle
//	state := c.State()                   // imc2.CampaignSettled
//
// Settles are CPU-bound in stage 1; the truth-discovery engine spreads
// each iteration over a bounded worker pool (TruthOptions.Parallelism,
// 0 = GOMAXPROCS, 1 = serial; platformd's -parallelism). The partition
// is a pure function of the dataset shape, so every parallelism degree
// produces bit-identical results — see API.md's "Settle performance"
// and the committed BenchmarkDiscoverSerial/BenchmarkDiscoverParallel
// comparison.
//
// A registry settling many campaigns at once should attach a settle
// scheduler, which bounds the aggregate instead of each settle
// separately: a FIFO admission semaphore lets at most
// MaxConcurrentSettles campaigns run their stages concurrently (the
// rest queue with observable positions — "settle_admission" in the /v2
// snapshot, GET /v2/stats for totals), and all admitted settles
// share one fixed worker pool with round-robin fairness, so N closes
// cost one pool instead of N×GOMAXPROCS goroutines:
//
//	s := imc2.NewSettleScheduler(imc2.SettleSchedulerConfig{MaxConcurrentSettles: 2})
//	defer s.Close()
//	reg := imc2.NewCampaignRegistry(imc2.WithSettleScheduler(s))
//
// (platformd wires this via -max-settles and -sched-workers; the
// caller, not the registry, closes the scheduler). Scheduling never
// changes outcomes: the work partition's shape-purity above means
// reports stay bit-identical under any interleaving of campaigns on the
// shared pool, which the multi-campaign stress test in internal/wire pins
// bit-for-bit against serial baselines. The admission queue may itself
// be bounded (SettleSchedulerConfig.MaxQueuedSettles, platformd
// -max-queued-settles): an overflowing close is rejected with
// imc2.ErrUnavailable — 503 + Retry-After on the wire — instead of
// queueing without bound.
//
// An open campaign also answers a provisional truth estimate — served
// on GET /v2/campaigns/{id}/estimate and via c.Estimate(ctx) — computed
// when it is read: one cold truth-discovery pass over the submissions
// accepted so far, under the campaign's settle configuration. The
// paper's mechanism settles once, after all bids are in, so nothing
// keeps a running estimate between reads; an estimate taken with no
// later submission equals the settled report's truth. The read borrows
// a slot from the settle scheduler, so one admission bound governs
// reads and settles together, and a full queue rejects it as
// imc2.ErrUnavailable.
//
// A production registry should also be durable: attach a campaign store
// (internal/store) and every mutation — creation, submissions,
// lifecycle transitions, settled reports — is logged to an event-sourced
// WAL with periodic compacted snapshots before it is acknowledged, so a
// crash loses nothing and a restart replays the directory to a
// bit-identical registry (campaigns that died mid-settle are re-queued
// automatically):
//
//	st, err := imc2.OpenFileStore(imc2.CampaignStoreOptions{Dir: "/var/lib/imc2"})
//	defer st.Close() // after the registry's settles drain
//	reg := imc2.NewCampaignRegistry(imc2.WithCampaignStore(st))
//	pending, err := imc2.RestoreCampaigns(reg, st)  // before serving
//
// (platformd wires this via -data-dir, -snapshot-every, and -fsync; see
// API.md's "Durability" for the WAL format, fsync policy, and recovery
// semantics, and GET /v2/stats for observability.)
//
// The whole platform is observable through one metrics registry
// (internal/obs): hand imc2.NewMetricsRegistry() to the scheduler, the
// store, the campaign registry (imc2.WithObservability), and the wire
// server, and every subsystem exposes Prometheus-text instruments —
// request latency by route, settle admission and queue wait, WAL fsync
// latency, campaigns by state, and per-iteration truth-discovery
// telemetry (imc2.SettleTrace). platformd serves it all on
// -metrics-addr (plus optional -pprof) and logs structured records via
// -log-format; see API.md's "Observability". Instrumentation never
// changes results, and a nil registry disables it at zero cost.
//
// For request-level visibility the platform also traces itself
// (internal/tracing): attach imc2.NewTracer to the registry
// (imc2.WithTracing) and the wire server, and every request becomes a
// root span — adopting an inbound W3C traceparent when one is present —
// while a close's asynchronous settle carries one child tree through
// scheduler admission, truth-discovery iterations, the auction, and the
// store's appends and fsyncs. Completed traces land in a fixed-size
// flight recorder that keeps the recent ring plus every error trace and
// the slowest settles, served on GET /v2/traces and /v2/traces/{id}
// (platformd -trace, pretty-printed by workeragent -trace <id>). Like
// metrics, tracing never changes results — reports are bit-identical
// traced or not — and a nil tracer costs nothing: no clock reads, no
// allocations. See API.md's "Tracing".
//
// Failures everywhere carry a machine-readable code (imc2.ErrorCodeOf;
// sentinels imc2.ErrNotFound, imc2.ErrConflict, imc2.ErrInvalid,
// imc2.ErrInfeasible, imc2.ErrMonopolist, imc2.ErrCancelled), which the
// HTTP layer (internal/wire, see API.md) maps onto the versioned /v2
// wire protocol.
//
// Every figure and table of the paper's evaluation regenerates through
// RunExperiment (see cmd/imc2bench and internal/experiment).
//
// Contributors: the guarantees above are not just prose — a custom
// analyzer suite (internal/lint, driver cmd/imc2lint) mechanically
// enforces settle determinism, the unified error taxonomy, lock
// pairing in the shared-state packages, metric naming with the
// nil-safe clock seam, and context discipline in library code, plus
// four flow-sensitive rules built on a CFG and call-graph layer: the
// cross-package lock-acquisition graph must stay acyclic (lockorder),
// switches over lifecycle/event enums must stay exhaustive
// (exhaustive), every spawned goroutine must reach a join or cancel
// point (goroleak), and map-order/clock-derived values must not reach
// WAL-encoded or report bytes (detflow). CI runs `go run ./cmd/imc2lint
// ./...` as a required step and uploads a `-sarif` log to code
// scanning; deliberate exceptions are annotated in the source with
// `//lint:allow <rule> <justification>` (file-scoped:
// `//lint:allowfile`). See API.md's "Static analysis (imc2lint)".
package imc2
