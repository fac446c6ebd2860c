// Package lint is the repository's own analyzer suite: a dependency-free
// framework on go/ast, go/parser, go/token, and go/types that mechanically
// enforces the invariants the system's guarantees rest on. The paper's
// headline properties — bit-identical settles at every parallelism degree,
// exactly-once settle accounting, one imcerr→HTTP error taxonomy, and
// zero-cost observability when disabled — are easy to break with one stray
// clock read or ad-hoc status write; these analyzers make every such break
// a build failure instead of a convention violation.
//
// # Analyzers
//
//   - determinism: inside internal/truth, internal/auction, and
//     internal/numeric, forbids time.Now/time.Since, math/rand imports
//     (seeded randomness must flow through internal/randx), and ranging
//     over maps (iteration order is randomized; drain keys into a sorted
//     slice before they can affect output).
//   - errtaxonomy: internal/wire handlers may not call http.Error or write
//     ad-hoc status codes — every error response routes through the single
//     writeError seam with an imcerr code (writeError, writeJSON, and
//     status-capturing WriteHeader passthroughs are the only legitimate
//     WriteHeader call sites). Module-wide, library code re-erroring with
//     fmt.Errorf must wrap the cause with %w so errors.Is/As keep working.
//   - lockpair: inside internal/registry, internal/sched, and
//     internal/store, every .Lock()/.RLock() must be released in the same
//     function — either by a matching deferred unlock, or by a matching
//     plain unlock with no return statement between acquire and release.
//     Mismatched pairs (RLock released by Unlock) and locks held across an
//     early return are reported.
//   - obsnaming: every obs instrument registration, module-wide, must use
//     a compile-time-constant metric name matching
//     imc2_<subsystem>_<name>_<unit> (see MetricNameRE — the single source
//     of truth the wire package's naming test also delegates to). Inside
//     internal/* (internal/tracing excepted), a function that records to
//     an obs instrument or a tracing span may not call time.Now or
//     time.Since, guarded or not: phases are timed through
//     tracing.StartPhase, whose one pair of clock readings feeds span and
//     histogram alike and is skipped entirely when neither is attached.
//   - ctxscope: internal/* library code may not call context.Background or
//     context.TODO — contexts are originated by cmd/ binaries and tests
//     and flow down, so cancellation always propagates.
//
// The second generation is flow-sensitive, built on the intraprocedural
// CFG builder in the cfg subpackage plus per-function call-graph
// summaries (callgraph.go) that resolve calls — interface dispatch
// included — against every loaded package:
//
//   - lockorder: the cross-package lock-acquisition graph is acyclic. A
//     forward may-hold dataflow over every function in internal/registry,
//     internal/sched, internal/store, and internal/platform records an
//     edge whenever lock B is acquired while A is held, including through
//     transitive call chains; cycles are potential deadlocks, reported
//     with the witness acquisition sites and call paths. Lock identity is
//     type-based ("pkg.Type.field"), the granularity at which an ordering
//     discipline is stated. BuildLockGraph is exported for tests that
//     assert the documented hierarchy against the reconstructed one.
//   - exhaustive: every switch over an enum-like named type declared in
//     internal/platform, internal/store, or internal/sched (≥3 declared
//     constants) covers all constants or carries a non-empty default; an
//     empty default is reported as the silent drop it is. This is what
//     turns "new WAL event type without an Apply case" into a lint
//     failure instead of a replay divergence.
//   - goroleak: every go statement in internal packages spawns a body
//     that reaches a join or cancel point on all CFG paths — a deferred
//     WaitGroup.Done or close, a channel send/receive/range, a ctx-done
//     select, or a WaitGroup.Wait. Runs-to-completion-without-joining and
//     can-spin-forever are reported separately; a body declared outside
//     the package is reported at the spawn site.
//   - detflow: a forward taint pass per function. Sources are map-range
//     keys/values and clock reads (time.Now or a func() time.Time seam
//     value); sinks are WAL-encoded store types (Event, State, *Record,
//     *Payload) and Report/Audit types in the settle-output packages;
//     an explicit sort.*/slices.Sort* launders the taint. Tainted bytes
//     in those sinks break the replay/report equality the paper's
//     incentive argument rests on.
//
// # Suppression
//
// A finding is suppressed by a directive comment on the same line or the
// line immediately above, or for a whole file:
//
//	//lint:allow <rule> <justification>
//	//lint:allowfile <rule> <justification>
//
// The rule name is the analyzer name (several may be given,
// comma-separated). The justification is free text but should say why the
// invariant genuinely does not apply; the directive is the audit trail a
// reviewer reads. It is mandatory: a directive without one suppresses
// nothing and is itself reported under the lintdirective rule.
//
// # Loading
//
// LoadModule shells out to `go list -deps -export -json` and type-checks
// every matched package from source, resolving all imports — standard
// library and intra-module alike — from compiler export data. Test files
// are not analyzed: the invariants govern production code, and tests are
// where clocks, ad-hoc contexts, and unseeded randomness are legitimate.
// Fixture packages under testdata are loaded with LoadDir against the
// module's dependency closure.
//
// The cmd/imc2lint driver runs the suite over the module and exits 0 when
// clean, 1 on findings, and 2 when loading fails; -json emits a flat
// array, -sarif a SARIF 2.1.0 log that CI uploads to code scanning. CI
// runs the gate alongside go vet on every push.
package lint
