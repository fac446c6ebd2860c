// Package obs is the platform's dependency-free observability core: a
// metrics registry of atomic counters, gauges, and fixed-bucket
// histograms — plain and labeled — with Prometheus text-format
// exposition. Every instrument the platform registers follows the
// imc2_<subsystem>_<name>_<unit> naming convention, where <subsystem>
// is one of wire, sched, store, registry, truth, or tracing, and <unit>
// is total, seconds, bytes, count, ratio, or info. The convention is
// enforced statically by the obsnaming analyzer (internal/lint, run by
// cmd/imc2lint) on every registration with a constant name, and at
// runtime by TestMetricNamingConvention in internal/wire over the fully
// wired stack's exposition.
//
// # Timing
//
// Histograms of durations are observed through tracing.Phase, never
// from a local clock read: a phase reads the clock once at start and
// once at end and gives that one measurement to both its span and its
// histogram, so a *_seconds metric and the span of the same name cannot
// disagree. obsnaming enforces it: inside internal packages, a function
// that records to an instrument or a span may not call time.Now or
// time.Since itself.
//
// # Nil safety
//
// The whole API is nil-safe end to end: constructors on a nil
// *Registry return nil instruments, Vec lookups on nil Vecs return nil
// children, and every method on a nil instrument is a no-op. A library
// therefore threads a possibly-nil registry through unconditionally —
//
//	m := struct{ submits *obs.Counter }{submits: reg.Counter(...)}
//	...
//	m.submits.Inc() // no-op when reg was nil; one atomic add otherwise
//
// — and pays a single predictable nil check when observability is off.
// Instrumented hot paths stay allocation-free: Observe, Inc, Add, and
// Set never allocate. Only Vec.With allocates (on first use of a label
// combination), so hot paths resolve their children once at wiring
// time and hold them.
//
// # Exposition
//
// WritePrometheus renders the registry in Prometheus text format
// (version 0.0.4): one # HELP / # TYPE header per family, series in
// registration-then-first-use order, histograms expanded into
// cumulative _bucket series plus _sum and _count. Handler serves the
// same bytes over HTTP — platformd mounts it on the -metrics-addr
// listener as GET /metrics.
//
// # Relation to the paper
//
// The per-iteration settle telemetry this package carries (the
// imc2_truth_* histograms, observed from each recorded settle's audit
// convergence history) is the operational face of the paper's
// iterate-to-convergence truth discovery (Algorithm 1). Provisional
// estimate reads run the same computation but record no settle, so they
// add no observations.
package obs
