// Package obsfix exercises the obs metric-naming and clock-seam
// analyzer: the fixture is loaded under the synthetic import path
// scratchfix/internal/metrics so the internal-package seam rules apply.
package obsfix

import (
	"time"

	"imc2/internal/obs"
	"imc2/internal/tracing"
)

// badSuffix is a constant name with a non-conforming unit suffix; the
// analyzer resolves named constants, not just literals.
const badSuffix = "imc2_wire_requests_elapsed"

// Probe is an instrumented component.
type Probe struct {
	reg     *obs.Registry
	timed   bool
	settles *obs.Counter
	latency *obs.Histogram
}

// Wire registers the probe's instruments.
func (p *Probe) Wire(dynamic string) {
	p.settles = p.reg.Counter("imc2_sched_settles_total", "settles started")
	p.latency = p.reg.Histogram("imc2_sched_settle_seconds", "settle latency", nil)
	p.reg.Counter("rq_total", "bad prefix")  // want "violates the imc2_"
	p.reg.Counter(badSuffix, "bad unit")     // want "violates the imc2_"
	p.reg.Counter(dynamic, "not a constant") // want "must be a compile-time constant"
}

// ObservePhase times through the one seam: span and histogram share the
// phase's two clock readings, and with neither attached none is taken.
func (p *Probe) ObservePhase(parent *tracing.Span, fn func()) {
	ph := tracing.StartPhase(parent, "probe.run", p.latency)
	fn()
	p.settles.Inc()
	ph.End(nil)
}

// ObserveGuarded reads the clock behind the timed guard, beside a span:
// the histogram and the span each take their own readings and disagree.
func (p *Probe) ObserveGuarded(parent *tracing.Span, fn func()) {
	span := parent.Child("probe.run")
	var start time.Time
	if p.timed {
		start = time.Now() // want "clock read in an instrumented function"
	}
	fn()
	span.End()
	if p.timed {
		p.latency.Observe(time.Since(start).Seconds()) // want "clock read in an instrumented function"
	}
}

// ObserveEarlyReturn guards with an early return instead; still a
// second measurement outside the seam.
func (p *Probe) ObserveEarlyReturn(fn func()) {
	p.settles.Inc()
	if p.reg == nil {
		fn()
		return
	}
	start := time.Now() // want "clock read in an instrumented function"
	fn()
	p.latency.Observe(time.Since(start).Seconds()) // want "clock read in an instrumented function"
}

// ObserveUnguarded reads the clock unconditionally in an instrumented
// function: the uninstrumented path pays for clock reads it never uses.
func (p *Probe) ObserveUnguarded(fn func()) {
	start := time.Now() // want "clock read in an instrumented function"
	fn()
	p.settles.Inc()
	p.latency.Observe(time.Since(start).Seconds()) // want "clock read in an instrumented function"
}

// Stamp reads the clock in a function that records nothing: not
// instrumented, so not the seam's concern.
func Stamp() time.Time { return time.Now() }
