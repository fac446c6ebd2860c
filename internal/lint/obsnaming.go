package lint

import (
	"fmt"
	"go/ast"
	"regexp"
)

// obsPath is the observability package every instrument comes from.
const obsPath = "imc2/internal/obs"

// tracingPath is the span subsystem and the one clock seam: its Phase
// reads the clock for spans and histograms alike, so functions that
// record spans are held to the clock-seam rule too.
const tracingPath = "imc2/internal/tracing"

// registrationMethods are the *obs.Registry constructors that take a
// metric name as their first argument.
var registrationMethods = map[string]bool{
	"Counter":      true,
	"Gauge":        true,
	"GaugeFunc":    true,
	"Histogram":    true,
	"CounterVec":   true,
	"GaugeVec":     true,
	"HistogramVec": true,
}

// MetricNameRE is the platform's metric naming convention,
// imc2_<subsystem>_<name>_<unit> — the single source of truth shared by
// the analyzer and the wire package's runtime naming test. Adding a new
// subsystem means extending this list deliberately, here.
var MetricNameRE = regexp.MustCompile(
	`^imc2_(wire|sched|store|registry|truth|tracing)_[a-z][a-z0-9_]*_(total|seconds|bytes|count|info|ratio)$`)

// CheckMetricName validates one metric name against the convention.
func CheckMetricName(name string) error {
	if !MetricNameRE.MatchString(name) {
		return fmt.Errorf("metric %q violates the imc2_<subsystem>_<name>_<unit> naming convention", name)
	}
	return nil
}

// ObsNamingAnalyzer checks every obs instrument registration in the
// module: the metric name must be a compile-time constant matching
// MetricNameRE. Inside internal packages it additionally enforces the
// clock seam: a function that records to an obs instrument or a tracing
// span may not read the clock itself (see checkClockSeam).
func ObsNamingAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "obsnaming",
		Doc:  "obs registrations use constant convention-conforming names; instrumented functions read the clock only through tracing.Phase",
		Run: func(pass *Pass) {
			if pass.Pkg.Path == obsPath {
				return // the instrument library itself, not a consumer
			}
			for _, f := range pass.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					path, recvType, method, ok := pass.Method(call)
					if !ok || path != obsPath || recvType != "Registry" || !registrationMethods[method] || len(call.Args) == 0 {
						return true
					}
					name, isConst := pass.StringConst(call.Args[0])
					if !isConst {
						pass.Reportf(call.Args[0].Pos(),
							"metric name passed to obs.Registry.%s must be a compile-time constant so the convention is checkable", method)
						return true
					}
					if err := CheckMetricName(name); err != nil {
						pass.Reportf(call.Args[0].Pos(), "%v", err)
					}
					return true
				})
			}
			if pass.Pkg.InScope("internal") {
				for _, decl := range pass.funcDecls() {
					checkClockSeam(pass, decl)
				}
			}
		},
	}
}

// checkClockSeam flags every direct clock read in a function that
// records to obs instruments or tracing spans. Such functions time
// their phases with tracing.StartPhase, whose single pair of readings
// feeds span and histogram alike — so a second, local clock read is
// either a measurement the sinks disagree on or a cost the
// uninstrumented path pays for nothing, guarded or not. The tracing
// package itself is the seam and is exempt.
func checkClockSeam(pass *Pass, decl *ast.FuncDecl) {
	if pass.Pkg.Path == tracingPath {
		return
	}
	usesObs := false
	var clocks []*ast.CallExpr
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, _, _, ok := pass.Method(call); ok && (path == obsPath || path == tracingPath) {
			usesObs = true
		}
		path, name, ok := pass.PkgFunc(call)
		switch {
		case !ok:
		case path == tracingPath:
			usesObs = true
		case path == "time" && (name == "Now" || name == "Since"):
			clocks = append(clocks, call)
		}
		return true
	})
	if !usesObs {
		return
	}
	for _, clock := range clocks {
		pass.Reportf(clock.Pos(),
			"clock read in an instrumented function: time the phase with tracing.StartPhase so span and histogram share one measurement and the uninstrumented path reads no clock")
	}
}
