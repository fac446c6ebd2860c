package truth

import (
	"reflect"
	"testing"

	"imc2/internal/model"
)

// recorder is a Trace that retains every iteration in order.
type recorder struct{ Iterations []IterationStats }

func (r *recorder) ObserveIteration(s IterationStats) { r.Iterations = append(r.Iterations, s) }

func traceDataset(t *testing.T) *model.Dataset {
	t.Helper()
	ds, _ := copierScenario(t, 12, 6, 40)
	return ds
}

// TestTraceDoesNotChangeResults runs each iterative method with and
// without a Trace and requires bit-identical results — tracing is
// observation only.
func TestTraceDoesNotChangeResults(t *testing.T) {
	ds := traceDataset(t)
	for _, method := range []Method{MethodDATE, MethodNC, MethodED} {
		opt := DefaultOptions()
		plain, err := Discover(ds, method, opt)
		if err != nil {
			t.Fatalf("%v untraced: %v", method, err)
		}
		rec := &recorder{}
		opt.Trace = rec
		traced, err := Discover(ds, method, opt)
		if err != nil {
			t.Fatalf("%v traced: %v", method, err)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("%v: traced result differs from untraced", method)
		}
		if len(rec.Iterations) != traced.Iterations {
			t.Fatalf("%v: recorded %d iterations, result says %d", method, len(rec.Iterations), traced.Iterations)
		}
		for i, it := range rec.Iterations {
			if it.Iteration != i+1 {
				t.Fatalf("%v: iteration %d labeled %d", method, i+1, it.Iteration)
			}
			if it.Converged != (it.Changed == 0) {
				t.Fatalf("%v: iteration %d converged=%v with changed=%d", method, i+1, it.Converged, it.Changed)
			}
			if it.DependenceSeconds < 0 || it.IndependenceSeconds < 0 || it.EstimateSeconds < 0 {
				t.Fatalf("%v: negative pass time in %+v", method, it)
			}
			if method == MethodNC && (it.DependenceSeconds != 0 || it.IndependenceSeconds != 0) {
				t.Fatalf("NC reported dependence/independence time: %+v", it)
			}
		}
		last := rec.Iterations[len(rec.Iterations)-1]
		if last.Converged != traced.Converged {
			t.Fatalf("%v: last trace converged=%v, result converged=%v", method, last.Converged, traced.Converged)
		}
	}
}
