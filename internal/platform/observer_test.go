package platform

import (
	"context"
	"reflect"
	"strconv"
	"testing"

	"imc2/internal/tracing"
	"imc2/internal/truth"
)

type iterRecorder struct{ its []truth.IterationStats }

func (r *iterRecorder) ObserveIteration(it truth.IterationStats) { r.its = append(r.its, it) }

// TestSettleObserverForwardsEveryIteration: the settle observer is the
// engine's only Trace, so the caller's TruthOptions.Trace must receive
// exactly the iterations the audit records, in order, and — when the
// settle is traced — each one as a truth.iteration event on the
// truth.discover span.
func TestSettleObserverForwardsEveryIteration(t *testing.T) {
	p, _ := smallCampaign(t, 47)
	rec := &iterRecorder{}
	cfg := DefaultConfig()
	cfg.TruthOptions.Trace = rec
	tr := tracing.New(tracing.Options{})
	ctx, root := tr.StartRoot(context.Background(), "settle", "")
	rep, err := p.Settle(ctx, cfg)
	root.End()
	if err != nil {
		t.Fatal(err)
	}

	audit := p.LastAudit()
	if audit == nil || len(audit.Convergence) == 0 {
		t.Fatal("settle recorded no convergence history")
	}
	if len(rec.its) != rep.TruthIterations || !reflect.DeepEqual(rec.its, audit.Convergence) {
		t.Fatalf("caller's trace got %d iterations, audit lists %d (report says %d); want the same sequence",
			len(rec.its), len(audit.Convergence), rep.TruthIterations)
	}

	snap, ok := tr.Collector().Trace(root.TraceIDString())
	if !ok {
		t.Fatal("settle trace not collected")
	}
	var events []tracing.EventSnapshot
	for _, s := range snap.Spans {
		if s.Name == "truth.discover" {
			events = s.Events
		}
	}
	if len(events) != len(rec.its) {
		t.Fatalf("truth.discover carries %d events, want one per iteration (%d)", len(events), len(rec.its))
	}
	for i, ev := range events {
		if ev.Name != "truth.iteration" || ev.Attrs["iteration"] != strconv.Itoa(rec.its[i].Iteration) ||
			ev.Attrs["changed"] != strconv.Itoa(rec.its[i].Changed) {
			t.Fatalf("event %d = %s %v, want truth.iteration for %+v", i, ev.Name, ev.Attrs, rec.its[i])
		}
	}
}
