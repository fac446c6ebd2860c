package store

import (
	"context"
	"math"
	"testing"
	"time"

	"imc2/internal/obs"
	"imc2/internal/tracing"
)

// TestAppendMetricMatchesSpans: with metrics and tracing both on, the
// append histogram and the store.append spans come from one phase per
// append, so imc2_store_append_seconds sums exactly the store.append
// span durations — fsyncs and the snapshots appends trigger included.
func TestAppendMetricMatchesSpans(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir(), SnapshotEvery: 2, Fsync: FsyncAlways, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr := tracing.New(tracing.Options{})
	ctx, root := tr.StartRoot(context.Background(), "test", "")
	evs := []Event{
		createdEvent("c1", "one", false),
		submissionsEvent("c1", "w1"),
		submissionsEvent("c1", "w2", "w3"),
		createdEvent("c2", "two", false),
		submissionsEvent("c2", "w1"),
	}
	for _, ev := range evs {
		if err := st.AppendContext(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	root.End()
	snap, ok := tr.Collector().Trace(root.TraceIDString())
	if !ok {
		t.Fatal("trace not retained")
	}

	// Sum the spans in start order, which for sequential appends is the
	// order the histogram observed them in, so the float sums match
	// bit for bit.
	appends := map[string]bool{}
	var spanSum float64
	snapshots := 0
	for _, s := range snap.Spans {
		switch s.Name {
		case "store.append":
			appends[s.SpanID] = true
			d := time.Duration(math.Round(s.DurationMS * float64(time.Millisecond)))
			spanSum += d.Seconds()
		case "store.snapshot":
			if !appends[s.ParentID] {
				t.Fatalf("store.snapshot span outside any store.append: %+v", s)
			}
			snapshots++
		}
	}
	if len(appends) != len(evs) || snapshots == 0 {
		t.Fatalf("%d store.append spans and %d snapshots, want %d and > 0", len(appends), snapshots, len(evs))
	}
	h := st.m.appendDur
	if h.Count() != uint64(len(evs)) || h.Sum() != spanSum {
		t.Fatalf("imc2_store_append_seconds count=%d sum=%v, want %d and exactly the spans' %v",
			h.Count(), h.Sum(), len(evs), spanSum)
	}
}
