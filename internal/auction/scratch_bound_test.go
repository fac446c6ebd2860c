package auction

import (
	"runtime"
	"testing"
)

// TestAuctionScratchBound measures the bytes each mechanism allocates on
// the fig5-scale instance (400 workers × 2000 tasks, 200,000 entries)
// and bounds them by what the coverage bookkeeping needs:
//
//   - the index, 12·entries + 8·(m+1) bytes: each entry's worker (4
//     bytes) and accuracy (8), and the per-task offsets;
//   - at most eight arrays of 8·(n+m) bytes: states (Θ' and cov), the
//     index's build cursor, and the per-worker flags, prices and
//     payments, each of which fits in one;
//   - the outcome: its payments (8·n), its winner list with the
//     append growth that built it (16·winners), and 4 KiB for the
//     struct and the sort's closure.
//
// Nothing may grow with entries beyond the index: a state that carried
// one float per entry, as the coverage state once did, adds 8·entries
// (1.6 MB here) per copy and cannot fit.
func TestAuctionScratchBound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the fig5-scale instance (seconds)")
	}
	in := fig5Instance(t)
	n, m := in.NumWorkers(), in.NumTasks()
	entries := 0
	for _, ts := range in.TaskSets {
		entries += len(ts)
	}
	index := 12*entries + 8*(m+1)
	states := 8 * 8 * (n + m)
	mechanisms := []struct {
		name string
		run  func(*Instance) (*Outcome, error)
	}{
		{"ReverseAuction", ReverseAuction},
		{"GreedyBid", GreedyBid},
		{"GreedyAccuracy", GreedyAccuracy},
	}
	for _, mech := range mechanisms {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		out, err := mech.run(in)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", mech.name, err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		outcome := 8*n + 16*len(out.Winners) + 4096
		bound := uint64(index + states + outcome)
		t.Logf("%s: %d winners, %d bytes allocated, bound %d (index %d, states %d, outcome %d)",
			mech.name, len(out.Winners), got, bound, index, states, outcome)
		if got > bound {
			t.Errorf("%s allocated %d bytes, over %d: index 12·entries + 8·(m+1) = %d, 8 arrays of 8·(n+m) = %d, outcome %d (n=%d, m=%d, %d entries)",
				mech.name, got, bound, index, states, outcome, n, m, entries)
		}
	}
}
