package truth

import (
	"math/rand"
	"slices"
	"testing"

	"imc2/internal/model"
)

// replayStop feeds seq to a truthHistory the way Engine.Step does:
// seq[0] is the seed, and iteration k starts from seq[k-1] and produces
// seq[k]. It returns the iteration that stopped the run (0: none) and
// checks every iteration's delta against countChanged.
func replayStop(t *testing.T, label string, seq [][]int32) int {
	t.Helper()
	var h truthHistory
	for k := 1; k < len(seq); k++ {
		h.record(seq[k-1])
		changed, stop := h.stop(seq[k])
		if want := countChanged(seq[k-1], seq[k]); changed != want {
			t.Fatalf("%s: iteration %d moved %d tasks, want %d", label, k, changed, want)
		}
		if stop {
			return k
		}
	}
	return 0
}

// cycleSequence is a seed and prefix-1 distinct vectors, after which
// the vectors repeat with the given period.
func cycleSequence(prefix, period, length int) [][]int32 {
	seq := make([][]int32, length)
	for k := range seq {
		if k < prefix {
			seq[k] = []int32{int32(k), int32(k % 3), 7}
		} else {
			seq[k] = slices.Clone(seq[k-period])
		}
	}
	return seq
}

// TestTruthHistoryStopsOnRevisit pins the stopping rule: a run stops at
// the first iteration whose truth vector equals one of the vectors the
// last revisitWindow iterations started from. A period-1 revisit (no
// task moved) stops with a zero delta, as the zero-change rule did;
// periods 2..revisitWindow stop with the delta still positive; a longer
// cycle is never detected and runs on to MaxIterations.
func TestTruthHistoryStopsOnRevisit(t *testing.T) {
	const prefix, length = 6, 60
	for period := 1; period <= revisitWindow+1; period++ {
		seq := cycleSequence(prefix, period, length)
		got := replayStop(t, "cycle", seq)
		want := prefix // the first vector that equals an earlier one
		if period > revisitWindow {
			want = 0
		}
		if got != want {
			t.Fatalf("period %d: stopped at iteration %d, want %d", period, got, want)
		}
		if period == 1 && countChanged(seq[got-1], seq[got]) != 0 {
			t.Fatalf("period 1 stopped with a non-zero delta")
		}
		if period > 1 && want > 0 && countChanged(seq[got-1], seq[got]) == 0 {
			t.Fatalf("period %d stopped with a zero delta", period)
		}
	}
}

// TestTruthHistoryMatchesDefinition replays random walks over a small
// alphabet, where revisits of every lag are common, and requires the
// ring to stop exactly where a direct scan of the last revisitWindow
// vectors finds an equal one. Where the scan finds only the previous
// vector, that is the zero-change rule's stop.
func TestTruthHistoryMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		length := 2 + rng.Intn(30)
		seq := make([][]int32, length)
		for k := range seq {
			seq[k] = []int32{int32(rng.Intn(2)), int32(rng.Intn(2)), int32(rng.Intn(3))}
		}
		want := 0
		for k := 1; k < length && want == 0; k++ {
			for lag := 1; lag <= min(k, revisitWindow); lag++ {
				if slices.Equal(seq[k], seq[k-lag]) {
					want = k
				}
			}
		}
		if got := replayStop(t, "walk", seq); got != want {
			t.Fatalf("trial %d: stopped at iteration %d, want %d (%v)", trial, got, want, seq)
		}
	}
}

// zeroChangeDiscover runs DATE under Algorithm 1's literal stopping rule:
// stop when no task moved, or after MaxIterations. It is the oracle of
// the precision contract (TestStopRuleContract).
func zeroChangeDiscover(ds *model.Dataset, opt Options) (*Result, error) {
	e, err := NewEngine(ds, MethodDATE, opt)
	if err != nil {
		return nil, err
	}
	prev := make([]int32, e.s.m)
	for e.iterations < opt.MaxIterations && !e.converged {
		e.iterations++
		copy(prev, e.s.truth)
		e.s.computeDependence()
		e.s.computeIndependence(false)
		e.s.estimate()
		e.converged = countChanged(prev, e.s.truth) == 0
	}
	return e.Result(), nil
}
