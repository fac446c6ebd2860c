package detflowfix

import (
	"sort"

	"imc2/internal/platform"
)

// loggedBatch builds a submissions batch for the WAL from a map range:
// the batch order, which fixes worker indexing on replay, follows map
// iteration order.
func loggedBatch(bids map[string]float64) []platform.Submission {
	var subs []platform.Submission
	for worker, price := range bids {
		subs = append(subs, platform.Submission{Worker: worker, Price: price}) // want "value derived from map iteration order flows into platform.Submission .WAL-encoded"
	}
	return subs
}

// sortedBatch launders the same range through sort.Strings: clean.
func sortedBatch(bids map[string]float64) []platform.Submission {
	workers := make([]string, 0, len(bids))
	for w := range bids {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	subs := make([]platform.Submission, 0, len(workers))
	for _, w := range workers {
		subs = append(subs, platform.Submission{Worker: w, Price: bids[w]})
	}
	return subs
}
