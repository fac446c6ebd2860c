package truth

import (
	"hash/fnv"
	"math"
	"testing"

	"imc2/internal/gen"
	"imc2/internal/model"
	"imc2/internal/randx"
)

// edPinHash hashes the bits of an ED result's Truth, Accuracy and
// TaskIndependence, in that order.
func edPinHash(res *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		for k := range b {
			b[k] = byte(x >> (8 * k))
		}
		h.Write(b[:])
	}
	for _, v := range res.Truth {
		put(uint64(uint32(v)))
	}
	for _, rows := range [][][]float64{res.Accuracy, res.TaskIndependence} {
		for _, row := range rows {
			for _, x := range row {
				put(math.Float64bits(x))
			}
		}
	}
	return h.Sum64()
}

// largestGroup is the size of the largest provider group: the most
// workers that gave one task one value.
func largestGroup(ds *model.Dataset) int {
	most := 0
	for j := 0; j < ds.NumTasks(); j++ {
		count := map[int32]int{}
		for _, v := range ds.TaskValues(j) {
			count[v]++
			most = max(most, count[v])
		}
	}
	return most
}

// TestEDPinned pins ED's outputs under DefaultOptions bit for bit on the
// paper's Table 1, the copier fixture and a generated campaign whose
// provider groups exceed the six workers ED enumerates exactly, so both
// the enumerated and the sampled orderings are covered.
func TestEDPinned(t *testing.T) {
	t1, _ := table1Dataset(t)
	cop, _ := copierScenario(t, 8, 4, 60)
	spec := gen.DefaultSpec()
	spec.Workers, spec.Tasks, spec.Copiers = 24, 10, 6
	spec.TasksPerWorker = 8
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	camp, err := gen.NewCampaign(spec, randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if g := largestGroup(camp.Dataset); g <= 6 {
		t.Fatalf("largest provider group of the generated campaign is %d, want > 6", g)
	}
	for _, tc := range []struct {
		name string
		ds   *model.Dataset
		want uint64
	}{
		{"table1", t1, 0xc23d5bd1cc4f766f},
		{"copiers", cop, 0xcf7771403abac734},
		{"sampled", camp.Dataset, 0xf5435ed57feb51a0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Discover(tc.ds, MethodED, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got := edPinHash(res); got != tc.want {
				t.Errorf("ED result hash = %#x, want %#x (largest group %d)", got, tc.want, largestGroup(tc.ds))
			}
		})
	}
}
