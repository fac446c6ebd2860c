package wire

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"

	"imc2/internal/gen"
	"imc2/internal/platform"
	"imc2/internal/randx"
	"imc2/internal/registry"
	"imc2/internal/store"
)

// BenchmarkSubmitBatchFig5 posts the fig5-scale batch body (400 workers
// × 500 answers, 4.0 MB, encoded as the typed client encodes it) through
// the real handler: body read, decode, submit, and in "durable" the WAL
// append under FsyncSettle. Each op submits to a fresh campaign on a
// fresh registry (and store), built and dropped outside the timer, so
// no op pays for the memory of the ones before it. Automatic snapshots
// are off, so every op does the same work.
func BenchmarkSubmitBatchFig5(b *testing.B) {
	spec := gen.DefaultSpec()
	spec.Workers, spec.Tasks, spec.Copiers, spec.TasksPerWorker = 400, 2000, 100, 500
	spec.ParticipationDecay = 0.3
	spec.RequirementLow, spec.RequirementHigh = 1, 2
	camp, err := gen.NewCampaign(spec, randx.New(5))
	if err != nil {
		b.Fatal(err)
	}
	ds := camp.Dataset
	subs := make([]Submission, ds.NumWorkers())
	for i := range subs {
		answers := make(map[string]string, len(ds.WorkerTasks(i)))
		for _, j := range ds.WorkerTasks(i) {
			answers[ds.Task(j).ID] = ds.ValueString(j, ds.ValueOf(i, j))
		}
		subs[i] = Submission{Worker: ds.WorkerID(i), Price: camp.Costs[i], Answers: answers}
	}
	body, err := json.Marshal(struct {
		Submissions []Submission `json:"submissions"`
	}{subs})
	if err != nil {
		b.Fatal(err)
	}
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				var opts []registry.Option
				var st *store.FileStore
				if durable {
					if st, err = store.Open(store.Options{Dir: filepath.Join(dir, strconv.Itoa(i)), SnapshotEvery: -1, Fsync: store.FsyncSettle}); err != nil {
						b.Fatal(err)
					}
					opts = append(opts, registry.WithStore(st))
				}
				reg := registry.New(opts...)
				c, err := reg.Create("fig5", ds.Tasks(), platform.DefaultConfig(), false)
				if err != nil {
					b.Fatal(err)
				}
				h := NewRegistryServer(reg, "", platform.DefaultConfig(), nil).Handler()
				req := httptest.NewRequest(http.MethodPost, "/v2/campaigns/"+c.ID()+"/submissions", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				b.StartTimer()
				h.ServeHTTP(rec, req)
				b.StopTimer()
				if rec.Code != http.StatusAccepted || c.Submissions() != len(subs) {
					b.Fatalf("batch: status %d, %d of %d accepted: %s", rec.Code, c.Submissions(), len(subs), rec.Body)
				}
				if st != nil {
					if err := st.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
