package wire

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"imc2/internal/gen"
	"imc2/internal/platform"
	"imc2/internal/randx"
	"imc2/internal/truth"
)

// settlePinsFile maps each settle case of TestFormatPinSettleOutcomes to
// the SHA-256 of its report and audit JSON (or of its error text).
const settlePinsFile = "settle_pins.json"

// settlePinShapes are reduced versions of the benchmark's two campaign
// shapes: fig5 (dense, 25% of tasks per worker) and sparse (1% of tasks
// per worker, every task topped up to four providers).
func settlePinShapes() map[string]gen.CampaignSpec {
	fig5 := gen.DefaultSpec()
	fig5.Workers = 80
	fig5.Tasks = 400
	fig5.Copiers = 20
	fig5.TasksPerWorker = 100
	fig5.ParticipationDecay = 0.3
	fig5.RequirementLow, fig5.RequirementHigh = 1, 2

	sparse := gen.DefaultSpec()
	sparse.Workers = 160
	sparse.Tasks = 400
	sparse.Copiers = 32
	sparse.TasksPerWorker = 4
	sparse.MinProvidersPerTask = 4
	sparse.RequirementLow, sparse.RequirementHigh = 0.5, 1
	return map[string]gen.CampaignSpec{"fig5": fig5, "sparse": sparse}
}

// settleOutcome settles campaign c under cfg and returns the bytes the
// pin hashes: the report and the audit (convergence wall times cleared),
// or the settle's error text.
func settleOutcome(t *testing.T, c *gen.Campaign, cfg platform.Config) []byte {
	t.Helper()
	p, err := platform.New(c.Dataset.Tasks())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Dataset.NumWorkers(); i++ {
		if err := p.Submit(submissionFor(c, i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := p.Settle(context.Background(), cfg)
	if err != nil {
		return []byte("error: " + err.Error())
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var audit any // null for methods without a dependence model
	if a := p.LastAudit(); a != nil {
		audit = untimed(a)
	}
	buf, err := json.Marshal(audit)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(out, '\n'), buf...)
}

// revisitSeed is a reduced sparse campaign whose DATE run (default
// options) stops on a revisit of period 2 or more.
const revisitSeed = 15

// requireRevisitStop fails unless the settle outcome's audit ends on a
// converged iteration that still moved a task: a stop on an earlier
// truth vector than the previous one.
func requireRevisitStop(t *testing.T, outcome []byte) {
	t.Helper()
	_, auditJSON, _ := bytes.Cut(outcome, []byte("\n"))
	var audit platform.Audit
	if err := json.Unmarshal(auditJSON, &audit); err != nil {
		t.Fatal(err)
	}
	conv := audit.Convergence
	if len(conv) == 0 || !conv[len(conv)-1].Converged || conv[len(conv)-1].Changed == 0 {
		t.Fatalf("settle does not stop on a revisit of period >= 2: convergence %+v", conv)
	}
	t.Logf("stops at iteration %d with %d tasks moved", len(conv), conv[len(conv)-1].Changed)
}

// TestFormatPinSettleOutcomes pins what a settle computes: the report and
// audit of reduced fig5 and sparse generator campaigns at seeds 1, 5 and
// 9, under GreedyBid and ReverseAuction, with DATE, MV and NC. Every
// accuracy, independence and dependence value reaches these bytes (as
// worker accuracies, payments and winners, pair posteriors and copier
// scores), so a layout change in the truth engine or the auction that
// moved one float would fail here.
func TestFormatPinSettleOutcomes(t *testing.T) {
	got := make(map[string]string)
	shapes := settlePinShapes()
	for _, shape := range []string{"fig5", "sparse"} {
		for _, seed := range []int64{1, 5, 9} {
			c, err := gen.NewCampaign(shapes[shape], randx.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			for _, mech := range []platform.Mechanism{platform.MechanismGreedyBid, platform.MechanismReverseAuction} {
				for _, method := range []truth.Method{truth.MethodDATE, truth.MethodMV, truth.MethodNC} {
					cfg := platform.DefaultConfig()
					cfg.TruthMethod = method
					cfg.TruthOptions.Parallelism = 1
					cfg.Mechanism = mech
					sum := sha256.Sum256(settleOutcome(t, c, cfg))
					got[fmt.Sprintf("%s/seed=%d/%s/%s", shape, seed, mech, method)] = hex.EncodeToString(sum[:])
				}
			}
		}
	}
	// A DATE run that stops on a revisit of period 2 or more: its last
	// iteration still moves a task and lands on an earlier truth vector,
	// so a change to the stopping rule moves this pin.
	c, err := gen.NewCampaign(shapes["sparse"], randx.New(revisitSeed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := platform.DefaultConfig()
	cfg.TruthOptions.Parallelism = 1
	cfg.Mechanism = platform.MechanismGreedyBid
	out := settleOutcome(t, c, cfg)
	requireRevisitStop(t, out)
	sum := sha256.Sum256(out)
	got[fmt.Sprintf("sparse/seed=%d/GB/DATE/revisit", revisitSeed)] = hex.EncodeToString(sum[:])

	path := filepath.Join(formatDir, settlePinsFile)
	if *updateFormat {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: settle outcome hash %s, pinned %s", name, got[name], want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d pinned cases, %d computed", len(want), len(got))
	}
}
