package store

import (
	"encoding/json"
	"testing"

	"imc2/internal/platform"
)

// TestEncodingMatchesJSONMarshal pins the WAL's event encoder to
// encoding/json: every event encodes to the bytes json.Marshal writes
// for it.
func TestEncodingMatchesJSONMarshal(t *testing.T) {
	odd := submissionsEvent(`c<&>"2`, "w\"<1>", "w&2")
	odd.Submissions = append(odd.Submissions, platform.RowsOf([]platform.Submission{
		{Worker: "w\u2028\n", Price: 1e21, Answers: map[string]string{"t2": "\\x\x01", "t1": "\u00e9\u2029"}},
		{Worker: "w4", Price: 1e-7, Answers: map[string]string{"t1": "<b>"}},
	})...)
	events := []Event{
		createdEvent("c1", "one", false),
		submissionsEvent("c1", "w1", "w2"),
		{Type: EventCloseRequested, Campaign: "c1"},
		settledEvent("c1"),
		createdEvent(`c<&>"2`, "two", true),
		{Type: EventOpened, Campaign: `c<&>"2`},
		odd,
		{Type: EventCancelled, Campaign: `c<&>"2`},
		createdEvent("c3", "three", false),
	}
	for i, ev := range events {
		ev.Seq = uint64(i + 1)
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendEvent([]byte("prefix"), ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "prefix"+string(want) {
			t.Fatalf("event %d encodes as\n%s\nwant\n%s", i, got[len("prefix"):], want)
		}
	}
}
