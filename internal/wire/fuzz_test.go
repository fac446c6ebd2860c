package wire

import (
	"strings"
	"testing"
)

// FuzzDecodeV2Request throws arbitrary bytes at the two /v2 request
// decoders — campaign creation and the submissions envelope — which are
// the exact functions the handlers run on unauthenticated input. The
// contract under fuzz is "error or a structurally valid request, never a
// panic"; seeds come from the payload shapes v2_test.go drives.
func FuzzDecodeV2Request(f *testing.F) {
	seeds := []string{
		// Creation: explicit tasks (driveCampaign's shape).
		`{"name":"c1","tasks":[{"id":"t1","num_false":2,"requirement":1,"value":5}]}`,
		// Creation: a generator spec + seed, which the server refuses
		// (TestV2CreateFromSpecRefused's shape).
		`{"name":"gen","seed":42,"spec":{"workers":20,"tasks":15,"copiers":5,"tasks_per_worker":9}}`,
		// Creation: draft flag.
		`{"name":"d","draft":true,"tasks":[{"id":"t1","num_false":2,"requirement":1,"value":5}]}`,
		// Invalid creation shapes the handler must reject cleanly.
		`{"name":"empty"}`,
		`{"tasks":[{"id":"t1"}],"spec":{"workers":3}}`,
		// Submission: single envelope (SubmitTo's shape).
		`{"worker":"w1","price":1.25,"answers":{"t1":"v0","t2":"v1"}}`,
		// Submission: batch envelope (SubmitBatch's shape).
		`{"submissions":[{"worker":"w1","price":1,"answers":{"t1":"v0"}},{"worker":"w2","price":2,"answers":{"t1":"v1"}}]}`,
		// Degenerate JSON.
		``, `null`, `{}`, `[]`, `0`, `"x"`, `{"tasks":null,"spec":null}`,
		`{"submissions":null}`, `{"submissions":[]}`,
		`{"spec":{"workers":-1}}`,
		`{"tasks":[{"id":"", "num_false":-5}]}`,
		strings.Repeat(`{"tasks":`, 50),
		// Trailing bytes after a valid value must be refused.
		`{"worker":"w1","price":1,"answers":{"t1":"v0"}} }garbage[`,
		`{"name":"c1","tasks":[{"id":"t1","num_false":2,"requirement":1,"value":5}]} }garbage[`,
		`{"submissions":[{"worker":"w1","price":1,"answers":{"t1":"v0"}}]}{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeCreateCampaignRequest(body)
		if err == nil && len(req.Tasks) == 0 {
			t.Fatal("create decoder accepted a request without tasks")
		}
		subs, err := decodeSubmitRequest(body)
		if err == nil && len(subs) == 0 {
			t.Fatal("submit decoder returned an empty batch without error")
		}
	})
}
