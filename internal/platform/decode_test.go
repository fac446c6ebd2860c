package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"imc2/internal/imcerr"
	"imc2/internal/model"
)

// decodeSeeds are submissions bodies on the edges of the strict grammar
// and of encoding/json: case-folded, unknown and repeated members,
// nulls, repeated answers objects and arrays, escapes, invalid UTF-8,
// deep nesting, and malformed bodies.
var decodeSeeds = []string{
	`{"worker":"w1","price":1.25,"answers":{"t1":"v0","t2":"v1"}}`,
	`{"submissions":[{"worker":"w1","price":1,"answers":{"t1":"v0"}},{"worker":"w2","price":2,"answers":{"t1":"v1"}}]}`,
	`{"submissions":[{"worker":"w1","price":1,"answers":{"t1":"","t1":"v"}}]}`,
	`{"Worker":"w","PRICE":2,"Answers":{"t1":"a"}}`,
	`{"wor\u212aer":"w","price":1,"answers":{"t1":"a"}}`,
	`{"\u017fubmi\u017f\u017fion\u017f":[{"worker":"w","price":1,"answers":{"t1":"a"}}]}`,
	`{"worker":"w","price":1,"answers":{"t1":"a"},"answers":{"t2":"b"}}`,
	`{"worker":"w","price":1,"answers":{"t1":"a"},"answers":null,"answers":{"t2":"b"}}`,
	`{"worker":"w","worker":null,"price":1,"price":null,"answers":{"t1":"a"}}`,
	`{"submissions":[{"worker":"a","price":1,"answers":{"t1":"x"}},{"worker":"b","price":2,"answers":{"t2":"y"}}],"submissions":[{"answers":{"t3":"z"}}],"submissions":[null,{"price":5}]}`,
	`{"submissions":[{"worker":"a","price":1,"answers":{"t1":"x"}}],"submissions":[],"submissions":[null]}`,
	`{"submissions":[{"worker":"a","price":1,"answers":{"t1":"x"}}],"submissions":null,"worker":"w","price":1,"answers":{"t1":"a"}}`,
	`{"answers":{"t1":"a"},"submissions":[{"worker":"a","price":1,"answers":{"t2":"x"}}],"answers":{"t2":"b"},"worker":"w"}`,
	`{"submissions":[{"worker":"a","price":1,"answers":{"t1":"x"}}],"answers":{"t2":"y"},"submissions":[{"answers":{"t1":"z","t2":"q"}}],"answers":{"t2":"r","t1":""},"worker":"w","price":2}`,
	`{"worker":"w","price":1,"answers":{"t1":null}}`,
	`{"worker":"w","price":1e400,"answers":{"t1":"a"}}`,
	`{"worker":"w","price":-0,"answers":{"t1":"a"}}`,
	`{"worker":"w","price":1e-400,"answers":{"t1":"a"}}`,
	`{"worker":"w\ud800x","price":1,"answers":{"t1":"a\udc00😀ü"}}`,
	`{"worker":"w","price":1,"answers":{"t9":"a"}}`,
	`{"worker":"w","price":-1,"answers":{"t1":"a"}}`,
	`{"worker":"w","price":1,"answers":{"t1":"a"}} }garbage[`,
	`{"worker":"w","price":1,"answers":{"t1":"a"},"x":[1,{"y":[true,false,null,"s\n"]},-0.5e+3]}`,
	`{"submissions":[{"worker":"w","price":1,"answers":{"t1":"a"}},{"worker":"w","price":1,"answers":{"t1":"a"}}]}`,
	`{"worker":"w","price":1,"answers":{"t1":"a","t2":""}}`,
	`{"worker":"w","price":"1","answers":{"t1":"a"}}`,
	`{"worker":"w","price":1,"answers":{"t1":5}}`,
	`{"worker":"w","price":1,"answers":["t1"]}`,
	`{"submissions":{"worker":"w"}}`,
	`{"submissions":[1]}`,
	`{"worker":"<\/w\"\\","price":01,"answers":{"t1":"a"}}`,
	`{"worker":"w","price":1.,"answers":{"t1":"a"}}`,
	`{"worker":"w","price":1,"answers":{"t1":"a",}}`,
	`{"worker":"w","price":1,"answers":{"t1":"a\x"}}`,
	`[]`, `null`, `{}`, `{"submissions":[]}`, `{"submissions":null}`, ``, ` `, `"x"`, `0`, `nul`,
	"{\"worker\":\"w\xff\",\"price\":1,\"answers\":{\"t1\":\"a\xfe\",\"\xff\":\"b\"}}",
	"{\"worker\":\"w\",\"price\":1,\"answers\":{\"t1\":\"a\x01\"}}",
	`{"worker":"w","price":1,"answers":{"ü":"a","t2":"b","t3":"c"}}`,
	strings.Repeat(`[`, 10001) + strings.Repeat(`]`, 10001),
	`{"x":` + strings.Repeat(`[`, 9999) + strings.Repeat(`]`, 9999) + `,"worker":"w","price":1,"answers":{"t1":"a"}}`,
	`{"x":` + strings.Repeat(`[`, 10000) + strings.Repeat(`]`, 10000) + `,"worker":"w","price":1,"answers":{"t1":"a"}}`,
	`{"answers":null,"price":0,"worker":"w"}`,
	`{"answers":{},"wor\u006ber":"w","price":1}`,
	`{"worker":"w","price":1,"answers":{"t\u0031":"a","t1":"b"}}`,
	`{"submissions":[{"worker":"w","price":1,"answers":{"t1":"a"}}],"submissions":[]}`,
	`{"submissions":[{"price":2,"answers":{"t2":"b"},"worker":"v"},{"worker":"w","price":1,"answers":{"t1":"a"}}]}`,
	"{ \"worker\":\"w\",\"price\":1,\"answers\":{ \"t1\":\"a\"}}",
	"{\n  \"submissions\": [\n    {\n      \"worker\": \"w\",\n      \"price\": 1,\n      \"answers\": {\n        \"t1\": \"a\"\n      }\n    }\n  ]\n}",
	"\t{\r\n\"submissions\"\t:\r\n[ {\t\"price\" : 2 , \"answers\" : null , \"worker\" : \"v\" } , { \"worker\":\"w\",\"price\":1,\"answers\":{}} ] } ",
}

// fuzzTasks are the campaign every decoded body is submitted to.
func fuzzTasks() []model.Task {
	var tasks []model.Task
	for _, id := range []string{"t1", "t2", "t3", "ü"} {
		tasks = append(tasks, model.Task{ID: id, NumFalse: 2, Requirement: 1})
	}
	return tasks
}

// FuzzDecodeSubmissionsMatchesJSON checks the submissions decoder and
// SubmitRows against the path they replace: json.Unmarshal into the
// envelope struct, then Submit of each submission in order. On a body
// that json.Unmarshal accepts and the grammar (grammarAdmits) admits,
// both must accept the same number of submissions with the same error
// code and leave the same campaign log and dictionaries; every other
// body must be CodeInvalid.
func FuzzDecodeSubmissionsMatchesJSON(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var env struct {
			Submission
			Submissions []Submission `json:"submissions"`
		}
		refErr := json.Unmarshal(body, &env)
		rows, err := DecodeSubmissions(body)
		if refErr != nil || !grammarAdmits(body) {
			if imcerr.CodeOf(err) != imcerr.CodeInvalid {
				t.Fatalf("decoder returned %v on %q, want invalid (encoding/json: %v)", err, body, refErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("decoder refused %q (%v), which encoding/json and the grammar accept", body, err)
		}
		subs := env.Submissions
		if subs == nil {
			subs = []Submission{env.Submission}
		}
		if len(rows) != len(subs) {
			t.Fatalf("decoded %d submissions, encoding/json %d", len(rows), len(subs))
		}
		for i, r := range rows {
			got, want := r.Submission(), subs[i]
			if got.Worker != want.Worker || math.Float64bits(got.Price) != math.Float64bits(want.Price) ||
				len(got.Answers) != len(want.Answers) || (len(want.Answers) > 0 && !reflect.DeepEqual(got.Answers, want.Answers)) {
				t.Fatalf("submission %d decoded as %+v, encoding/json %+v", i, got, want)
			}
		}

		ref, err := New(fuzzTasks())
		if err != nil {
			t.Fatal(err)
		}
		refN, refSubmitErr := len(subs), error(nil)
		for i, sub := range subs {
			if refSubmitErr = ref.Submit(sub); refSubmitErr != nil {
				refN = i
				break
			}
		}
		p, err := New(fuzzTasks())
		if err != nil {
			t.Fatal(err)
		}
		n, err := p.SubmitRows(rows)
		if n != refN || imcerr.CodeOf(err) != imcerr.CodeOf(refSubmitErr) || (err == nil) != (refSubmitErr == nil) {
			t.Fatalf("SubmitRows accepted %d (%v), Submit %d (%v)", n, err, refN, refSubmitErr)
		}
		if got, want := p.SubmissionList(), ref.SubmissionList(); !reflect.DeepEqual(got, want) {
			t.Fatalf("campaign log %+v, want %+v", got, want)
		}
		if fmt.Sprintf("%q %v", p.log.Values, p.log.prices) != fmt.Sprintf("%q %v", ref.log.Values, ref.log.prices) {
			t.Fatalf("log dictionaries or prices differ: %q %v, want %q %v", p.log.Values, p.log.prices, ref.log.Values, ref.log.prices)
		}
	})
}

// grammarAdmits reports whether body, one JSON value that json.Unmarshal
// accepts, has DecodeSubmissions's grammar: a submission object with
// exactly the members "worker" (a string), "price" (a number) and
// "answers" (an object of string values with distinct keys, or null),
// or {"submissions":[...]} holding one or more such objects and nothing
// else. It reads the body as json.Decoder tokens, so names and keys
// compare after unquoting.
func grammarAdmits(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	next := func() json.Token {
		tok, err := dec.Token()
		if err != nil {
			return err // matches no token the grammar expects
		}
		return tok
	}
	submission := func(name json.Token) bool {
		seen := map[string]bool{}
		for ; name != json.Delim('}'); name = next() {
			s, ok := name.(string)
			if !ok || seen[s] {
				return false
			}
			seen[s] = true
			v := next()
			switch s {
			case "worker":
				if _, ok := v.(string); !ok {
					return false
				}
			case "price":
				if _, ok := v.(json.Number); !ok {
					return false
				}
			case "answers":
				if v == nil {
					continue
				}
				if v != json.Delim('{') {
					return false
				}
				keys := map[string]bool{}
				for k := next(); k != json.Delim('}'); k = next() {
					ks, ok := k.(string)
					if !ok || keys[ks] {
						return false
					}
					keys[ks] = true
					if _, ok := next().(string); !ok {
						return false
					}
				}
			default:
				return false
			}
		}
		return len(seen) == 3
	}
	if next() != json.Delim('{') {
		return false
	}
	if name := next(); name != "submissions" {
		return submission(name)
	}
	if next() != json.Delim('[') {
		return false
	}
	n := 0
	for tok := next(); tok != json.Delim(']'); tok = next() {
		if tok != json.Delim('{') || !submission(next()) {
			return false
		}
		n++
	}
	return n > 0 && next() == json.Delim('}')
}

// TestDecodeSubmissionsGrammar pins the strict grammar. What the Go
// client, workeragent and perfbench send (json.Marshal of a Submission
// and of the batch envelope) decodes unchanged, and so does the same
// body pretty-printed or with white space around every token. Each
// refused body is
// one json.Unmarshal into the envelope struct accepts, most of them with
// a bid the worker never declared; each is CodeInvalid, and so is its
// submission object inside an array read by Rows.UnmarshalJSON.
func TestDecodeSubmissionsGrammar(t *testing.T) {
	subs := []Submission{
		{Worker: "w1", Price: 1.25, Answers: map[string]string{"t1": "v0", "t2": "v1"}},
		{Worker: "w<2>", Price: 0, Answers: map[string]string{"ü": "a&b\u2028"}},
		{Worker: "w3", Price: 2e-7},
	}
	indent := func(v any) ([]byte, error) { return json.MarshalIndent(v, "", "  ") }
	for _, want := range [][]Submission{subs[:1], subs} {
		var v any = want[0]
		if len(want) > 1 {
			v = struct {
				Submissions []Submission `json:"submissions"`
			}{want}
		}
		for _, marshal := range []func(any) ([]byte, error){json.Marshal, indent} {
			body, err := marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := DecodeSubmissions(body)
			if err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			if got := submissionsOf(rows); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s decoded as %+v, want %+v", body, got, want)
			}
		}
	}
	body, err := indent(subs)
	if err != nil {
		t.Fatal(err)
	}
	var rows Rows
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatalf("Rows.UnmarshalJSON refused %s: %v", body, err)
	}
	if got := submissionsOf(rows); !reflect.DeepEqual(got, subs) {
		t.Fatalf("%s read as %+v, want %+v", body, got, subs)
	}
	for _, body := range []string{
		"{ \"worker\":\"w\",\"price\":1,\"answers\":{\"t1\":\"a\"}}",
		" \r\n{\n\t\"answers\" : { \"t1\" : \"a\" } ,\n\t\"price\" :1 , \"worker\" : \"w\"\n}\n ",
		"{ \"submissions\" : [ { \"worker\":\"w\",\"price\":1,\"answers\":{\"t1\":\"a\"}} ] }",
		"{\"submissions\":[\n{\n\"worker\":\"w\",\"price\":1,\"answers\":{\"t1\":\"a\"}}\n]}",
	} {
		rows, err := DecodeSubmissions([]byte(body))
		want := []Submission{{Worker: "w", Price: 1, Answers: map[string]string{"t1": "a"}}}
		if err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		if got := submissionsOf(rows); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q decoded as %+v, want %+v", body, got, want)
		}
	}

	for _, body := range []string{
		`{"worker":"w","answers":{"t1":"a"}}`,
		`{"worker":"w","prise":5,"answers":{"t1":"a"}}`,
		`{"worker":"w","Price":5,"answers":{"t1":"a"}}`,
		`{"worker":"w","price":5,"answers":{"t1":"a"},"answers":{"t2":"b"}}`,
		`{"worker":"w","price":5,"answers":{"t1":"a","t1":"b"}}`,
		`{"submissions":[{"worker":"w","price":5,"answers":{"t1":"a"}}],"worker":"w"}`,
		`{"submissions":[null,{"worker":"w","price":5,"answers":{"t1":"a"}}]}`,
		`{"worker":null,"price":5,"answers":{"t1":"a"}}`,
		`{"worker":"w","price":null,"answers":{"t1":"a"}}`,
		`{"worker":"w","price":5,"answers":{"t1":null}}`,
		`{"worker":"w","price":5,"answers":{"t1":"a"},"note":"x"}`,
		`{"submissions":null}`,
		`{}`,
	} {
		if _, err := DecodeSubmissions([]byte(body)); imcerr.CodeOf(err) != imcerr.CodeInvalid {
			t.Errorf("%s: error %v, want invalid", body, err)
		}
		if strings.Contains(body, "submissions") {
			continue
		}
		var rows Rows
		if err := json.Unmarshal([]byte("["+body+"]"), &rows); err == nil {
			t.Errorf("Rows.UnmarshalJSON accepted [%s]", body)
		}
	}
}

// submissionsOf returns rows as submissions.
func submissionsOf(rows Rows) []Submission {
	var subs []Submission
	for _, r := range rows {
		subs = append(subs, r.Submission())
	}
	return subs
}

// TestRowsJSONMatchesEncodingJSON is the encoder's property test: rows
// built from submissions, and rows decoded from their JSON, encode to
// the bytes json.Marshal writes for the submissions.
func TestRowsJSONMatchesEncodingJSON(t *testing.T) {
	pieces := []string{"a", "t", "7", `"`, `\`, "<", ">", "&", "\x00", "\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f",
		"\u2028", "\u2029", "é", "日本", "\U0001F600", "/", " "}
	prices := []float64{0, 1, 1.5, 1e-6, 9.99e-7, 1e-7, 1e21, 9.99e20, 1e22, 123456789.125, 5e-324,
		math.MaxFloat64, 2.5e-9, 1e20, 3}
	rng := rand.New(rand.NewSource(1))
	str := func() string {
		var b strings.Builder
		for n := 1 + rng.Intn(4); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	for round := 0; round < 200; round++ {
		subs := make([]Submission, 1+rng.Intn(5))
		for i := range subs {
			subs[i] = Submission{Worker: str(), Price: prices[rng.Intn(len(prices))], Answers: map[string]string{}}
			for n := 1 + rng.Intn(6); n > 0; n-- {
				subs[i].Answers[str()] = str()
			}
		}
		want, err := json.Marshal(subs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RowsOf(subs).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("RowsOf encoding\n%s\nwant\n%s", got, want)
		}
		body, err := json.Marshal(map[string][]Submission{"submissions": subs})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := DecodeSubmissions(body)
		if err != nil {
			t.Fatal(err)
		}
		if got, err = rows.MarshalJSON(); err != nil || string(got) != string(want) {
			t.Fatalf("decoded rows encode as\n%s (%v)\nwant\n%s", got, err, want)
		}
		var back Rows
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatal(err)
		}
		if got, err = json.Marshal(back); err != nil || string(got) != string(want) {
			t.Fatalf("unmarshalled rows encode as\n%s (%v)\nwant\n%s", got, err, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := RowsOf([]Submission{{Worker: "w", Price: bad, Answers: map[string]string{"t": "v"}}}).MarshalJSON(); err == nil {
			t.Fatalf("price %v encoded", bad)
		}
	}
}

// TestSubmitRejectsUnloggableInput pins the submission rules that keep
// every accepted submission encodable and recoverable: a finite price,
// and valid UTF-8 in the worker ID and the answer values.
func TestSubmitRejectsUnloggableInput(t *testing.T) {
	p, err := New(fuzzTasks())
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []Submission{
		{Worker: "w", Price: math.NaN(), Answers: map[string]string{"t1": "a"}},
		{Worker: "w", Price: math.Inf(1), Answers: map[string]string{"t1": "a"}},
		{Worker: "w\xff", Price: 1, Answers: map[string]string{"t1": "a"}},
		{Worker: "w", Price: 1, Answers: map[string]string{"t1": "a\xfe"}},
	} {
		if err := p.Submit(sub); imcerr.CodeOf(err) != imcerr.CodeInvalid {
			t.Fatalf("Submit(%q, %v, %q) = %v, want invalid", sub.Worker, sub.Price, sub.Answers, err)
		}
		if n, err := p.SubmitRows(RowsOf([]Submission{sub})); n != 0 || imcerr.CodeOf(err) != imcerr.CodeInvalid {
			t.Fatalf("SubmitRows(%q, %v, %q) = %d, %v, want invalid", sub.Worker, sub.Price, sub.Answers, n, err)
		}
	}
	if p.Submissions() != 0 || len(p.log.Cells) != 0 || len(p.log.Values[0]) != 0 {
		t.Fatal("a refused submission left cells or values behind")
	}
	if _, err := New([]model.Task{{ID: "t\xff", NumFalse: 1}}); imcerr.CodeOf(err) != imcerr.CodeInvalid {
		t.Fatalf("task ID with invalid UTF-8: %v, want invalid", err)
	}
}
