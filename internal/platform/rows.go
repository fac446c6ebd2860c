package platform

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"imc2/internal/imcerr"
	"imc2/internal/model"
)

// Rows is a run of submissions in index form: the one representation a
// submission keeps from the request body to the write-ahead log. The
// submissions decoder (DecodeSubmissions) produces it, SubmitRows stages
// it into the campaign log, and the store logs, folds and snapshots it.
// Its JSON encoding is byte for byte that of the equivalent
// []Submission: answers in task-ID order, HTML-escaped strings, and
// encoding/json's float format.
//
// Rows are immutable once built: the rows of one decoded batch share
// their cell array and their table of task IDs and values, and every
// copy of the slice shares them too.
type Rows []Row

// Row is one submission in index form. Its answers are cells over the
// task IDs and values of its batch's table, at most one cell per task
// ID.
type Row struct {
	Worker string
	Price  float64
	cells  []model.Cell // Task indexes t.keys, Val indexes t.vals
	t      *rowTable
}

// rowTable holds the distinct task IDs and answer values of one batch.
type rowTable struct {
	keys []string
	vals []string
	// rank[k] is keys[k]'s position in byte-wise order, the order
	// encoding/json writes map keys in.
	rank []int32
}

// rankKeys fills t.rank from t.keys.
func (t *rowTable) rankKeys() {
	order := make([]int32, len(t.keys))
	for k := range order {
		order[k] = int32(k)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(t.keys[a], t.keys[b]) })
	t.rank = make([]int32, len(t.keys))
	for r, k := range order {
		t.rank[k] = int32(r)
	}
}

// RowsOf converts submissions to index form, one table per submission.
// The rows share the submissions' strings but not their maps, so a
// caller may reuse its maps once RowsOf returns.
func RowsOf(subs []Submission) Rows {
	rows := make(Rows, len(subs))
	for i, sub := range subs {
		n := len(sub.Answers)
		strs := make([]string, 0, 2*n)
		for id := range sub.Answers {
			strs = append(strs, id)
		}
		slices.Sort(strs)
		t := &rowTable{keys: strs[:n:n], vals: strs[n : 2*n], rank: make([]int32, n)}
		cells := make([]model.Cell, n)
		for k, id := range t.keys {
			t.vals[k] = sub.Answers[id]
			t.rank[k] = int32(k)
			cells[k] = model.Cell{Task: int32(k), Val: int32(k)}
		}
		rows[i] = Row{Worker: sub.Worker, Price: sub.Price, cells: cells, t: t}
	}
	return rows
}

// Submission returns the row as a submission with a fresh Answers map
// (nil for a row without answers).
func (r Row) Submission() Submission {
	sub := Submission{Worker: r.Worker, Price: r.Price}
	if len(r.cells) > 0 {
		sub.Answers = make(map[string]string, len(r.cells))
		for _, c := range r.cells {
			sub.Answers[r.t.keys[c.Task]] = r.t.vals[c.Val]
		}
	}
	return sub
}

// MarshalJSON encodes the rows as encoding/json encodes the equivalent
// []Submission.
func (rs Rows) MarshalJSON() ([]byte, error) {
	if rs == nil {
		return []byte("null"), nil
	}
	return rs.AppendJSON(nil)
}

// AppendJSON appends the rows' JSON array to buf. Like encoding/json it
// refuses a NaN or infinite price.
func (rs Rows) AppendJSON(buf []byte) ([]byte, error) {
	var (
		t      *rowTable
		enc    tableJSON
		sorted []model.Cell
	)
	buf = append(slices.Grow(buf, rs.sizeHint()), '[')
	for i, r := range rs {
		if i > 0 {
			buf = append(buf, ',')
		}
		if math.IsNaN(r.Price) || math.IsInf(r.Price, 0) {
			return nil, imcerr.New(imcerr.CodeInvalid, "platform: cannot encode price %v of %q", r.Price, r.Worker)
		}
		buf = append(buf, `{"worker":`...)
		buf = appendJSONString(buf, r.Worker)
		buf = append(buf, `,"price":`...)
		buf = appendJSONFloat(buf, r.Price)
		buf = append(buf, `,"answers":`...)
		if len(r.cells) == 0 {
			buf = append(buf, "null}"...)
			continue
		}
		if r.t != t {
			t = r.t
			enc.reset(t)
		}
		cells, rank := r.cells, t.rank
		if !slices.IsSortedFunc(cells, func(a, b model.Cell) int { return int(rank[a.Task] - rank[b.Task]) }) {
			sorted = append(sorted[:0], cells...)
			slices.SortFunc(sorted, func(a, b model.Cell) int { return int(rank[a.Task] - rank[b.Task]) })
			cells = sorted
		}
		buf = append(buf, '{')
		for k, c := range cells {
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, enc.key(c.Task)...)
			buf = append(buf, ':')
			buf = append(buf, enc.val(c.Val)...)
		}
		buf = append(buf, "}}"...)
	}
	return append(buf, ']'), nil
}

// tableJSON holds the JSON strings of one table's task IDs and values,
// each encoded once when first used.
type tableJSON struct {
	t    *rowTable
	buf  []byte
	keys []span
	vals []span
}

// span is a string's encoding in tableJSON.buf (end 0: not yet encoded).
type span struct{ start, end int32 }

func (e *tableJSON) reset(t *rowTable) {
	e.t, e.buf = t, e.buf[:0]
	e.keys = append(e.keys[:0], make([]span, len(t.keys))...)
	e.vals = append(e.vals[:0], make([]span, len(t.vals))...)
}

func (e *tableJSON) key(k int32) []byte { return e.encoded(&e.keys[k], e.t.keys[k]) }

func (e *tableJSON) val(v int32) []byte { return e.encoded(&e.vals[v], e.t.vals[v]) }

func (e *tableJSON) encoded(sp *span, s string) []byte {
	if sp.end == 0 {
		sp.start = int32(len(e.buf))
		e.buf = appendJSONString(e.buf, s)
		sp.end = int32(len(e.buf))
	}
	return e.buf[sp.start:sp.end]
}

// sizeHint is the length of the rows' JSON when no string needs escaping
// and no price takes more than 24 bytes.
func (rs Rows) sizeHint() int {
	n := 2
	for _, r := range rs {
		n += len(`{"worker":"","price":,"answers":{}},`) + len(r.Worker) + 24
		for _, c := range r.cells {
			n += len(`"":"",`) + len(r.t.keys[c.Task]) + len(r.t.vals[c.Val])
		}
	}
	return n
}

// UnmarshalJSON decodes a JSON array of submission objects under
// DecodeSubmissions's grammar, which is the form AppendJSON writes; an
// empty array is empty rows, and null leaves the rows unchanged.
func (rs *Rows) UnmarshalJSON(data []byte) error {
	d := newRowDecoder(data)
	d.space()
	if d.literal("null") {
		return d.end()
	}
	if err := d.array(); err != nil {
		return err
	}
	if err := d.end(); err != nil {
		return err
	}
	*rs = d.rows()
	return nil
}

// appendJSONString appends s as encoding/json writes a string with HTML
// escaping: <, >, & and U+2028/U+2029 become \u escapes, control bytes
// use the short escapes where JSON has them, and invalid UTF-8 becomes
// \ufffd.
func appendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '\\', '"':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// appendJSONFloat appends a finite f in encoding/json's format: the
// shortest representation, in exponent form below 1e-6 and from 1e21 on,
// with a one-digit negative exponent unpadded.
func appendJSONFloat(buf []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if n := len(buf); format == 'e' && n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1]
		buf = buf[:n-1]
	}
	return buf
}
