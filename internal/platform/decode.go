package platform

import (
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"imc2/internal/imcerr"
	"imc2/internal/model"
)

// DecodeSubmissions decodes a submissions request body into rows: either
// one submission object, or an envelope whose "submissions" array holds
// the batch. It is one pass over the bytes that interns task IDs and
// values into a table the rows share, so an answer costs a cell, not a
// map entry or a string.
//
// The rows are what json.Unmarshal into the envelope struct
//
//	struct {
//		Submission
//		Submissions []Submission `json:"submissions"`
//	}
//
// yields: field names match case-insensitively, unknown fields are
// skipped, a null leaves a string or number field as it was, a repeated
// answer key keeps its last value, a repeated "answers" object merges
// into the map (null clears it), and a repeated "submissions" array
// decodes into the elements the previous one left. Strings are unquoted
// as encoding/json does, invalid UTF-8 and lone surrogates included.
// Unlike encoding/json's Decoder, anything but white space after the
// value is an error. A body that is not such a value, or whose
// "submissions" array is empty, is CodeInvalid.
func DecodeSubmissions(body []byte) (Rows, error) {
	d := newRowDecoder(body)
	d.space()
	if !d.literal("null") {
		if err := d.object(0, true); err != nil {
			return nil, err
		}
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	switch {
	case !d.hasSubs:
		return d.rows(d.elems[:1]), nil
	case d.nsubs == 0:
		return nil, imcerr.New(imcerr.CodeInvalid, "platform: submission envelope has no submissions")
	}
	return d.rows(d.elems[1 : 1+d.nsubs]), nil
}

// maxDepth is encoding/json's nesting bound: a body nesting deeper is
// malformed.
const maxDepth = 10000

// rowDecoder is one decode of DecodeSubmissions or Rows.UnmarshalJSON.
type rowDecoder struct {
	data  []byte
	off   int
	depth int
	buf   []byte // unquoting scratch

	t     rowTable
	keys  map[string]int32
	cells []model.Cell // every element's segments, in arrival order

	// Values intern per key: key k's values are a chain from valHead[k]
	// through the nodes, at most maxChain long; a key with more values
	// (not an honest batch: a task has num_j+1 values) interns the rest
	// in overflow, keyed by the key index and the value.
	valHead  []int32
	nodes    []valNode
	overflow map[string]int32
	scratch  []byte

	// elems[0] is the envelope's own submission and elems[1:] the
	// submissions array's elements, including any a shorter repeated
	// array left past its length (nsubs). hasSubs reports a non-null
	// "submissions".
	elems   []elem
	nsubs   int
	hasSubs bool

	// owner is the element whose segment ends the cell array (-1: none),
	// so answers append to it. seen[k] == stamp of that segment when it
	// holds key k, at cells[pos[k]].
	owner int
	stamp int
	seen  []int
	pos   []int
}

// elem is one submission being decoded. Its answers are the cells of
// its earlier segments, then cells[start:end]; each segment holds a key
// at most once, and a key in two segments keeps the later value. A
// segment opens each time another element's answers came in between.
type elem struct {
	worker     string
	price      float64
	earlier    []segment
	start, end int
	stamp      int
}

type segment struct{ start, end int }

func newRowDecoder(data []byte) *rowDecoder {
	return &rowDecoder{
		data:  data,
		keys:  make(map[string]int32),
		elems: make([]elem, 1),
		owner: -1,
	}
}

// rows returns the decoded elements as rows over the decoder's table.
func (d *rowDecoder) rows(elems []elem) Rows {
	t := &rowTable{keys: d.t.keys, vals: d.t.vals}
	t.rankKeys()
	rows := make(Rows, len(elems))
	for i, e := range elems {
		cells := d.cells[e.start:e.end:e.end]
		if len(e.earlier) > 0 {
			cells = d.merge(e)
		}
		rows[i] = Row{Worker: e.worker, Price: e.price, cells: cells, t: t}
	}
	return rows
}

// merge gathers the segments of e into one cell list, a later value
// replacing an earlier one of the same key.
func (d *rowDecoder) merge(e elem) []model.Cell {
	d.stamp++
	var out []model.Cell
	for _, sg := range append(e.earlier, segment{e.start, e.end}) {
		for _, c := range d.cells[sg.start:sg.end] {
			if d.seen[c.Task] == d.stamp {
				out[d.pos[c.Task]].Val = c.Val
				continue
			}
			d.seen[c.Task], d.pos[c.Task] = d.stamp, len(out)
			out = append(out, c)
		}
	}
	return out
}

func (d *rowDecoder) syntax(what string) error {
	return imcerr.New(imcerr.CodeInvalid, "platform: malformed submissions JSON: %s at offset %d", what, d.off)
}

func (d *rowDecoder) mismatch(field string) error {
	return imcerr.New(imcerr.CodeInvalid, "platform: submissions JSON: %q has the wrong type at offset %d", field, d.off)
}

// space skips JSON white space.
func (d *rowDecoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// end accepts only white space after the value.
func (d *rowDecoder) end() error {
	d.space()
	if d.off != len(d.data) {
		return d.syntax("data after the value")
	}
	return nil
}

// peek returns the next byte, or 0 at the end of the input.
func (d *rowDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// literal consumes lit if the input continues with it.
func (d *rowDecoder) literal(lit string) bool {
	if len(d.data)-d.off >= len(lit) && string(d.data[d.off:d.off+len(lit)]) == lit {
		d.off += len(lit)
		return true
	}
	return false
}

// open consumes the opening bracket c of an object or array.
func (d *rowDecoder) open(c byte) error {
	if d.peek() != c {
		return d.syntax("expected " + string(c))
	}
	d.off++
	if d.depth++; d.depth > maxDepth {
		return d.syntax("nesting too deep")
	}
	return nil
}

// next consumes the separator after a member or element: it reports
// false when close ends the container, and errors on anything but a
// comma or close.
func (d *rowDecoder) next(close byte) (more bool, err error) {
	d.space()
	switch d.peek() {
	case ',':
		d.off++
		d.space()
		return true, nil
	case close:
		d.off++
		d.depth--
		return false, nil
	}
	return false, d.syntax("expected , or " + string(close))
}

// first consumes the white space after an opening bracket and reports
// whether the container has a member before close.
func (d *rowDecoder) first(close byte) bool {
	d.space()
	if d.peek() == close {
		d.off++
		d.depth--
		return false
	}
	return true
}

// key reads an object member's name and the colon after it. The bytes
// are valid until the next string is read.
func (d *rowDecoder) key() ([]byte, error) {
	k, err := d.str()
	if err != nil {
		return nil, err
	}
	d.space()
	if d.peek() != ':' {
		return nil, d.syntax("expected :")
	}
	d.off++
	d.space()
	return k, nil
}

// field names the envelope and submission members.
type field int

const (
	fieldOther field = iota
	fieldWorker
	fieldPrice
	fieldAnswers
	fieldSubmissions
)

// fieldNames are the members' JSON names.
var fieldNames = [...]string{fieldWorker: "worker", fieldPrice: "price", fieldAnswers: "answers", fieldSubmissions: "submissions"}

// fieldOf matches a member name as encoding/json matches struct fields:
// equal under Unicode simple case folding.
func fieldOf(name []byte) field {
	for f, want := range fieldNames {
		if want != "" && foldEqual(name, want) {
			return field(f)
		}
	}
	return fieldOther
}

// foldEqual reports whether name folds to lower, a lower-case ASCII
// word. Besides the ASCII letters, only U+017F and U+212A fold to one
// (s and k).
func foldEqual(name []byte, lower string) bool {
	i := 0
	for k := 0; k < len(lower); k++ {
		if i >= len(name) {
			return false
		}
		want := rune(lower[k])
		if c := name[i]; c < utf8.RuneSelf {
			if c|0x20 != lower[k] {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(name[i:])
		if foldRune(r) != unicode.ToUpper(want) {
			return false
		}
		i += n
	}
	return i == len(name)
}

// foldRune returns the smallest rune of r's simple case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// object decodes a submission object into element i; top admits the
// envelope's "submissions" member.
func (d *rowDecoder) object(i int, top bool) error {
	if d.peek() != '{' {
		if isValueStart(d.peek()) {
			return d.mismatch("submission")
		}
		return d.syntax("expected a value")
	}
	if err := d.open('{'); err != nil {
		return err
	}
	for more := d.first('}'); more; {
		name, err := d.key()
		if err != nil {
			return err
		}
		f := fieldOf(name)
		if f == fieldSubmissions && !top {
			f = fieldOther
		}
		if err := d.member(i, f); err != nil {
			return err
		}
		if more, err = d.next('}'); err != nil {
			return err
		}
	}
	return nil
}

// member decodes the value of one object member into element i.
func (d *rowDecoder) member(i int, f field) error {
	if f == fieldOther {
		return d.skip()
	}
	if d.literal("null") {
		switch f {
		case fieldAnswers:
			d.clear(i)
		case fieldSubmissions:
			d.hasSubs, d.nsubs = false, 0
			d.drop()
		case fieldOther, fieldWorker, fieldPrice:
			// A null leaves a string or number field as it was.
		}
		return nil
	}
	c := d.peek()
	switch {
	case f == fieldWorker && c == '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		d.elems[i].worker = string(s)
		return nil
	case f == fieldPrice && (c == '-' || '0' <= c && c <= '9'):
		num, err := d.number()
		if err != nil {
			return err
		}
		p, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return d.mismatch("price")
		}
		d.elems[i].price = p
		return nil
	case f == fieldAnswers && c == '{':
		return d.answers(i)
	case f == fieldSubmissions && c == '[':
		return d.array()
	case isValueStart(c):
		return d.mismatch(fieldNames[f])
	}
	return d.syntax("expected a value")
}

// isValueStart reports whether c can begin a JSON value.
func isValueStart(c byte) bool {
	switch c {
	case '"', '{', '[', 't', 'f', 'n', '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return true
	}
	return false
}

// array decodes the "submissions" array: element k decodes into
// elems[1+k], over whatever an earlier array left there, and an empty
// array drops every element.
func (d *rowDecoder) array() error {
	if err := d.open('['); err != nil {
		return err
	}
	d.hasSubs = true
	n := 0
	for more := d.first(']'); more; n++ {
		i := 1 + n
		if i == len(d.elems) {
			d.elems = append(d.elems, elem{})
		}
		if !d.literal("null") {
			if err := d.object(i, false); err != nil {
				return err
			}
		}
		var err error
		if more, err = d.next(']'); err != nil {
			return err
		}
	}
	d.nsubs = n
	if n == 0 {
		d.drop()
	}
	return nil
}

// drop forgets every array element, as a null or empty "submissions"
// does.
func (d *rowDecoder) drop() {
	d.elems = d.elems[:1]
	if d.owner >= 1 {
		d.owner = -1
	}
}

// answers merges an answers object into element i, last value winning
// per key; a null value is the empty string.
func (d *rowDecoder) answers(i int) error {
	if err := d.open('{'); err != nil {
		return err
	}
	d.enter(i)
	e := &d.elems[i]
	for more := d.first('}'); more; {
		name, err := d.key()
		if err != nil {
			return err
		}
		k := d.taskKey(name)
		var v int32
		switch {
		case d.literal("null"):
			v = d.value(k, nil)
		case d.peek() == '"':
			s, err := d.str()
			if err != nil {
				return err
			}
			v = d.value(k, s)
		case isValueStart(d.peek()):
			return d.mismatch("answers")
		default:
			return d.syntax("expected a value")
		}
		if d.seen[k] == e.stamp {
			d.cells[d.pos[k]].Val = v
		} else {
			d.seen[k], d.pos[k] = e.stamp, len(d.cells)
			d.cells = append(d.cells, model.Cell{Task: k, Val: v})
			e.end++
		}
		if more, err = d.next('}'); err != nil {
			return err
		}
	}
	return nil
}

// enter makes element i the owner: unless it already is, its segment
// is set aside and a new one opens at the end of the cell array.
func (d *rowDecoder) enter(i int) {
	if d.owner == i {
		return
	}
	e := &d.elems[i]
	if e.start < e.end {
		e.earlier = append(e.earlier, segment{e.start, e.end})
	}
	e.start, e.end = len(d.cells), len(d.cells)
	d.stamp++
	e.stamp = d.stamp
	d.owner = i
}

// clear empties element i's answers, as "answers":null does.
func (d *rowDecoder) clear(i int) {
	e := &d.elems[i]
	e.earlier = nil
	e.start, e.end = len(d.cells), len(d.cells)
	d.stamp++
	e.stamp = d.stamp
}

// taskKey returns the table index of task ID name, adding it when new.
func (d *rowDecoder) taskKey(name []byte) int32 {
	if k, ok := d.keys[string(name)]; ok {
		return k
	}
	k := int32(len(d.t.keys))
	id := string(name)
	d.keys[id] = k
	d.t.keys = append(d.t.keys, id)
	d.seen, d.pos = append(d.seen, 0), append(d.pos, 0)
	d.valHead = append(d.valHead, -1)
	return k
}

// maxChain bounds a key's value chain.
const maxChain = 16

// valNode links one of a key's values into its chain.
type valNode struct{ val, next int32 }

// value returns the table index of key k's value s, adding it when new.
func (d *rowDecoder) value(k int32, s []byte) int32 {
	n, prev := 0, int32(-1)
	for i := d.valHead[k]; i >= 0; prev, i = i, d.nodes[i].next {
		if v := d.nodes[i].val; d.t.vals[v] == string(s) {
			if prev >= 0 { // move to front: a task's common value is found first
				d.nodes[prev].next = d.nodes[i].next
				d.nodes[i].next = d.valHead[k]
				d.valHead[k] = i
			}
			return v
		}
		n++
	}
	v := int32(len(d.t.vals))
	if n < maxChain {
		d.nodes = append(d.nodes, valNode{val: v, next: d.valHead[k]})
		d.valHead[k] = int32(len(d.nodes) - 1)
	} else {
		d.scratch = append(strconv.AppendInt(d.scratch[:0], int64(k), 10), ':')
		d.scratch = append(d.scratch, s...)
		if v, ok := d.overflow[string(d.scratch)]; ok {
			return v
		}
		if d.overflow == nil {
			d.overflow = make(map[string]int32)
		}
		d.overflow[string(d.scratch)] = v
	}
	d.t.vals = append(d.t.vals, string(s))
	return v
}

// str reads a string literal and returns its unquoted bytes, valid until
// the next string is read.
func (d *rowDecoder) str() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.syntax("expected a string")
	}
	start := d.off + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:i], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return d.unquote(start, i)
		}
	}
	d.off = len(d.data)
	return nil, d.syntax("unterminated string")
}

// unquote decodes the rest of a string literal from i, the first byte
// needing work, as encoding/json unquotes: escapes resolve, surrogate
// pairs combine, and invalid UTF-8 and lone surrogates become U+FFFD.
func (d *rowDecoder) unquote(start, i int) ([]byte, error) {
	b := append(d.buf[:0], d.data[start:i]...)
	defer func() { d.buf = b[:0] }()
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.off = i + 1
			return b, nil
		case c < ' ':
			d.off = i
			return nil, d.syntax("control character in string")
		case c == '\\':
			if i+1 >= len(d.data) {
				d.off = i
				return nil, d.syntax("unterminated string")
			}
			switch e := d.data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[i:])
				if r < 0 {
					d.off = i
					return nil, d.syntax("invalid \\u escape")
				}
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, hex4(d.data[i+6:])); pair != utf8.RuneError {
						b = utf8.AppendRune(b, pair)
						i += 12
						continue
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				i += 6
				continue
			default:
				d.off = i
				return nil, d.syntax("invalid escape")
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(d.data[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	d.off = len(d.data)
	return nil, d.syntax("unterminated string")
}

// hex4 decodes the \uXXXX escape s starts with, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number reads a JSON number and returns its bytes.
func (d *rowDecoder) number() ([]byte, error) {
	start := d.off
	digits := func() int {
		n := 0
		for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
			d.off++
			n++
		}
		return n
	}
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		digits()
	default:
		return nil, d.syntax("invalid number")
	}
	if d.peek() == '.' {
		d.off++
		if digits() == 0 {
			return nil, d.syntax("invalid number")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if digits() == 0 {
			return nil, d.syntax("invalid number")
		}
	}
	return d.data[start:d.off], nil
}

// skip reads and discards one JSON value of any shape.
func (d *rowDecoder) skip() error {
	switch c := d.peek(); {
	case c == '"':
		_, err := d.str()
		return err
	case c == '{':
		if err := d.open('{'); err != nil {
			return err
		}
		for more := d.first('}'); more; {
			if _, err := d.key(); err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
			var err error
			if more, err = d.next('}'); err != nil {
				return err
			}
		}
		return nil
	case c == '[':
		if err := d.open('['); err != nil {
			return err
		}
		for more := d.first(']'); more; {
			if err := d.skip(); err != nil {
				return err
			}
			var err error
			if more, err = d.next(']'); err != nil {
				return err
			}
		}
		return nil
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	case d.literal("true") || d.literal("false") || d.literal("null"):
		return nil
	}
	return d.syntax("expected a value")
}
