package platform

import (
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"imc2/internal/imcerr"
	"imc2/internal/model"
)

// DecodeSubmissions decodes a submissions request body into rows. The
// body is one submission object, or a batch {"submissions":[...]} whose
// array holds one or more submission objects and which has no other
// member. A submission object has exactly the members "worker" (a
// string), "price" (a number) and "answers" (an object of string
// values, or null for none), each once and in any order, and its
// answers name each task ID at most once. White space may stand between
// any two tokens, as JSON allows. Every other body is CodeInvalid: an
// unknown or differently-cased member name, a repeated member or answer
// key, a missing member, a null anywhere but "answers", an empty batch,
// or anything but white space after the value. Strings unquote as encoding/json unquotes them (invalid UTF-8
// and lone surrogates become U+FFFD), and a price outside float64's
// range is refused as encoding/json refuses it.
//
// It is one pass over the bytes that interns task IDs and values into a
// table the rows share, so an answer costs a cell, not a map entry or a
// string.
func DecodeSubmissions(body []byte) (Rows, error) {
	d := newRowDecoder(body)
	d.space()
	if err := d.expect('{'); err != nil {
		return nil, err
	}
	name, err := d.key()
	if err != nil {
		return nil, err
	}
	if string(name) == "submissions" {
		if err = d.array(); err == nil {
			d.space()
			err = d.expect('}') // a batch has no other member
		}
	} else {
		err = d.submission(name)
	}
	if err != nil {
		return nil, err
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	if len(d.elems) == 0 {
		return nil, imcerr.New(imcerr.CodeInvalid, "platform: submission envelope has no submissions")
	}
	return d.rows(), nil
}

// rowDecoder is one decode of DecodeSubmissions or Rows.UnmarshalJSON.
type rowDecoder struct {
	data []byte
	off  int
	buf  []byte // unquoting scratch

	t     rowTable
	keys  map[string]int32
	cells []model.Cell // every submission's answers, in body order
	elems []elem       // the submissions decoded so far
	// last[k] is 1 + the index in elems of the last submission that
	// answered key k (0: none), so a repeated answer key is refused.
	last []int

	// Values intern per key: key k's values are a chain from valHead[k]
	// through the nodes, at most maxChain long; a key with more values
	// (not an honest batch: a task has num_j+1 values) interns the rest
	// in overflow, keyed by the key index and the value.
	valHead  []int32
	nodes    []valNode
	overflow map[string]int32
	scratch  []byte
}

// elem is one decoded submission; its answers are cells[start:end].
type elem struct {
	worker     string
	price      float64
	start, end int
}

func newRowDecoder(data []byte) *rowDecoder {
	return &rowDecoder{data: data, keys: make(map[string]int32)}
}

// rows returns the decoded submissions as rows over the decoder's table.
func (d *rowDecoder) rows() Rows {
	t := &rowTable{keys: d.t.keys, vals: d.t.vals}
	t.rankKeys()
	rows := make(Rows, len(d.elems))
	for i, e := range d.elems {
		rows[i] = Row{Worker: e.worker, Price: e.price, cells: d.cells[e.start:e.end:e.end], t: t}
	}
	return rows
}

func (d *rowDecoder) syntax(what string) error {
	return imcerr.New(imcerr.CodeInvalid, "platform: malformed submissions JSON: %s at offset %d", what, d.off)
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

// expect consumes the byte c.
func (d *rowDecoder) expect(c byte) error {
	if d.peek() != c {
		return d.syntax("expected " + string(c))
	}
	d.off++
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
		return false
	}
	return true
}

// key reads an object member's name, with the white space around it, and
// the colon after it. The bytes are valid until the next string is read.
func (d *rowDecoder) key() ([]byte, error) {
	d.space()
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

// array decodes a JSON array of submission objects.
func (d *rowDecoder) array() error {
	if err := d.expect('['); err != nil {
		return err
	}
	for more := d.first(']'); more; {
		if err := d.expect('{'); err != nil {
			return err
		}
		name, err := d.key()
		if err != nil {
			return err
		}
		if err := d.submission(name); err != nil {
			return err
		}
		if more, err = d.next(']'); err != nil {
			return err
		}
	}
	return nil
}

// The members of a submission object, as bits.
const (
	memberWorker = 1 << iota
	memberPrice
	memberAnswers
	memberAll = memberWorker | memberPrice | memberAnswers
)

// submission decodes a submission object whose opening brace and first
// member name are already read, and appends it to d.elems.
func (d *rowDecoder) submission(name []byte) error {
	e := elem{start: len(d.cells)}
	have := 0
	for {
		var m int
		switch string(name) {
		case "worker":
			m = memberWorker
		case "price":
			m = memberPrice
		case "answers":
			m = memberAnswers
		default:
			return d.syntax("unknown member " + strconv.Quote(string(name)))
		}
		if have&m != 0 {
			return d.syntax("repeated member " + strconv.Quote(string(name)))
		}
		have |= m
		var err error
		switch m {
		case memberWorker:
			var s []byte
			s, err = d.str()
			e.worker = string(s)
		case memberPrice:
			e.price, err = d.price()
		case memberAnswers:
			err = d.answers()
		}
		if err != nil {
			return err
		}
		more, err := d.next('}')
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if name, err = d.key(); err != nil {
			return err
		}
	}
	if have != memberAll {
		return d.syntax(`submission lacks "worker", "price" or "answers"`)
	}
	e.end = len(d.cells)
	d.elems = append(d.elems, e)
	return nil
}

// price reads a number as a float64.
func (d *rowDecoder) price() (float64, error) {
	num, err := d.number()
	if err != nil {
		return 0, err
	}
	p, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return 0, d.syntax("price out of range")
	}
	return p, nil
}

// answers decodes an answers object, or null for none, into cells of
// the submission being decoded.
func (d *rowDecoder) answers() error {
	if d.literal("null") {
		return nil
	}
	if err := d.expect('{'); err != nil {
		return err
	}
	sub := len(d.elems) + 1
	for more := d.first('}'); more; {
		name, err := d.key()
		if err != nil {
			return err
		}
		k := d.taskKey(name)
		if d.last[k] == sub {
			return d.syntax("repeated answer key " + strconv.Quote(d.t.keys[k]))
		}
		d.last[k] = sub
		s, err := d.str()
		if err != nil {
			return err
		}
		d.cells = append(d.cells, model.Cell{Task: k, Val: d.value(k, s)})
		if more, err = d.next('}'); err != nil {
			return err
		}
	}
	return nil
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
	d.last = append(d.last, 0)
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
