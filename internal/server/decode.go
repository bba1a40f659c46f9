package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// MaxBodyBytes bounds a /v1/infer request body, in the backend and in
// the fleet frontend that forwards it. A full 1×3×224×224 input row
// encodes to about 1.6 MB.
const MaxBodyBytes = 16 << 20

// maxPresize bounds the buffer ReadBody allocates on the strength of a
// declared Content-Length alone, before any body byte has arrived, so a
// client that declares a large body and then trickles it cannot pin
// MaxBodyBytes per connection. It covers a full 224² row.
const maxPresize = 4 << 20

// ReadBody reads a request body of at most MaxBodyBytes into a buffer
// presized from the declared Content-Length, up to maxPresize; a larger
// body grows the buffer as its bytes arrive. A body over the limit
// fails with an *http.MaxBytesError, which callers answer with 413.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	n := min(r.ContentLength, maxPresize)
	if n < 0 {
		n = 0 // unknown length: grow while reading
	}
	// The MinRead headroom lets ReadFrom see EOF without growing.
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	return buf.Bytes(), err
}

// maxNesting is encoding/json's limit on open arrays and objects,
// counting the top-level value.
const maxNesting = 10000

// inferFields are InferRequest's JSON names in field order, and
// inferFolded their case-folded forms.
var (
	inferFields = []string{"model", "mechanism", "soc", "timeout_ms", "batch", "priority", "shape", "input"}
	inferFolded = foldNames(inferFields)
	modelField  = inferFields[:1]
	modelFolded = inferFolded[:1]
)

// unmarshalInferRequest decodes one JSON text into req in a single pass,
// with exactly the observable semantics of json.Unmarshal(body, req):
// the same texts are accepted, and an accepted text leaves req as
// json.Unmarshal would, down to float bits and nil versus empty slices.
// Numbers go through the strconv calls encoding/json makes, and strings
// holding escapes or non-ASCII bytes through json.Unmarshal itself.
// FuzzDecodeInferRequestRef holds the two decoders to each other.
func unmarshalInferRequest(body []byte, req *InferRequest) error {
	d := decoder{data: body}
	var err error
	switch d.peek() {
	case '{':
		err = d.object(func(key []byte) error { return d.inferField(req, key) })
	case 'n':
		err = d.literal("null") // leaves req untouched
	default:
		if err = d.skip(); err == nil {
			err = errors.New("request body is not a JSON object")
		}
	}
	if err != nil {
		return err
	}
	return d.end()
}

// inferField decodes the value of the object member named key into req.
func (d *decoder) inferField(req *InferRequest, key []byte) error {
	var err error
	switch name := matchField(key, inferFields, inferFolded); name {
	case "model":
		err = d.stringInto(name, &req.Model)
	case "mechanism":
		err = d.stringInto(name, &req.Mechanism)
	case "soc":
		err = d.stringInto(name, &req.SoC)
	case "priority":
		err = d.stringInto(name, &req.Priority)
	case "timeout_ms":
		err = d.intInto(name, &req.TimeoutMS)
	case "batch":
		err = d.intInto(name, &req.Batch)
	case "shape":
		req.Shape, err = decodeSlice(d, name, req.Shape, parseInt)
	case "input":
		req.Input, err = decodeSlice(d, name, req.Input, parseFloat32)
	default:
		err = d.skip()
	}
	return err
}

// PeekModel returns the model a /v1/infer body names without decoding
// the rest of it: what json.Unmarshal into struct{ Model string } leaves,
// its error ignored. That is "" for a body that is not valid JSON; and
// for a valid one, the last string value among members matching
// "model", where other value types leave the result unchanged.
func PeekModel(body []byte) string {
	d := decoder{data: body}
	var model string
	var err error
	if d.peek() == '{' {
		err = d.object(func(key []byte) error {
			if matchField(key, modelField, modelFolded) == "" || d.peek() != '"' {
				return d.skip()
			}
			return d.stringInto("model", &model)
		})
	} else {
		err = d.skip()
	}
	if err != nil || d.end() != nil {
		return ""
	}
	return model
}

// decoder reads one JSON text front to back. Every method checks the
// grammar of what it consumes and leaves off after it.
type decoder struct {
	data  []byte
	off   int
	depth int // open arrays and objects
}

// peek skips whitespace and returns the next byte, or 0 at the end of
// the input (a 0 byte is never valid there either).
func (d *decoder) peek() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// syntaxErr reports the byte at the read offset as unexpected.
func (d *decoder) syntaxErr() error {
	if d.off >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d", d.data[d.off], d.off)
}

// end checks that only whitespace follows the top-level value.
func (d *decoder) end() error {
	if d.peek(); d.off < len(d.data) {
		return d.syntaxErr()
	}
	return nil
}

// skipDigits returns the offset of the first non-digit at or after i.
func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// literal consumes the keyword lit: true, false or null.
func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.off >= len(d.data) || d.data[d.off] != lit[i] {
			return d.syntaxErr()
		}
		d.off++
	}
	return nil
}

// number consumes a number token of the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns it. It
// works on locals: this is the loop every input float goes through.
func (d *decoder) number() ([]byte, error) {
	data, start := d.data, d.off
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = skipDigits(data, i)
	default:
		d.off = i
		return nil, d.syntaxErr()
	}
	if i < len(data) && data[i] == '.' {
		i++
		if j := skipDigits(data, i); j > i {
			i = j
		} else {
			d.off = i
			return nil, d.syntaxErr()
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if j := skipDigits(data, i); j > i {
			i = j
		} else {
			d.off = i
			return nil, d.syntaxErr()
		}
	}
	d.off = i
	return data[start:i], nil
}

// str consumes a string token and returns it, quotes included. plain
// reports that it holds no escapes and no non-ASCII bytes, so the bytes
// between the quotes are its value.
func (d *decoder) str() (tok []byte, plain bool, err error) {
	start := d.off
	d.off++ // the opening quote, checked by the caller
	plain = true
	for d.off < len(d.data) {
		switch c := d.data[d.off]; {
		case c == '"':
			d.off++
			return d.data[start:d.off], plain, nil
		case c < 0x20:
			return nil, false, d.syntaxErr()
		case c == '\\':
			plain = false
			d.off++
			if d.off >= len(d.data) {
				return nil, false, d.syntaxErr()
			}
			switch d.data[d.off] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.off++
			case 'u':
				d.off++
				for i := 0; i < 4; i++ {
					if d.off >= len(d.data) || !isHex(d.data[d.off]) {
						return nil, false, d.syntaxErr()
					}
					d.off++
				}
			default:
				return nil, false, d.syntaxErr()
			}
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			d.off++
		}
	}
	return nil, false, d.syntaxErr()
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote returns the value of a string token read by str.
func unquote(tok []byte, plain bool) ([]byte, error) {
	if plain {
		return tok[1 : len(tok)-1], nil
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// open enters an array or object at its opening bracket, enforcing the
// nesting limit, and reports whether it is empty (then also consuming
// the closing bracket).
func (d *decoder) open(closing byte) (empty bool, err error) {
	d.off++
	if d.depth++; d.depth > maxNesting {
		return false, errors.New("exceeded max depth")
	}
	if d.peek() == closing {
		d.off++
		d.depth--
		return true, nil
	}
	return false, nil
}

// next consumes the separator after a member or element and reports
// whether the container closed.
func (d *decoder) next(closing byte) (done bool, err error) {
	switch d.peek() {
	case ',':
		d.off++
		return false, nil
	case closing:
		d.off++
		d.depth--
		return true, nil
	}
	return false, d.syntaxErr()
}

// object consumes an object, calling member with each unquoted key
// once the decoder stands before that key's value; member consumes the
// value.
func (d *decoder) object(member func(key []byte) error) error {
	empty, err := d.open('}')
	if empty || err != nil {
		return err
	}
	for {
		if d.peek() != '"' {
			return d.syntaxErr()
		}
		tok, plain, err := d.str()
		if err != nil {
			return err
		}
		key, err := unquote(tok, plain)
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.syntaxErr()
		}
		d.off++
		if err := member(key); err != nil {
			return err
		}
		if done, err := d.next('}'); done || err != nil {
			return err
		}
	}
}

// array consumes an array, calling elem once per element; elem consumes
// the element.
func (d *decoder) array(elem func() error) error {
	empty, err := d.open(']')
	if empty || err != nil {
		return err
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if done, err := d.next(']'); done || err != nil {
			return err
		}
	}
}

// skip consumes one value of any type.
func (d *decoder) skip() error {
	switch d.peek() {
	case '{':
		return d.object(func([]byte) error { return d.skip() })
	case '[':
		return d.array(d.skip)
	case '"':
		_, _, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	_, err := d.number()
	return err
}

// typeErr reports a value of the wrong type for field name. The value
// is not consumed: any type error rejects the whole body.
func typeErr(name, want string) error {
	return fmt.Errorf("field %q wants %s", name, want)
}

func isNumberStart(c byte) bool { return c == '-' || '0' <= c && c <= '9' }

// stringInto decodes a string member into dst; null leaves dst as is.
func (d *decoder) stringInto(name string, dst *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		tok, plain, err := d.str()
		if err != nil {
			return err
		}
		s, err := unquote(tok, plain)
		*dst = string(s)
		return err
	}
	return typeErr(name, "a string")
}

// intInto decodes an integer member into dst; null leaves dst as is.
func (d *decoder) intInto(name string, dst *int) error {
	c := d.peek()
	if c == 'n' {
		return d.literal("null")
	}
	if !isNumberStart(c) {
		return typeErr(name, "an integer")
	}
	tok, err := d.number()
	if err != nil {
		return err
	}
	v, err := parseInt(tok)
	if err != nil {
		return fmt.Errorf("field %q: %w", name, err)
	}
	*dst = v
	return nil
}

// parseInt parses an integer token as encoding/json does for an int.
func parseInt(tok []byte) (int, error) {
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err == nil && n != int64(int(n)) {
		err = fmt.Errorf("%s overflows int", tok)
	}
	return int(n), err
}

// parseFloat32 parses a number token as encoding/json does for a
// float32.
func parseFloat32(tok []byte) (float32, error) {
	f, err := strconv.ParseFloat(string(tok), 32)
	return float32(f), err
}

// decodeSlice decodes an array of numbers into s the way encoding/json
// fills a slice in place: element i starts from whatever s's backing
// array holds at i, so a null element keeps that value; the result has
// one element per array element; an empty array gives a non-nil empty
// slice and null gives nil. The backing array is presized from the
// commas before the first closing bracket, at most maxInputElems.
func decodeSlice[T int | float32](d *decoder, name string, s []T, parse func([]byte) (T, error)) ([]T, error) {
	switch d.peek() {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return s, typeErr(name, "an array of numbers")
	}
	rest := d.data[d.off:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	if n := min(bytes.Count(rest, []byte{','})+1, maxInputElems); n > cap(s) {
		grown := make([]T, n)
		copy(grown, s[:cap(s)])
		s = grown
	}
	buf := s[:cap(s)]
	i := 0
	done, err := d.open(']')
	for ; !done && err == nil; done, err = d.next(']') {
		if i == len(buf) {
			buf = append(buf, 0)
			buf = buf[:cap(buf)]
		}
		switch c := d.peek(); {
		case c == 'n':
			err = d.literal("null")
		case isNumberStart(c):
			var tok []byte
			if tok, err = d.number(); err == nil {
				if buf[i], err = parse(tok); err != nil {
					err = fmt.Errorf("field %q: %w", name, err)
				}
			}
		default:
			err = typeErr(name, "an array of numbers")
		}
		if err != nil {
			return s, err
		}
		i++
	}
	if err != nil {
		return s, err
	}
	if i == 0 {
		return []T{}, nil
	}
	return buf[:i], nil
}

// matchField resolves an object key to one of names as encoding/json
// resolves it to a struct field: an exact match first, then a match of
// the case-folded forms in folded. It returns "" for no match.
func matchField(key []byte, names, folded []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	var arr [32]byte
	f := appendFolded(arr[:0], key)
	for i, n := range folded {
		if string(f) == n {
			return names[i]
		}
	}
	return ""
}

func foldNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = string(appendFolded(nil, []byte(n)))
	}
	return out
}

// appendFolded appends encoding/json's case fold of name: ASCII letters
// upper-cased, every other rune mapped to the smallest rune of its
// Unicode simple-fold orbit.
func appendFolded(out, name []byte) []byte {
	for i := 0; i < len(name); {
		if c := name[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(name[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}
