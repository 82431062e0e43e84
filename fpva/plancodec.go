package fpva

// This file is the plan envelope's codec: a hand-written encoder and a
// single-pass decoder for the v1 plan wire format. Plans are the largest
// payload the system moves (tens to hundreds of KB, nearly all of it vector
// open lists), and one crosses the codec on every store read-back, solve,
// plan upload and diagnosis cache key, so the plan path does not go
// through encoding/json, which scans a value several times and decodes it
// by reflection.
//
// The contract is identity with encoding/json on planEnvelope: the encoder
// writes the bytes json.Encoder with SetIndent("", "  ") writes (or
// json.Marshal, for MarshalJSON), and for every input the decoder gives the
// same success or failure, the same sentinel error and a plan that
// re-encodes to the same bytes. codec_oracle_test.go keeps the
// encoding/json implementation as the reference that the tests and
// FuzzDecodePlan compare against. The encoding/json rules the decoder
// reproduces:
//
//   - a syntax error, or a value of the wrong JSON type for its field
//     anywhere in the envelope, is ErrWireSyntax before any envelope or
//     payload check; nesting deeper than 10,000 is a syntax error;
//   - keys match their field exactly or else case-insensitively, as
//     bytes.EqualFold compares them, after unescaping; unknown keys are
//     skipped;
//   - null leaves a string, number or struct field as it is and sets a
//     slice to nil; a top-level null decodes to the zero envelope, so it
//     fails the format check;
//   - a duplicate key decodes into the value already there: strings and
//     numbers are replaced, structs are merged, and slices decode over
//     their existing elements and are then cut to the new length;
//   - a leakPairs entry with fewer than 2 elements is zero-filled, and
//     elements past the second are skipped unchecked;
//   - an integer field takes only a number strconv.ParseInt accepts, so a
//     fraction, an exponent or an overflow is a type error;
//   - strings are unescaped, with invalid UTF-8 and unpaired surrogates
//     replaced by U+FFFD; the encoder escapes <, >, &, U+2028 and U+2029
//     and writes invalid UTF-8 as \ufffd;
//   - DecodePlan checks for data after the envelope last, so a payload
//     error wins over trailing garbage; UnmarshalJSON, like json.Unmarshal,
//     rejects trailing data first.

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/grid"
	"repro/internal/sim"
)

// The JSON keys of planEnvelope, vectorJSON and statsJSON in field order;
// TestPlanFieldNamesMatchTags pins them to the struct tags.
var (
	planFields = []string{"format", "version", "array", "pathVectors", "cutVectors",
		"leakVectors", "leakPairs", "uncoveredPath", "uncoveredCut", "stats"}
	vectorFields = []string{"name", "kind", "open"}
	statsFields  = []string{"nv", "np", "nc", "nl", "n", "tp_ns", "tc_ns", "tl_ns", "t_ns",
		"path_ilp_non_optimal", "cut_ilp_non_optimal", "ilp_solves", "ilp_nodes", "solver_wall_ns"}
)

// encodePlan returns the plan's v1 wire bytes: indented with the trailing
// newline as EncodePlan writes them, or compact as MarshalJSON returns
// them. The result is copied out of a recycled scratch buffer at its exact
// length: the service keeps these bytes in a cache charged by length, so
// they must carry no spare capacity, and the copy is cheap next to the
// encode.
func encodePlan(p *Plan, indent bool) []byte {
	buf := wireBufs.Get().(*[]byte)
	*buf = appendPlan((*buf)[:0], p, indent)
	out := bytes.Clone(*buf)
	wireBufs.Put(buf)
	return out
}

// wireBufs recycles encode scratch buffers.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendPlan appends the plan's v1 wire bytes to b, straight from the test
// set.
func appendPlan(b []byte, p *Plan, indent bool) []byte {
	ts := p.ts
	text := grid.Marshal(p.a.g)
	nv := p.a.g.NumValves()
	w := wireWriter{b: b, indent: indent}
	w.open('{')
	w.key("format")
	w.string(PlanFormat)
	w.key("version")
	w.int(CodecVersion)
	w.key("array")
	w.string(text)
	for _, fam := range [...]struct {
		key  string
		vecs []*sim.Vector
	}{{"pathVectors", ts.PathVectors}, {"cutVectors", ts.CutVectors}, {"leakVectors", ts.LeakVectors}} {
		w.key(fam.key)
		w.open('[')
		for _, v := range fam.vecs {
			w.elem()
			w.open('{')
			w.key("name")
			w.string(v.Name)
			w.key("kind")
			w.string(v.Kind.String())
			w.key("open")
			w.open('[')
			for id := grid.ValveID(0); int(id) < nv; id++ {
				if v.Open(id) {
					w.elem()
					w.int(int64(id))
				}
			}
			w.close(']')
			w.close('}')
		}
		w.close(']')
	}
	if len(ts.LeakPairs) > 0 {
		w.key("leakPairs")
		w.open('[')
		for _, lp := range ts.LeakPairs {
			w.elem()
			w.open('[')
			w.elem()
			w.int(int64(lp[0]))
			w.elem()
			w.int(int64(lp[1]))
			w.close(']')
		}
		w.close(']')
	}
	for _, unc := range [...]struct {
		key string
		ids []grid.ValveID
	}{{"uncoveredPath", ts.UncoveredPath}, {"uncoveredCut", ts.UncoveredCut}} {
		if len(unc.ids) == 0 {
			continue
		}
		w.key(unc.key)
		w.open('[')
		for _, id := range unc.ids {
			w.elem()
			w.int(int64(id))
		}
		w.close(']')
	}
	s := &ts.Stats
	w.key("stats")
	w.open('{')
	for _, f := range [...]struct {
		key       string
		v         int64
		omitEmpty bool
	}{
		{"nv", int64(s.NV), false}, {"np", int64(s.NP), false}, {"nc", int64(s.NC), false},
		{"nl", int64(s.NL), false}, {"n", int64(s.N), false},
		{"tp_ns", s.TP.Nanoseconds(), false}, {"tc_ns", s.TC.Nanoseconds(), false},
		{"tl_ns", s.TL.Nanoseconds(), false}, {"t_ns", s.T.Nanoseconds(), false},
		{"path_ilp_non_optimal", int64(s.PathILPNonOptimal), true},
		{"cut_ilp_non_optimal", int64(s.CutILPNonOptimal), true},
		{"ilp_solves", int64(s.ILPSolves), true}, {"ilp_nodes", int64(s.ILPNodes), true},
		{"solver_wall_ns", s.SolverWall.Nanoseconds(), true},
	} {
		if f.omitEmpty && f.v == 0 {
			continue
		}
		w.key(f.key)
		w.int(f.v)
	}
	w.close('}')
	w.close('}')
	if indent {
		w.b = append(w.b, '\n')
	}
	return w.b
}

// wireWriter appends JSON laid out as encoding/json lays it out: compact,
// or indented by two spaces a level, with empty containers kept as {} and
// [].
type wireWriter struct {
	b      []byte
	indent bool
	depth  int
	// first is true until the innermost open container has an entry.
	first bool
}

// wireIndent is a newline and the indentation of the deepest level a plan
// has (an open-list entry, level 4).
const wireIndent = "\n        "

func (w *wireWriter) newline() {
	if w.indent {
		w.b = append(w.b, wireIndent[:1+2*w.depth]...)
	}
}

func (w *wireWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

func (w *wireWriter) close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.b = append(w.b, c)
	w.first = false
}

// elem starts the next entry of the innermost container.
func (w *wireWriter) elem() {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

// key starts an object member. Keys are plain ASCII, so they need no
// escaping.
func (w *wireWriter) key(k string) {
	w.elem()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':')
	if w.indent {
		w.b = append(w.b, ' ')
	}
}

func (w *wireWriter) int(v int64) { w.b = strconv.AppendInt(w.b, v, 10) }

const lowerHex = "0123456789abcdef"

// string appends s quoted as encoding/json quotes it with HTML escaping on.
func (w *wireWriter) string(s string) {
	b := append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', lowerHex[c>>4], lowerHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', lowerHex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.b = append(b, '"')
}

// decodePlan decodes one plan from data, checking, in this order, the
// JSON, the envelope, the payload and then that nothing but whitespace
// follows the envelope. data is not retained.
func decodePlan(data []byte) (*Plan, error) {
	var env planEnvelope
	n, err := parsePlan(data, &env)
	if err != nil {
		return nil, err
	}
	p := new(Plan)
	if err := env.decode(p); err != nil {
		return nil, err
	}
	if err := trailing(data[n:]); err != nil {
		return nil, err
	}
	return p, nil
}

// readAll reads r to the end, into one allocation when r reports its
// length (bytes.Reader, bytes.Buffer, strings.Reader).
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// trailing fails when rest holds anything but JSON whitespace.
func trailing(rest []byte) error {
	for _, c := range rest {
		if !isSpace(c) {
			return fmt.Errorf("fpva: decode plan: %w: trailing data after the envelope", ErrWireSyntax)
		}
	}
	return nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// maxWireDepth is encoding/json's limit on nested objects and arrays.
const maxWireDepth = 10000

// parsePlan decodes the first JSON value of data into env and returns the
// offset just past it. The value must be an object or null.
func parsePlan(data []byte, env *planEnvelope) (int, error) {
	d := planDecoder{data: data}
	d.space()
	var err error
	switch d.peek() {
	case '{':
		err = d.envelope(env)
	case 'n':
		err = d.literal("null")
	default:
		err = d.mismatch("the plan envelope")
	}
	if err == nil {
		err = d.typeErr
	}
	return d.i, err
}

// planDecoder validates the JSON syntax of one value and fills a
// planEnvelope as it goes, in a single pass over data.
type planDecoder struct {
	data  []byte
	i     int // the cursor
	depth int // open objects and arrays
	// typeErr is the first value of the wrong JSON type for its field.
	// Like encoding/json, decoding goes on and then fails with it.
	typeErr error
	// arena backs the int lists that decode fresh, for the whole plan.
	arena []int
	// buf holds the last string that needed unescaping.
	buf []byte
}

// peek returns the byte at the cursor, or 0 at the end of the input (0 is
// never valid where it is peeked, so the caller reports the end).
func (d *planDecoder) peek() byte {
	if d.i < len(d.data) {
		return d.data[d.i]
	}
	return 0
}

func (d *planDecoder) space() {
	data, i := d.data, d.i
	for i < len(data) && data[i] <= ' ' && isSpace(data[i]) {
		i++
	}
	d.i = i
}

// unexpected reports a syntax error at the cursor.
func (d *planDecoder) unexpected(context string) error {
	if d.i >= len(d.data) {
		return fmt.Errorf("fpva: decode plan: %w: unexpected end of JSON input", ErrWireSyntax)
	}
	return fmt.Errorf("fpva: decode plan: %w: invalid character %q %s at offset %d",
		ErrWireSyntax, d.data[d.i], context, d.i)
}

func (d *planDecoder) literal(lit string) error {
	for j := 0; j < len(lit); j++ {
		if d.peek() != lit[j] {
			return d.unexpected("in literal " + lit)
		}
		d.i++
	}
	return nil
}

// mismatch skips a value whose JSON type the field cannot take and
// records the first such value.
func (d *planDecoder) mismatch(field string) error {
	at := d.i
	if err := d.skip(); err != nil {
		return err
	}
	d.mismatchAt(at, field)
	return nil
}

func (d *planDecoder) mismatchAt(at int, field string) {
	if d.typeErr != nil {
		return
	}
	kind := "number"
	switch d.data[at] {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	}
	d.typeErr = fmt.Errorf("fpva: decode plan: %w: cannot decode the JSON %s at offset %d into %s",
		ErrWireSyntax, kind, at, field)
}

// skip validates and steps over the value at the cursor.
func (d *planDecoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(nil, func(int) error { return d.skip() })
	case c == '[':
		_, err := d.elems(func(int) error { return d.skip() })
		return err
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		_, _, err := d.number()
		return err
	}
	return d.unexpected("looking for beginning of value")
}

func (d *planDecoder) push() error {
	d.depth++
	if d.depth > maxWireDepth {
		return fmt.Errorf("fpva: decode plan: %w: exceeded max depth at offset %d", ErrWireSyntax, d.i)
	}
	return nil
}

// object walks the object at the cursor. member is called with the index
// in fields of each key's field, or -1 for a key no field takes, with the
// cursor at the member's value, which it must consume.
func (d *planDecoder) object(fields []string, member func(f int) error) error {
	d.i++
	if err := d.push(); err != nil {
		return err
	}
	d.space()
	if d.peek() == '}' {
		d.i++
		d.depth--
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.unexpected("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		f := fieldIndex(key, fields)
		d.space()
		if d.peek() != ':' {
			return d.unexpected("after object key")
		}
		d.i++
		d.space()
		if err := member(f); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
			d.space()
		case '}':
			d.i++
			d.depth--
			return nil
		default:
			return d.unexpected("after object key:value pair")
		}
	}
}

// fieldIndex picks the field a key names: an exact match first, then a
// case-insensitive one.
func fieldIndex(key []byte, fields []string) int {
	for f, name := range fields {
		if string(key) == name {
			return f
		}
	}
	for f, name := range fields {
		if bytes.EqualFold(key, []byte(name)) {
			return f
		}
	}
	return -1
}

// elems walks the array at the cursor, calling elem with each element's
// index and the cursor at the element, which it must consume. It returns
// the element count.
func (d *planDecoder) elems(elem func(i int) error) (int, error) {
	d.i++
	if err := d.push(); err != nil {
		return 0, err
	}
	d.space()
	if d.peek() == ']' {
		d.i++
		d.depth--
		return 0, nil
	}
	for n := 0; ; {
		if err := elem(n); err != nil {
			return 0, err
		}
		n++
		d.space()
		switch d.peek() {
		case ',':
			d.i++
			d.space()
		case ']':
			d.i++
			d.depth--
			return n, nil
		default:
			return 0, d.unexpected("after array element")
		}
	}
}

// str scans the string at the cursor and returns its contents unescaped.
// The result aliases data, or d.buf when unescaping rewrote it, so it is
// valid until the next call.
func (d *planDecoder) str() ([]byte, error) {
	d.i++
	start := d.i
	plain, ascii := true, true
	for {
		if d.i >= len(d.data) {
			return nil, d.unexpected("")
		}
		c := d.data[d.i]
		switch {
		case c == '"':
			raw := d.data[start:d.i]
			d.i++
			if plain && (ascii || utf8.Valid(raw)) {
				return raw, nil
			}
			return d.unescape(raw), nil
		case c == '\\':
			plain = false
			d.i++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i++
			case 'u':
				d.i++
				for k := 0; k < 4; k++ {
					if unhex(d.peek()) < 0 {
						return nil, d.unexpected("in \\u hexadecimal character escape")
					}
					d.i++
				}
			default:
				return nil, d.unexpected("in string escape code")
			}
		case c < 0x20:
			return nil, d.unexpected("in string literal")
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			d.i++
		}
	}
}

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// u4 decodes the \uXXXX escape at the start of s, or returns -1.
func u4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	return unhex(s[2])<<12 | unhex(s[3])<<8 | unhex(s[4])<<4 | unhex(s[5])
}

// unescape rewrites the body of a syntactically valid string the way
// encoding/json does: escapes decoded, a surrogate pair joined, and an
// unpaired surrogate or invalid UTF-8 replaced by U+FFFD.
func (d *planDecoder) unescape(s []byte) []byte {
	b := d.buf[:0]
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'u':
				rr := u4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, u4(s[r:])); dec != unicode.ReplacementChar {
						r += 6
						b = utf8.AppendRune(b, dec)
						break
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
			default:
				b = append(b, unescapes[e])
				r += 2
			}
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	d.buf = b
	return b
}

// unescapes maps the byte after a backslash to the byte it stands for.
var unescapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// number scans the number at the cursor. ok reports an integer that
// strconv.ParseInt accepts, the test encoding/json applies for an int
// field: a fraction, an exponent or an int64 overflow is not ok.
func (d *planDecoder) number() (n int64, ok bool, err error) {
	start := d.i
	if d.peek() == '-' {
		d.i++
	}
	switch c := d.peek(); {
	case c == '0':
		d.i++
	case '1' <= c && c <= '9':
		data, i := d.data, d.i+1
		for i < len(data) && isDigit(data[i]) {
			i++
		}
		d.i = i
	default:
		return 0, false, d.unexpected("in numeric literal")
	}
	lit := d.data[start:d.i]
	ok = true
	if d.peek() == '.' {
		d.i++
		if !isDigit(d.peek()) {
			return 0, false, d.unexpected("after decimal point in numeric literal")
		}
		for d.i++; isDigit(d.peek()); d.i++ {
		}
		ok = false
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		if !isDigit(d.peek()) {
			return 0, false, d.unexpected("in exponent of numeric literal")
		}
		for d.i++; isDigit(d.peek()); d.i++ {
		}
		ok = false
	}
	if !ok {
		return 0, false, nil
	}
	if len(lit) > 18 { // may not fit int64
		n, err := strconv.ParseInt(string(lit), 10, 64)
		return n, err == nil, nil
	}
	for _, c := range lit {
		if c != '-' {
			n = n*10 + int64(c-'0')
		}
	}
	if lit[0] == '-' {
		n = -n
	}
	return n, true, nil
}

// integer decodes an integer field of the given bit size: a number that
// fits is returned with set, null leaves the field as it is, and any other
// value is a type mismatch.
func (d *planDecoder) integer(bits int, field string) (n int64, set bool, err error) {
	switch c := d.peek(); {
	case c == '-' || isDigit(c):
		at := d.i
		n, ok, err := d.number()
		if err != nil {
			return 0, false, err
		}
		if !ok || bits < 64 && (n < -1<<(bits-1) || n >= 1<<(bits-1)) {
			d.mismatchAt(at, field)
			return 0, false, nil
		}
		return n, true, nil
	case c == 'n':
		return 0, false, d.literal("null")
	}
	return 0, false, d.mismatch(field)
}

func (d *planDecoder) int(dst *int, field string) error {
	n, set, err := d.integer(strconv.IntSize, field)
	if set {
		*dst = int(n)
	}
	return err
}

func (d *planDecoder) int64(dst *int64, field string) error {
	n, set, err := d.integer(64, field)
	if set {
		*dst = n
	}
	return err
}

// string decodes a string field; null leaves it as it is.
func (d *planDecoder) string(dst *string, field string) error {
	switch d.peek() {
	case '"':
		s, err := d.str()
		if err == nil {
			*dst = string(s)
		}
		return err
	case 'n':
		return d.literal("null")
	}
	return d.mismatch(field)
}

// record decodes an object into a struct field; null leaves it as it is.
func (d *planDecoder) record(fields []string, field string, member func(f int) error) error {
	switch d.peek() {
	case '{':
		return d.object(fields, member)
	case 'n':
		return d.literal("null")
	}
	return d.mismatch(field)
}

// decodeSlice decodes an array into a slice field: each element decodes
// over whatever an earlier duplicate key left at its index, the slice is
// then cut to the elements read, [] gives an empty slice and null gives
// nil.
func decodeSlice[T any](d *planDecoder, s *[]T, field string, elem func(*T) error) error {
	switch d.peek() {
	case '[':
	case 'n':
		err := d.literal("null")
		if err == nil {
			*s = nil
		}
		return err
	default:
		return d.mismatch(field)
	}
	v := *s
	n, err := d.elems(func(i int) error {
		if i == len(v) {
			if i < cap(v) {
				v = v[:i+1]
			} else {
				var zero T
				v = append(v, zero)
			}
		}
		return elem(&v[i])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		v = []T{}
	}
	*s = v[:n]
	return nil
}

// ints decodes an int list field. A list that decodes fresh (nothing of
// an earlier duplicate key to reuse) takes its elements from d.arena, one
// backing array for the whole plan; that changes only capacities, which
// nothing observes.
func (d *planDecoder) ints(s *[]int, field string) error {
	elem := func(v *int) error { return d.int(v, field) }
	if cap(*s) > 0 || d.peek() != '[' {
		return decodeSlice(d, s, field, elem)
	}
	start := len(d.arena)
	n, err := d.elems(func(int) error {
		v, _, err := d.integer(strconv.IntSize, field) // v is 0 unless set: a fresh element stays zero
		d.arena = append(d.arena, int(v))
		return err
	})
	if err != nil {
		return err
	}
	if n == 0 {
		*s = []int{}
	} else {
		*s = d.arena[start:len(d.arena):len(d.arena)]
	}
	return nil
}

// pair decodes a leakPairs entry, an [2]int: null leaves it as it is,
// missing elements are zeroed and extra ones skipped.
func (d *planDecoder) pair(p *[2]int) error {
	switch d.peek() {
	case '[':
	case 'n':
		return d.literal("null")
	default:
		return d.mismatch("leakPairs entry")
	}
	n, err := d.elems(func(i int) error {
		if i < len(p) {
			return d.int(&p[i], "leakPairs entry")
		}
		return d.skip()
	})
	for ; err == nil && n < len(p); n++ {
		p[n] = 0
	}
	return err
}

func (d *planDecoder) envelope(env *planEnvelope) error {
	return d.object(planFields, func(f int) error {
		switch f {
		case 0:
			return d.string(&env.Format, "format")
		case 1:
			return d.int(&env.Version, "version")
		case 2:
			return d.string(&env.Array, "array")
		case 3:
			return d.vectors(&env.PathVectors, "pathVectors")
		case 4:
			return d.vectors(&env.CutVectors, "cutVectors")
		case 5:
			return d.vectors(&env.LeakVectors, "leakVectors")
		case 6:
			return decodeSlice(d, &env.LeakPairs, "leakPairs", d.pair)
		case 7:
			return d.ints(&env.UncoveredPath, "uncoveredPath")
		case 8:
			return d.ints(&env.UncoveredCut, "uncoveredCut")
		case 9:
			return d.stats(&env.Stats)
		}
		return d.skip()
	})
}

func (d *planDecoder) vectors(s *[]vectorJSON, field string) error {
	return decodeSlice(d, s, field, func(v *vectorJSON) error {
		return d.record(vectorFields, field+" entry", func(f int) error {
			switch f {
			case 0:
				return d.string(&v.Name, "vector name")
			case 1:
				return d.string(&v.Kind, "vector kind")
			case 2:
				return d.ints(&v.Open, "vector open list")
			}
			return d.skip()
		})
	})
}

func (d *planDecoder) stats(s *statsJSON) error {
	// The fields by their index in statsFields: the int ones and the
	// int64 nanosecond ones.
	ints := [...]*int{0: &s.NV, 1: &s.NP, 2: &s.NC, 3: &s.NL, 4: &s.N,
		9: &s.PathILPNonOptimal, 10: &s.CutILPNonOptimal, 11: &s.ILPSolves, 12: &s.ILPNodes}
	nanos := [...]*int64{5: &s.TPNanos, 6: &s.TCNanos, 7: &s.TLNanos, 8: &s.TNanos, 13: &s.SolverWallNanos}
	return d.record(statsFields, "stats", func(f int) error {
		switch {
		case f < 0:
			return d.skip()
		case f < len(ints) && ints[f] != nil:
			return d.int(ints[f], statsFields[f])
		}
		return d.int64(nanos[f], statsFields[f])
	})
}
