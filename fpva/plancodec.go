package fpva

// This file is the plan envelope's codec: a hand-written encoder for the
// v1 plan wire format, and a decoder that reads the one layout the
// encoder writes and hands every other input to encoding/json. Plans are
// the largest payload the system moves (tens to hundreds of KB, nearly
// all of it vector open lists), and one crosses the codec on every store
// read-back, solve, plan upload and diagnosis cache key, so the plan path
// does not go through encoding/json, which scans a value several times
// and decodes it by reflection.
//
// The contract is identity with encoding/json on planEnvelope: the encoder
// writes the bytes json.Encoder with SetIndent("", "  ") writes (or
// json.Marshal, for MarshalJSON), and for every input the decoder gives the
// same success or failure, the same sentinel error and a plan that
// re-encodes to the same bytes. parseWire reads the layout appendPlan
// writes, indented or compact, which encoding/json reads into the same
// envelope. At the first byte outside it the decoder starts again with
// encoding/json on a fresh envelope, so for every other input
// encoding/json is the contract itself. The input selects the path;
// nothing else does. codec_oracle_test.go keeps the encoding/json
// implementation as the reference that the tests and FuzzDecodePlan
// compare against.
//
// DecodePlan checks for data after the envelope last, so a payload error
// wins over trailing garbage; UnmarshalJSON, like json.Unmarshal, rejects
// trailing data first.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/grid"
	"repro/internal/sim"
)

// The JSON keys of planEnvelope, vectorJSON and statsJSON in field order,
// as parseWire reads them; TestPlanFieldNamesMatchTags pins them to the
// struct tags.
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
	n, ok := parseWire(data, &env)
	if !ok {
		env = planEnvelope{} // encoding/json would merge into what parseWire read
		dec := json.NewDecoder(bytes.NewReader(data))
		if err := dec.Decode(&env); err != nil {
			return nil, fmt.Errorf("fpva: decode plan: %w: %v", ErrWireSyntax, err)
		}
		n = int(dec.InputOffset())
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

// parseWire reads the plan envelope at the start of data into env and
// returns the offset just past it, provided the envelope is laid out as
// appendPlan writes it:
//
//   - members in field order under their exact keys, the omitempty ones
//     (leakPairs, uncoveredPath, uncoveredCut and the last five stats)
//     present or absent;
//   - no null;
//   - strings of ASCII whose only escapes are \n, \" and \\;
//   - integers with no sign, fraction, exponent or leading zero, of at
//     most 18 digits, that fit their field;
//   - any JSON whitespace between tokens.
//
// At the first byte outside that layout it returns false, and env holds
// what it read up to there. encoding/json reads every input parseWire
// accepts into the same envelope.
func parseWire(data []byte, env *planEnvelope) (int, bool) {
	r := wireReader{data: data}
	ok := r.token('{') &&
		r.member(planFields[0], true) && r.str(&env.Format) &&
		r.member(planFields[1], false) && r.int(&env.Version) &&
		r.member(planFields[2], false) && r.str(&env.Array) &&
		r.member(planFields[3], false) && r.vectors(&env.PathVectors) &&
		r.member(planFields[4], false) && r.vectors(&env.CutVectors) &&
		r.member(planFields[5], false) && r.vectors(&env.LeakVectors) &&
		(!r.member(planFields[6], false) || r.pairs(&env.LeakPairs)) &&
		(!r.member(planFields[7], false) || r.ints(&env.UncoveredPath)) &&
		(!r.member(planFields[8], false) || r.ints(&env.UncoveredCut)) &&
		r.member(planFields[9], false) && r.stats(&env.Stats) &&
		r.token('}')
	return r.i, ok
}

// wireReader is parseWire's cursor over data. Its scan loops keep the
// cursor in a local and store it once: advancing r.i byte by byte reads
// the indented layout's whitespace at half the speed.
type wireReader struct {
	data  []byte
	i     int
	arena []int // backs every int list of the plan
}

func (r *wireReader) space() {
	data, i := r.data, r.i
	for i < len(data) && isSpace(data[i]) {
		i++
	}
	r.i = i
}

// token steps over whitespace and then c.
func (r *wireReader) token(c byte) bool {
	r.space()
	if r.i < len(r.data) && r.data[r.i] == c {
		r.i++
		return true
	}
	return false
}

// member steps over the comma before an object member, unless it is the
// first, and over the key k and its colon. When the input holds anything
// else there, member returns false with the cursor where it was, so that
// an absent omitempty member can be passed over.
func (r *wireReader) member(k string, first bool) bool {
	at := r.i
	if (first || r.token(',')) && r.token('"') {
		end := r.i + len(k)
		if end < len(r.data) && string(r.data[r.i:end]) == k && r.data[end] == '"' {
			r.i = end + 1
			if r.token(':') {
				return true
			}
		}
	}
	r.i = at
	return false
}

// str reads a string of ASCII whose only escapes are \n, \" and \\.
func (r *wireReader) str(dst *string) bool {
	if !r.token('"') {
		return false
	}
	data, i := r.data, r.i
	escaped := false
	for ; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			if escaped {
				*dst = unescapeWire(data[r.i:i])
			} else {
				*dst = string(data[r.i:i])
			}
			r.i = i + 1
			return true
		case c == '\\':
			i++
			if i == len(data) || data[i] != 'n' && data[i] != '"' && data[i] != '\\' {
				return false
			}
			escaped = true
		case c < 0x20 || c >= utf8.RuneSelf:
			return false
		}
	}
	return false
}

// unescapeWire decodes the escapes str accepts.
func unescapeWire(s []byte) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\\' {
			i++
			if c = s[i]; c == 'n' {
				c = '\n'
			}
		}
		b.WriteByte(c)
	}
	return b.String()
}

// int64 reads an integer of 1 to 18 digits with no sign and no leading
// zero, so it always fits.
func (r *wireReader) int64(dst *int64) bool {
	r.space()
	data, i := r.data, r.i
	start := i
	var n int64
	for i < len(data) && isDigit(data[i]) {
		n = n*10 + int64(data[i]-'0')
		i++
	}
	r.i = i
	*dst = n
	digits := i - start
	return digits > 0 && digits <= 18 && (digits == 1 || data[start] != '0')
}

// int reads an integer as int64 does, and fails unless it fits an int.
func (r *wireReader) int(dst *int) bool {
	var n int64
	ok := r.int64(&n)
	*dst = int(n)
	return ok && int64(*dst) == n
}

// list reads an array, calling elem at each element.
func (r *wireReader) list(elem func() bool) bool {
	if !r.token('[') {
		return false
	}
	if r.token(']') {
		return true
	}
	for elem() {
		if r.token(']') {
			return true
		}
		if !r.token(',') {
			return false
		}
	}
	return false
}

// ints reads an int list. Its elements go to r.arena, one backing array
// for every list of the plan; that changes only capacities, which nothing
// observes.
func (r *wireReader) ints(dst *[]int) bool {
	start := len(r.arena)
	ok := r.list(func() bool {
		var v int
		ok := r.int(&v)
		r.arena = append(r.arena, v)
		return ok
	})
	*dst = r.arena[start:len(r.arena):len(r.arena)]
	return ok
}

func (r *wireReader) vectors(dst *[]vectorJSON) bool {
	return r.list(func() bool {
		*dst = append(*dst, vectorJSON{})
		v := &(*dst)[len(*dst)-1]
		return r.token('{') &&
			r.member(vectorFields[0], true) && r.str(&v.Name) &&
			r.member(vectorFields[1], false) && r.str(&v.Kind) &&
			r.member(vectorFields[2], false) && r.ints(&v.Open) &&
			r.token('}')
	})
}

// pairs reads leakPairs, whose entries have exactly two elements.
func (r *wireReader) pairs(dst *[][2]int) bool {
	return r.list(func() bool {
		var p [2]int
		ok := r.token('[') && r.int(&p[0]) && r.token(',') && r.int(&p[1]) && r.token(']')
		*dst = append(*dst, p)
		return ok
	})
}

func (r *wireReader) stats(s *statsJSON) bool {
	// The fields by their index in statsFields: the int ones and the
	// int64 nanosecond ones.
	ints := [...]*int{0: &s.NV, 1: &s.NP, 2: &s.NC, 3: &s.NL, 4: &s.N,
		9: &s.PathILPNonOptimal, 10: &s.CutILPNonOptimal, 11: &s.ILPSolves, 12: &s.ILPNodes}
	nanos := [...]*int64{5: &s.TPNanos, 6: &s.TCNanos, 7: &s.TLNanos, 8: &s.TNanos, 13: &s.SolverWallNanos}
	if !r.token('{') {
		return false
	}
	for f, k := range statsFields {
		var ok bool
		switch {
		case !r.member(k, f == 0):
			ok = f >= 9 // the omitempty members, path_ilp_non_optimal on, may be absent
		case nanos[f] != nil:
			ok = r.int64(nanos[f])
		default:
			ok = r.int(ints[f])
		}
		if !ok {
			return false
		}
	}
	return r.token('}')
}
