package fpva

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/sim"
)

// wireClass returns the codec sentinel err wraps, or nil.
func wireClass(err error) error {
	for _, s := range []error{ErrWireSyntax, ErrWireFormat, ErrWireVersion, ErrWirePayload} {
		if errors.Is(err, s) {
			return s
		}
	}
	return nil
}

// AssertPlanMatchesOracle decodes data with the codec and with the
// encoding/json reference, through DecodePlan and through UnmarshalJSON,
// and fails unless both give the same outcome: the same sentinel error, or
// plans whose indented and compact encodings are byte-identical. It also
// checks that the codec encodes the reference's plan as the reference
// does. FuzzDecodePlan calls it on every input.
func AssertPlanMatchesOracle(t testing.TB, data []byte) {
	t.Helper()
	got, err := DecodePlan(bytes.NewReader(data))
	want, werr := oracleDecodePlan(bytes.NewReader(data))
	comparePlanOutcome(t, "DecodePlan", got, err, want, werr)
	var viaUnmarshal Plan
	err = viaUnmarshal.UnmarshalJSON(data)
	want, werr = oracleUnmarshalPlan(data)
	comparePlanOutcome(t, "UnmarshalJSON", &viaUnmarshal, err, want, werr)
}

func comparePlanOutcome(t testing.TB, op string, got *Plan, err error, want *Plan, werr error) {
	t.Helper()
	if (err == nil) != (werr == nil) || wireClass(err) != wireClass(werr) {
		t.Fatalf("%s: err = %v, reference err = %v", op, err, werr)
	}
	if err != nil {
		if wireClass(err) == nil {
			t.Fatalf("%s: unclassified error %v", op, err)
		}
		return
	}
	var a, b, c bytes.Buffer
	if err := EncodePlan(&a, got); err != nil {
		t.Fatal(err)
	}
	if err := oracleEncodePlan(&b, want); err != nil {
		t.Fatal(err)
	}
	if err := EncodePlan(&c, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: decoded plan re-encodes to\n%s\nreference:\n%s", op, a.Bytes(), b.Bytes())
	}
	if !bytes.Equal(c.Bytes(), b.Bytes()) {
		t.Fatalf("%s: the codec encodes the reference plan as\n%s\nreference:\n%s", op, c.Bytes(), b.Bytes())
	}
	compact, _ := got.MarshalJSON()
	wantCompact, _ := (*oraclePlan)(want).MarshalJSON()
	if !bytes.Equal(compact, wantCompact) {
		t.Fatalf("%s: MarshalJSON gives\n%s\nreference:\n%s", op, compact, wantCompact)
	}
}

// TestPlanCodecMatchesOracle pins the codec to the encoding/json
// reference: identical bytes for every Table I plan, both generated and
// baseline, and for the golden file; identical outcomes on a table of
// inputs covering the JSON syntax, the field types, the envelope and
// payload checks, keys, null, duplicate keys, integers and strings; and
// identical outcomes on the golden plan with one token changed at each
// edge of the layout parseWire reads, deep inside the plan, where each
// row also pins whether parseWire reads it or encoding/json does.
func TestPlanCodecMatchesOracle(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "plan_v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("encode", func(t *testing.T) {
		goldenPlan, err := oracleDecodePlan(bytes.NewReader(golden))
		if err != nil {
			t.Fatal(err)
		}
		plans := map[string]*Plan{"golden": goldenPlan}
		for _, name := range BenchmarkNames() {
			a, err := BenchmarkArray(name)
			if err != nil {
				t.Fatal(err)
			}
			if plans[name], err = Generate(context.Background(), a); err != nil {
				t.Fatal(err)
			}
			if plans[name+" baseline"], err = BaselinePlan(a); err != nil {
				t.Fatal(err)
			}
		}
		for name, p := range plans {
			var got, want bytes.Buffer
			if err := EncodePlan(&got, p); err != nil {
				t.Fatal(err)
			}
			if err := oracleEncodePlan(&want, p); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s: EncodePlan differs from the reference", name)
			}
			compact, _ := p.MarshalJSON()
			wantCompact, _ := (*oraclePlan)(p).MarshalJSON()
			if !bytes.Equal(compact, wantCompact) {
				t.Errorf("%s: MarshalJSON differs from the reference", name)
			}
		}
		var got bytes.Buffer
		if err := EncodePlan(&got, goldenPlan); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), golden) {
			t.Error("the golden plan does not re-encode to the golden file")
		}
		var gotNil, wantNil bytes.Buffer
		if err := EncodePlan(&gotNil, nil); err != nil {
			t.Fatal(err)
		}
		if err := oracleEncodePlan(&wantNil, nil); err != nil {
			t.Fatal(err)
		}
		if gotNil.String() != wantNil.String() {
			t.Errorf("nil plan encodes as %q, reference %q", gotNil.String(), wantNil.String())
		}
	})

	quote := func(a *Array, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		q, err := json.Marshal(a.Text())
		if err != nil {
			t.Fatal(err)
		}
		return string(q)
	}
	arr2, arr3 := quote(NewArray(2, 2)), quote(NewArray(3, 3))
	head := `{"format":"fpva.plan","version":1,"array":` + arr2
	vec := func(name, kind, open string) string {
		return `{"name":"` + name + `","kind":"` + kind + `","open":` + open + `}`
	}
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, tc := range []struct{ name, in string }{
		{"golden", string(golden)},
		{"golden with CRLF and tabs", strings.NewReplacer("\n", "\r\n", "  ", "\t").Replace(string(golden))},
		{"minimal", head + `}`},
		// Syntax errors.
		{"empty", ``},
		{"only whitespace", " \n\t\r "},
		{"truncated", head[:30]},
		{"truncated after value", head},
		{"trailing comma", head + `,}`},
		{"missing colon", `{"format" "fpva.plan"}`},
		{"single quotes", `{'format':1}`},
		{"bad escape", head + `,"x":"\x"}`},
		{"short unicode escape", head + `,"x":"\u12"}`},
		{"control character in string", head + ",\"x\":\"a\x01b\"}"},
		{"leading zero", head + `,"x":01}`},
		{"bare minus", head + `,"x":-}`},
		{"fraction without digits", head + `,"x":1.}`},
		{"exponent without digits", head + `,"x":1e+}`},
		{"plus sign", head + `,"x":+1}`},
		{"bad literal", head + `,"x":tru}`},
		{"byte order mark", "\xef\xbb\xbf" + head + `}`},
		{"top-level array", `[1,2,3]`},
		{"top-level string", `"fpva.plan"`},
		{"top-level number", `12 `},
		{"top-level true", `true`},
		{"truncated null", `nul`},
		{"nesting at the limit", head + `,"x":` + deep(9999) + `}`},
		{"nesting past the limit", head + `,"x":` + deep(10000) + `}`},
		// Values of the wrong JSON type.
		{"format number", `{"format":7}`},
		{"version string", `{"format":"fpva.plan","version":1,"version":"1","array":` + arr2 + `}`},
		{"version fraction", `{"format":"fpva.plan","version":1.0,"array":"fpva 2 2\n"}`},
		{"version exponent", `{"format":"fpva.plan","version":1e0,"array":"fpva 2 2\n"}`},
		{"version overflow", `{"format":"fpva.plan","version":99999999999999999999,"array":"fpva 2 2\n"}`},
		{"version bool", `{"format":"fpva.plan","version":true,"array":"fpva 2 2\n"}`},
		{"vectors object", head + `,"pathVectors":{}}`},
		{"vectors string", head + `,"pathVectors":"p"}`},
		{"vector number", head + `,"pathVectors":[1]}`},
		{"open string", head + `,"pathVectors":[` + vec("p", "flow-path", `"1"`) + `]}`},
		{"open entry float", head + `,"pathVectors":[` + vec("p", "flow-path", `[1.5]`) + `]}`},
		{"stats array", head + `,"stats":[]}`},
		{"stats entry string", head + `,"stats":{"nv":"3"}}`},
		{"stats ns overflow", head + `,"stats":{"t_ns":9223372036854775808}}`},
		{"leak pair object", head + `,"leakPairs":[{"a":1}]}`},
		{"leak pair string entry", head + `,"leakPairs":[[1,"2"]]}`},
		{"type error beats format error", `{"format":"other","version":"1"}`},
		{"type error beats payload error", head + `,"pathVectors":[` + vec("p", "mystery", `[]`) + `],"stats":{"n":[]}}`},
		// Envelope checks.
		{"missing format", `{"version":1}`},
		{"wrong format", `{"format":"fpva.array","version":1}`},
		{"future version", `{"format":"fpva.plan","version":2}`},
		{"version null", `{"format":"fpva.plan","version":null}`},
		{"top-level null", `null`},
		{"top-level null and whitespace", " null \n"},
		{"top-level null and garbage", `null garbage`},
		{"empty object", `{}`},
		{"format error beats trailing data", `{"format":"other"} []`},
		// Payload checks.
		{"bad array text", `{"format":"fpva.plan","version":1,"array":"bogus"}`},
		{"array without body", `{"format":"fpva.plan","version":1,"array":"fpva 2 2\n"}`},
		{"valve out of range", head + `,"pathVectors":[` + vec("p", "flow-path", `[999]`) + `]}`},
		{"negative valve", head + `,"cutVectors":[` + vec("c", "cut-set", `[-1]`) + `]}`},
		{"unknown kind", head + `,"leakVectors":[` + vec("l", "mystery", `[]`) + `]}`},
		{"leak pair out of range", head + `,"leakPairs":[[0,999]]}`},
		{"uncovered out of range", head + `,"uncoveredCut":[999]}`},
		{"payload error beats trailing data", head + `,"uncoveredPath":[999]} {"x":1}`},
		// Trailing data.
		{"trailing object", head + `} {"x":1}`},
		{"trailing garbage", head + `}x`},
		{"trailing whitespace", head + "} \n\t\r"},
		{"two envelopes", head + `}` + head + `}`},
		// Keys.
		{"keys in upper case", `{"FORMAT":"fpva.plan","Version":1,"ARRAY":` + arr2 + `,"PathVectors":[{"NAME":"p","Kind":"flow-path","OPEN":[1]}],"STATS":{"NV":4,"T_NS":5}}`},
		{"key with long s", head + ",\"\u017ftats\":{\"n\":3}}"},
		{"key with kelvin sign", head + ",\"lea\u212aPairs\":[[1,2]]}"},
		{"key with dotted capital i", "{\"format\":\"fpva.plan\",\"vers\u0130on\":1}"},
		{"key with dotless i", "{\"format\":\"fpva.plan\",\"vers\u0131on\":1}"},
		{"escaped key", `{"form\u0061t":"fpva.plan","version":1,"array":` + arr2 + `}`},
		{"escaped key with case fold", `{"FOR\u004dAT":"fpva.plan","version":1,"array":` + arr2 + `}`},
		{"unknown keys", head + `,"extra":{"a":[1,{"b":null}],"c":"d"},"more":[true,false,-1.5e3]}`},
		{"key with invalid utf-8", head + ",\"form\xffat\":\"x\"}"},
		// null.
		{"null fields", head + `,"pathVectors":null,"leakPairs":null,"stats":null,"uncoveredPath":null}`},
		{"null string keeps value", head + `,"format":null}`},
		{"null version keeps value", head + `,"version":null}`},
		{"null vector", head + `,"pathVectors":[null]}`},
		{"null in open list", head + `,"pathVectors":[` + vec("p", "flow-path", `[3,null]`) + `]}`},
		{"null leak pair", head + `,"leakPairs":[null]}`},
		{"null in leak pair", head + `,"leakPairs":[[null,3]]}`},
		{"null stats entries", head + `,"stats":{"nv":null,"t_ns":null}}`},
		// Duplicate keys.
		{"duplicate string", head + `,"array":` + arr3 + `}`},
		{"duplicate vectors merge", head + `,"pathVectors":[` + vec("p", "flow-path", `[1,2]`) + `],"pathVectors":[{"open":[3]}]}`},
		{"duplicate vectors grow", head + `,"pathVectors":[` + vec("p", "flow-path", `[1]`) + `],"pathVectors":[{"open":[3]},` + vec("q", "cut-set", `[2]`) + `]}`},
		{"duplicate vectors shrink", head + `,"pathVectors":[` + vec("p", "flow-path", `[1]`) + `,` + vec("q", "flow-path", `[2]`) + `],"pathVectors":[{}]}`},
		{"duplicate vectors reuse after shrink", head + `,"pathVectors":[` + vec("p", "flow-path", `[1]`) + `,` + vec("q", "cut-set", `[2]`) + `],"pathVectors":[{}],"pathVectors":[{},{}]}`},
		{"duplicate vectors reset by empty", head + `,"pathVectors":[` + vec("p", "flow-path", `[1]`) + `],"pathVectors":[],"pathVectors":[{}]}`},
		{"duplicate open reuses elements", head + `,"pathVectors":[{"name":"p","kind":"flow-path","open":[1,2,3],"open":[4],"open":[5,null]}]}`},
		{"duplicate open null then list", head + `,"pathVectors":[{"name":"p","kind":"flow-path","open":[1,2],"open":null,"open":[null]}]}`},
		{"duplicate open in a reused vector", head + `,"pathVectors":[` + vec("p", "flow-path", `[1,2,3]`) + `],"pathVectors":[{"open":[4,null]}]}`},
		{"duplicate leak pairs", head + `,"leakPairs":[[1,2],[3,4]],"leakPairs":[[null,5]]}`},
		{"duplicate leak pair short", head + `,"leakPairs":[[1,2]],"leakPairs":[[3]]}`},
		{"duplicate uncovered cleared", head + `,"uncoveredPath":[1,2],"uncoveredPath":[]}`},
		{"duplicate stats merge", head + `,"stats":{"nv":1,"np":2},"stats":{"np":3}}`},
		{"duplicate keys differ in case", head + `,"stats":{"n":1},"STATS":{"nv":2}}`},
		// leakPairs arity.
		{"leak pair empty", head + `,"leakPairs":[[]]}`},
		{"leak pair short", head + `,"leakPairs":[[1]]}`},
		{"leak pair long", head + `,"leakPairs":[[1,2,"x",{"y":[]},999]]}`},
		// Integers.
		{"negative zero", head + `,"stats":{"n":-0}}`},
		{"int64 extremes", head + `,"stats":{"tp_ns":9223372036854775807,"tc_ns":-9223372036854775808}}`},
		{"nineteen digits", head + `,"stats":{"n":1234567890123456789}}`},
		{"omitempty stats", head + `,"stats":{"path_ilp_non_optimal":1,"cut_ilp_non_optimal":2,"ilp_solves":3,"ilp_nodes":4,"solver_wall_ns":5}}`},
		// Strings.
		{"escapes in name", head + `,"pathVectors":[` + vec(`a\"\\\/\b\f\n\r\t\u0001z`, "flow-path", `[]`) + `]}`},
		{"html in name", head + `,"pathVectors":[` + vec(`<a&b>`, "flow-path", `[]`) + `]}`},
		{"line separators in name", head + `,"pathVectors":[` + vec("a\u2028b\\u2029c", "flow-path", `[]`) + `]}`},
		{"invalid utf-8 in name", head + `,"pathVectors":[` + vec("a\xffb\xed\xa0\x80c", "flow-path", `[]`) + `]}`},
		{"unpaired surrogates in name", head + `,"pathVectors":[` + vec(`\ud800x\udc00\ud83d`, "flow-path", `[]`) + `]}`},
		{"surrogate pair in name", head + `,"pathVectors":[` + vec(`\ud83d\ude00`+"\U0001f600", "flow-path", `[]`) + `]}`},
		{"high surrogate then escape", head + `,"pathVectors":[` + vec(`\ud83d\n`, "flow-path", `[]`) + `]}`},
		{"multibyte name", head + `,"pathVectors":[` + vec("p\u00e4th \u2713 \u8def\u5f84", "flow-path", `[]`) + `]}`},
		{"escaped kind", head + `,"pathVectors":[` + vec(`p`, `\u0066low-path`, `[]`) + `]}`},
		{"escaped array text", `{"format":"fpva.plan","version":1,"array":` + strings.ReplaceAll(arr2, `\n`, `\u000a`) + `}`},
	} {
		t.Run(tc.name, func(t *testing.T) { AssertPlanMatchesOracle(t, []byte(tc.in)) })
	}

	g := string(golden)
	// The last entry of the last open list, the last stats value, the
	// last vector's name and kind, a leak pair and the last open list.
	lastOpen := "54\n      ]\n    }\n  ],\n  \"leakPairs\""
	lastStat := "445022\n  }\n}"
	leak1 := `"leak1",` + "\n      \"kind\""
	pair := "[\n      37,\n      42\n    ]"
	stats := `"stats": {`
	leakPairs := g[strings.Index(g, `"leakPairs"`):strings.Index(g, stats)]
	open1 := g[strings.Index(g, `"leak1"`):]
	open1 = open1[strings.Index(open1, `"open"`) : strings.Index(open1, "]")+1]
	for _, tc := range []struct {
		name, old, new string
		reads          bool // parseWire reads the result
	}{
		{"open leading zero", lastOpen, "0" + lastOpen, false},
		{"open minus", lastOpen, "-" + lastOpen, false},
		{"open fraction", lastOpen, "54.0" + lastOpen[2:], false},
		{"open exponent", lastOpen, "54e0" + lastOpen[2:], false},
		{"open 19 digits", lastOpen, "10000000000000000" + lastOpen, false},
		{"open 18 digits", lastOpen, "1000000000000000" + lastOpen, true},
		{"stats leading zero", lastStat, "0" + lastStat, false},
		{"stats minus", lastStat, "-" + lastStat, false},
		{"stats fraction", lastStat, "445022.0" + lastStat[6:], false},
		{"stats exponent", lastStat, "445022e0" + lastStat[6:], false},
		{"stats 19 digits", lastStat, "1000000000000" + lastStat, false},
		{"stats 18 digits", lastStat, "100000000000" + lastStat, true},
		{"name unicode escape", leak1, `"leak\u0031"` + leak1[7:], false},
		{"name escaped solidus", leak1, `"leak\/1"` + leak1[7:], false},
		{"name tab escape", leak1, `"leak\t1"` + leak1[7:], false},
		{"name non-ASCII", leak1, "\"le\u00e4k1\"" + leak1[7:], false},
		{"name quote and backslash escapes", leak1, `"le\"a\\k1"` + leak1[7:], true},
		{"leakPairs empty", leakPairs, `"leakPairs": [],` + "\n  ", true},
		{"leak pair of 1", pair, "[\n      37\n    ]", false},
		{"leak pair of 3", pair, "[\n      37,\n      42,\n      43\n    ]", false},
		{"uncoveredPath empty", stats, `"uncoveredPath": [],` + "\n  " + stats, true},
		{"uncoveredCut", stats, `"uncoveredCut": [` + "\n    3\n  ],\n  " + stats, true},
		{"omitempty stat as 0", lastStat, "445022,\n    \"ilp_solves\": 0" + lastStat[6:], true},
		{"omitempty stats swapped", lastStat, "445022,\n    \"ilp_nodes\": 5,\n    \"ilp_solves\": 3" + lastStat[6:], false},
		{"required key in another case", leak1, `"leak1",` + "\n      \"Kind\"", false},
		{"null list", open1, `"open": null`, false},
		// parseWire has read every vector when it stops, so the fallback
		// must decode into a fresh envelope.
		{"unknown stats member", lastStat, "445022,\n    \"extra\": 1" + lastStat[6:], false},
	} {
		t.Run("golden "+tc.name, func(t *testing.T) {
			if strings.Count(g, tc.old) != 1 {
				t.Fatalf("%q is not once in the golden plan", tc.old)
			}
			in := []byte(strings.Replace(g, tc.old, tc.new, 1))
			var env planEnvelope
			if _, ok := parseWire(in, &env); ok != tc.reads {
				t.Errorf("parseWire reads it: %t, want %t", ok, tc.reads)
			}
			AssertPlanMatchesOracle(t, in)
		})
	}
}

// TestParseWireReadsEncoderLayouts: every layout the encoder writes takes
// parseWire, not the encoding/json fallback: indented (EncodePlan),
// compact (MarshalJSON) and json.Compact of the indented bytes, for every
// Table I plan and baseline, the golden file, an ILP-engine plan (the
// ilp_* stats), the 30x30 plan (uncoveredCut) and a plan with every
// omitempty member. A reader that always fell back would pass every
// identity test and lose the speed. The 20x20 and 30x30 baselines, 7.5
// and 40 MB indented, are the smaller baselines' layout at scale; checking
// them against the reference would take minutes under -race.
func TestParseWireReadsEncoderLayouts(t *testing.T) {
	ctx := context.Background()
	golden, err := os.ReadFile(filepath.Join("testdata", "plan_v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	goldenPlan, err := decodePlan(golden)
	if err != nil {
		t.Fatal(err)
	}
	plans := map[string]*Plan{"golden": goldenPlan}
	for _, name := range BenchmarkNames() {
		a, err := BenchmarkArray(name)
		if err != nil {
			t.Fatal(err)
		}
		if plans[name], err = Generate(ctx, a); err != nil {
			t.Fatal(err)
		}
		if name == "20x20" || name == "30x30" {
			continue
		}
		if plans[name+" baseline"], err = BaselinePlan(a); err != nil {
			t.Fatal(err)
		}
	}
	a, err := NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plans["4x4 ILP"], err = Generate(ctx, a, WithPathEngine(PathEngineILPIterative), WithCutEngine(CutEngineILP)); err != nil {
		t.Fatal(err)
	}
	if plans["4x4 ILP"].ts.Stats.ILPSolves == 0 || len(plans["30x30"].ts.UncoveredCut) == 0 {
		t.Fatal("no plan carries the ilp_* stats or uncoveredCut")
	}
	ts := *goldenPlan.ts
	ts.UncoveredPath, ts.UncoveredCut = []grid.ValveID{1}, []grid.ValveID{2, 3}
	ts.Stats.PathILPNonOptimal, ts.Stats.CutILPNonOptimal = 1, 2
	ts.Stats.ILPSolves, ts.Stats.ILPNodes, ts.Stats.SolverWall = 3, 4, 5
	plans["every omitempty member"] = &Plan{a: goldenPlan.a, ts: &ts}

	// Every string these plans hold takes the string writer's copy path,
	// which allocates nothing here; json.Marshal, the other path, always
	// allocates.
	if !raceEnabled {
		w := wireWriter{b: make([]byte, 0, 1<<16)}
		for name, p := range plans {
			strs := []string{PlanFormat, grid.Marshal(p.a.g)}
			for _, vecs := range [][]*sim.Vector{p.ts.PathVectors, p.ts.CutVectors, p.ts.LeakVectors} {
				for _, v := range vecs {
					strs = append(strs, v.Name, v.Kind.String())
				}
			}
			for _, s := range strs {
				if n := testing.AllocsPerRun(1, func() { w.b = w.b[:0]; w.string(s) }); n != 0 {
					t.Errorf("%s: writing %q allocated %v times, want the copy path", name, s, n)
				}
			}
		}
	}

	inputs := map[string][]byte{"golden file": golden}
	for name, p := range plans {
		var recompacted bytes.Buffer
		if err := json.Compact(&recompacted, encodePlan(p, true)); err != nil {
			t.Fatal(err)
		}
		inputs[name+" indented"] = encodePlan(p, true)
		inputs[name+" compact"] = encodePlan(p, false)
		inputs[name+" json.Compact"] = recompacted.Bytes()
	}
	for name, data := range inputs {
		t.Run(name, func(t *testing.T) {
			var env planEnvelope
			end := bytes.LastIndexByte(data, '}') + 1
			if n, ok := parseWire(data, &env); !ok || n != end {
				t.Errorf("parseWire = %d, %t; want %d, true", n, ok, end)
			}
			AssertPlanMatchesOracle(t, data)
		})
	}
}

// TestPlanCodecConcurrent: encoders share recycled scratch buffers, so
// concurrent encodes and decodes of different plans must each get bytes
// of their own that no later encode overwrites.
func TestPlanCodecConcurrent(t *testing.T) {
	var plans []*Plan
	var wants [][]byte
	for _, name := range []string{"5x5", "10x10"} {
		a, err := BenchmarkArray(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Generate(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := oracleEncodePlan(&buf, p); err != nil {
			t.Fatal(err)
		}
		plans, wants = append(plans, p), append(wants, buf.Bytes())
	}
	kept := [][]byte{encodePlan(plans[0], true), encodePlan(plans[1], true)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % 2
				var buf bytes.Buffer
				if err := EncodePlan(&buf, plans[k]); err != nil {
					t.Error(err)
					return
				}
				q, err := decodePlan(buf.Bytes())
				if err != nil {
					t.Error(err)
					return
				}
				if got := encodePlan(q, true); !bytes.Equal(got, wants[k]) || !bytes.Equal(buf.Bytes(), wants[k]) {
					t.Error("a concurrent encode produced different bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := range kept {
		if !bytes.Equal(kept[k], wants[k]) {
			t.Error("later encodes overwrote an earlier encodePlan result")
		}
	}
}

// TestPlanFieldNamesMatchTags pins the decoder's key tables to the json
// tags of the envelope structs, the schema they mirror.
func TestPlanFieldNamesMatchTags(t *testing.T) {
	for _, tc := range []struct {
		v      any
		fields []string
	}{
		{planEnvelope{}, planFields},
		{vectorJSON{}, vectorFields},
		{statsJSON{}, statsFields},
	} {
		typ := reflect.TypeOf(tc.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			tags = append(tags, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !reflect.DeepEqual(tags, tc.fields) {
			t.Errorf("%s: decoder keys %q, json tags %q", typ.Name(), tc.fields, tags)
		}
	}
}
