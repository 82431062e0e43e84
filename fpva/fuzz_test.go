package fpva_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/fpva"
)

// isWireError reports whether err wraps one of the codec sentinels — the
// decoder contract: every failure is classified, never a panic or a bare
// json error.
func isWireError(err error) bool {
	return errors.Is(err, fpva.ErrWireSyntax) || errors.Is(err, fpva.ErrWireFormat) ||
		errors.Is(err, fpva.ErrWireVersion) || errors.Is(err, fpva.ErrWirePayload)
}

func goldenSeed(t interface{ Fatal(...any) }, name string) string {
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// FuzzDecodePlan: an arbitrary byte string either decodes to a plan whose
// re-encoding is stable, or fails with a classified wire error, and either
// way the codec agrees with the encoding/json reference: the same outcome,
// the same sentinel and the same re-encoded bytes.
func FuzzDecodePlan(f *testing.F) {
	f.Add(goldenSeed(f, "plan_v1.golden.json"))
	f.Add(`{"format":"fpva.plan","version":1,"array":"fpva 2 2\n","pathVectors":[],"cutVectors":[],"leakVectors":[],"stats":{}}`)
	f.Add(`{"format":"fpva.plan","version":1,"array":"fpva 2 2\n","pathVectors":[{"name":"p","kind":"flow-path","open":[999]}]}`)
	f.Add(`{"format":"fpva.plan","version":2}`)
	f.Add(`{"format":"fpva.array","version":1}`)
	f.Add(`{"format":"fpva.plan","version":1,"array":"garbage`)
	f.Add(`{"format":"fpva.plan","version":1,"array":"fpva 2 2\n"}{"trailing":true}`)
	f.Add(`{`)
	f.Add(``)
	f.Add(`null`)
	a, err := fpva.NewArray(2, 2)
	if err != nil {
		f.Fatal(err)
	}
	base, err := fpva.BaselinePlan(a)
	if err != nil {
		f.Fatal(err)
	}
	compact, err := json.Marshal(base)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(compact))
	// The same plan with every omitempty member present.
	full := strings.Replace(string(compact), `,"stats":{`, `,"leakPairs":[[1,2]],"uncoveredPath":[3],"uncoveredCut":[4],"stats":{`, 1)
	f.Add(strings.TrimSuffix(full, "}}") + `,"path_ilp_non_optimal":1,"cut_ilp_non_optimal":2,"ilp_solves":3,"ilp_nodes":4,"solver_wall_ns":5}}`)
	text, err := json.Marshal(a.Text())
	if err != nil {
		f.Fatal(err)
	}
	head := `{"format":"fpva.plan","version":1,"array":` + string(text)
	f.Add(head + `,"LEAKPAIRS":[[1],[2,3,4],null],"stats":{"n":-0,"t_ns":1e3}}`)
	f.Add(head + `,"pathVectors":[{"name":"<\u2028\ud800>","kind":"flow-path","open":[1,2,3],"open":[4,null]}],"pathVectors":[{}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		fpva.AssertPlanMatchesOracle(t, []byte(data))
		p, err := fpva.DecodePlan(strings.NewReader(data))
		if err != nil {
			if !isWireError(err) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := fpva.EncodePlan(&first, p); err != nil {
			t.Fatalf("re-encode of decoded plan: %v", err)
		}
		q, err := fpva.DecodePlan(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded plan: %v", err)
		}
		if err := fpva.EncodePlan(&second, q); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("plan encoding is not a fixed point after one round trip")
		}
	})
}

// FuzzDecodeDiagnosis: an arbitrary byte string either decodes to a
// diagnosis whose re-encoding is stable, or fails with a classified wire
// error.
func FuzzDecodeDiagnosis(f *testing.F) {
	f.Add(goldenSeed(f, "diagnosis_v1.golden.json"))
	f.Add(`{"format":"fpva.diagnosis","version":1,"array":"fpva 2 2\n","consistent":true,"faultFree":true,"isolated":true,"ambiguity":[[]]}`)
	f.Add(`{"format":"fpva.diagnosis","version":1,"array":"fpva 2 2\n","ambiguity":[[{"kind":"stuck-at-0","a":0}],[{"kind":"control-leak","a":0,"b":1}]],"classes":[[0],[1]]}`)
	f.Add(`{"format":"fpva.diagnosis","version":1,"array":"fpva 2 2\n","ambiguity":[[{"kind":"mystery","a":0}]]}`)
	f.Add(`{"format":"fpva.diagnosis","version":1,"array":"fpva 2 2\n","ambiguity":[[{"kind":"control-leak","a":0}]]}`)
	f.Add(`{"format":"fpva.diagnosis","version":1,"array":"fpva 2 2\n","ambiguity":[[]],"classes":[[7]]}`)
	f.Add(`{"format":"fpva.diagnosis","version":1,"array":"fpva 2 2\n","ambiguity":[[]],"probes":[{"vector":-1}]}`)
	f.Add(`{"format":"fpva.diagnosis","version":2}`)
	f.Add(`{"format":"fpva.plan","version":1}`)
	f.Add(`{"format":"fpva.diagnosis","version":1,"array":"garbage`)
	f.Add(`{`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, data string) {
		d, err := fpva.DecodeDiagnosis(strings.NewReader(data))
		if err != nil {
			if !isWireError(err) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := fpva.EncodeDiagnosis(&first, d); err != nil {
			t.Fatalf("re-encode of decoded diagnosis: %v", err)
		}
		q, err := fpva.DecodeDiagnosis(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded diagnosis: %v", err)
		}
		if err := fpva.EncodeDiagnosis(&second, q); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("diagnosis encoding is not a fixed point after one round trip")
		}
	})
}

// FuzzDecodeArray: same contract for the array envelope.
func FuzzDecodeArray(f *testing.F) {
	f.Add(goldenSeed(f, "array_v1.golden.json"))
	f.Add(`{"format":"fpva.array","version":1,"text":"fpva 2 2\n"}`)
	f.Add(`{"format":"fpva.array","version":7,"text":""}`)
	f.Add(`{"format":"nope","version":1,"text":""}`)
	f.Add(`{"format":"fpva.array","version":1,"text":"not an array"}`)
	f.Add(`[1,2`)
	f.Fuzz(func(t *testing.T, data string) {
		a, err := fpva.DecodeArray(strings.NewReader(data))
		if err != nil {
			if !isWireError(err) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := fpva.EncodeArray(&buf, a); err != nil {
			t.Fatalf("re-encode of decoded array: %v", err)
		}
		b, err := fpva.DecodeArray(&buf)
		if err != nil {
			t.Fatalf("decode of re-encoded array: %v", err)
		}
		if a.Text() != b.Text() {
			t.Fatal("array text changed over a round trip")
		}
	})
}
