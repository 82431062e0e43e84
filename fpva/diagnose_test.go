package fpva_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/fpva"
)

// diagnosePlan generates the 3x3 plan shared by the diagnosis tests.
func diagnosePlan(t *testing.T) (*fpva.Array, *fpva.Plan) {
	t.Helper()
	a, err := fpva.NewArray(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fpva.Generate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	return a, plan
}

// planVectors materializes the plan's vectors as applicable Vector values,
// so a test can play the technician and measure readings under a hidden
// fault.
func planVectors(t *testing.T, a *fpva.Array, plan *fpva.Plan) []*fpva.Vector {
	t.Helper()
	infos := plan.Vectors()
	out := make([]*fpva.Vector, len(infos))
	for i, vi := range infos {
		v := a.NewVector(vi.Name)
		for _, e := range vi.Open {
			if err := v.SetOpen(e, true); err != nil {
				t.Fatal(err)
			}
		}
		out[i] = v
	}
	return out
}

// containsFaultSet reports whether the ambiguity set includes the given
// candidate fault set.
func containsFaultSet(amb [][]fpva.Fault, want []fpva.Fault) bool {
	for _, fs := range amb {
		if reflect.DeepEqual(fs, want) {
			return true
		}
	}
	return false
}

// TestDiagnoseFaultFree: with no observations, the diagnosis describes the
// whole candidate universe (fault-free alive) and suggests a probe plan;
// after observing golden readings on every suggested probe, the chip is
// diagnosed healthy-or-indistinguishable.
func TestDiagnoseFaultFree(t *testing.T) {
	a, plan := diagnosePlan(t)
	d, err := plan.Diagnose(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Consistent || !d.FaultFree {
		t.Fatalf("empty observations: Consistent=%t FaultFree=%t, want true/true", d.Consistent, d.FaultFree)
	}
	if len(d.Probes) == 0 {
		t.Fatal("no probes suggested for the unconstrained universe")
	}
	if len(d.Ambiguity) < 2*a.NumValves()+1 {
		t.Fatalf("universe has %d candidates, want at least %d", len(d.Ambiguity), 2*a.NumValves()+1)
	}

	// Answer every suggested probe with golden (fault-free) readings.
	sim, err := a.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	vecs := planVectors(t, a, plan)
	var obs []fpva.Observation
	for _, p := range d.Probes {
		r, err := sim.Readings(vecs[p.Vector], nil)
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, fpva.Observation{Vector: p.Vector, Readings: r})
	}
	d2, err := plan.Diagnose(context.Background(), obs)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Isolated || !d2.FaultFree || !d2.Consistent {
		t.Fatalf("after golden probes: Isolated=%t FaultFree=%t Consistent=%t", d2.Isolated, d2.FaultFree, d2.Consistent)
	}
	if len(d2.Rounds) != len(obs) {
		t.Fatalf("%d rounds recorded for %d observations", len(d2.Rounds), len(obs))
	}
	if !containsFaultSet(d2.Ambiguity, []fpva.Fault{}) {
		t.Fatalf("fault-free candidate missing from %v", d2.Ambiguity)
	}
}

// TestUnmarshalResetsSignatureMemo: decoding a plan into a Plan that has
// already diagnosed must not keep the signature table compiled for the
// vectors it held before; the second diagnosis has to match a fresh
// decode of the new plan.
func TestUnmarshalResetsSignatureMemo(t *testing.T) {
	ctx := context.Background()
	wire := func(name string) []byte {
		a, err := fpva.BenchmarkArray(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := fpva.Generate(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	small, big := wire("5x5"), wire("10x10")
	var fresh fpva.Plan
	if err := json.Unmarshal(big, &fresh); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Diagnose(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	var reused fpva.Plan
	if err := json.Unmarshal(small, &reused); err != nil {
		t.Fatal(err)
	}
	if _, err := reused.Diagnose(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(big, &reused); err != nil {
		t.Fatal(err)
	}
	got, err := reused.Diagnose(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ambiguity) != len(want.Ambiguity) || len(got.Probes) != len(want.Probes) {
		t.Fatalf("after re-decoding: %d candidates and %d probes, want %d and %d",
			len(got.Ambiguity), len(got.Probes), len(want.Ambiguity), len(want.Probes))
	}
	var gotBytes, wantBytes bytes.Buffer
	if err := fpva.EncodeDiagnosis(&gotBytes, got); err != nil {
		t.Fatal(err)
	}
	if err := fpva.EncodeDiagnosis(&wantBytes, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
		t.Fatal("after re-decoding, the diagnosis differs from a fresh decode's")
	}

	// The vectors compiled for the old content go with the signature
	// table: campaigns, verification and Detects on the reused plan match
	// a fresh decode too.
	opts := []fpva.CampaignOption{fpva.WithTrials(2000), fpva.WithNumFaults(3), fpva.WithSeed(5)}
	gotCamp, err := reused.Campaign(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	wantCamp, err := fresh.Campaign(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCamp, wantCamp) {
		t.Errorf("after re-decoding, campaign %+v, fresh decode %+v", gotCamp, wantCamp)
	}
	gotEsc, err := reused.VerifySingleFaults(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantEsc, err := fresh.VerifySingleFaults(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotEsc, wantEsc) {
		t.Errorf("after re-decoding, single-fault escapes %v, fresh decode %v", gotEsc, wantEsc)
	}
	for _, e := range fresh.Array().Valves()[:8] {
		fs := []fpva.Fault{{Kind: fpva.StuckAt1, A: e}, {Kind: fpva.StuckAt0, A: fresh.Array().Valves()[20]}}
		got, err := reused.Detects(fs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Detects(fs)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("after re-decoding, Detects(%v) = %t, fresh decode %t", fs, got, want)
		}
	}
}

// TestSubmitDiagnoseSinkOrder: the wire text does not carry port
// attachment order, and decoding re-attaches ports in scan order, so a
// plan and its decoded copy can read their sinks in different orders. The
// service must not serve one copy's signature table to the other: every
// single stuck-at fault, read on every vector with each copy's own
// simulator, diagnoses consistently through the service, exactly as
// Plan.Diagnose on that copy does.
func TestSubmitDiagnoseSinkOrder(t *testing.T) {
	ctx := context.Background()
	a, err := fpva.NewArray(4, 4,
		fpva.WithSource("in", fpva.H(0, 0)),
		fpva.WithSink("far", fpva.H(3, 4)),
		fpva.WithSink("near", fpva.H(0, 4)))
	if err != nil {
		t.Fatal(err)
	}
	// A service of its own: the default one caches plans by array text,
	// which does not carry port order either.
	gen := fpva.NewService()
	defer gen.Close()
	j, err := gen.SubmitGenerate(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	plan, err := j.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := fpva.EncodePlan(&wire, plan); err != nil {
		t.Fatal(err)
	}
	decoded, err := fpva.DecodePlan(&wire)
	if err != nil {
		t.Fatal(err)
	}
	svc := fpva.NewService()
	defer svc.Close()
	for _, kind := range []fpva.FaultKind{fpva.StuckAt0, fpva.StuckAt1} {
		for _, e := range a.Valves() {
			hidden := []fpva.Fault{{Kind: kind, A: e}}
			for _, p := range []*fpva.Plan{plan, decoded} {
				obs := readAll(t, p, hidden)
				job, err := svc.SubmitDiagnose(ctx, p, obs)
				if err != nil {
					t.Fatal(err)
				}
				if err := job.Wait(ctx); err != nil {
					t.Fatal(err)
				}
				got, err := job.Diagnosis()
				if err != nil {
					t.Fatal(err)
				}
				if !got.Consistent || !containsFaultSet(got.Ambiguity, hidden) {
					t.Fatalf("hidden %v: service diagnosis Consistent=%t, fault kept=%t",
						hidden, got.Consistent, containsFaultSet(got.Ambiguity, hidden))
				}
				want, err := p.Diagnose(ctx, obs)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("hidden %v: service and Plan.Diagnose disagree", hidden)
				}
			}
		}
	}
}

// readAll plays the technician on every plan vector: the readings the
// plan's own array gives under the hidden faults.
func readAll(t *testing.T, p *fpva.Plan, hidden []fpva.Fault) []fpva.Observation {
	t.Helper()
	sim, err := p.Array().NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	var obs []fpva.Observation
	for i, v := range planVectors(t, p.Array(), p) {
		r, err := sim.Readings(v, hidden)
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, fpva.Observation{Vector: i, Readings: r})
	}
	return obs
}

// TestDiagnoseSessionClosedLoop drives the interactive loop for every
// stuck-at single fault on the array: the session must isolate the true
// fault (up to signature equivalence) within the plan's vector budget.
func TestDiagnoseSessionClosedLoop(t *testing.T) {
	a, plan := diagnosePlan(t)
	sim, err := a.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	vecs := planVectors(t, a, plan)
	for _, kind := range []fpva.FaultKind{fpva.StuckAt0, fpva.StuckAt1} {
		for _, e := range a.Valves() {
			hidden := []fpva.Fault{{Kind: kind, A: e}}
			sess, err := plan.NewDiagnoseSession(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			probes := 0
			for {
				v := sess.NextProbe()
				if v < 0 {
					break
				}
				r, err := sim.Readings(vecs[v], hidden)
				if err != nil {
					t.Fatal(err)
				}
				if err := sess.Observe(fpva.Observation{Vector: v, Readings: r}); err != nil {
					t.Fatal(err)
				}
				if probes++; probes > len(vecs) {
					t.Fatalf("hidden %v: more probes than plan vectors", hidden)
				}
			}
			if !sess.Done() {
				t.Fatalf("hidden %v: session stopped but not done", hidden)
			}
			d, err := sess.Diagnosis(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !d.Consistent || !d.Isolated {
				t.Fatalf("hidden %v: Consistent=%t Isolated=%t", hidden, d.Consistent, d.Isolated)
			}
			if !containsFaultSet(d.Ambiguity, hidden) {
				t.Fatalf("hidden %v eliminated; ambiguity %v", hidden, d.Ambiguity)
			}
			if len(d.Classes) != 1 {
				t.Fatalf("hidden %v: isolated diagnosis has %d classes", hidden, len(d.Classes))
			}
		}
	}
}

// TestDiagnoseOptionValidation pins the synchronous error surface.
func TestDiagnoseOptionValidation(t *testing.T) {
	_, plan := diagnosePlan(t)
	if _, err := plan.Diagnose(context.Background(),
		[]fpva.Observation{{Vector: 9999}}); err == nil {
		t.Error("out-of-range observation vector accepted")
	}
}

// TestSubmitDiagnose covers the job vertical: events, result, signature
// cache reuse, and the per-kind service stats.
func TestSubmitDiagnose(t *testing.T) {
	a, plan := diagnosePlan(t)
	sim, err := a.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	vecs := planVectors(t, a, plan)
	r0, err := sim.Readings(vecs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	obs := []fpva.Observation{{Vector: 0, Readings: r0}}

	svc := fpva.NewService()
	defer svc.Close()
	run := func() *fpva.Job {
		t.Helper()
		job, err := svc.SubmitDiagnose(context.Background(), plan, obs)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return job
	}
	j1 := run()
	if j1.Kind() != fpva.JobDiagnose || j1.Kind().String() != "diagnose" {
		t.Fatalf("job kind %v", j1.Kind())
	}
	d, err := j1.Diagnosis()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Consistent || !d.FaultFree || len(d.Rounds) != 1 {
		t.Fatalf("diagnosis %+v", d)
	}
	var ticks int
	for _, e := range j1.Events() {
		if e.Kind == fpva.DiagnoseTick {
			ticks++
			if e.Round != 1 || e.Ambiguity != d.Rounds[0].After {
				t.Fatalf("tick %+v does not match round %+v", e, d.Rounds[0])
			}
		}
	}
	if ticks != 1 {
		t.Fatalf("%d diagnose ticks, want 1", ticks)
	}
	if j1.CacheHit() {
		t.Error("first diagnose reports a signature-cache hit")
	}
	j2 := run()
	if !j2.CacheHit() {
		t.Error("second identical diagnose did not reuse the signature table")
	}
	d2, err := j2.Diagnosis()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, d2) {
		t.Error("cached signature table changed the diagnosis")
	}
	// Wrong-kind accessors keep their contract.
	if _, err := j1.Campaign(); !errors.Is(err, fpva.ErrWrongJobKind) {
		t.Errorf("Campaign on diagnose job: %v", err)
	}

	st := svc.Stats()
	if st.Diagnoses != 2 || st.SigCacheMisses != 1 || st.SigCacheHits != 1 {
		t.Errorf("stats: Diagnoses=%d SigCacheMisses=%d SigCacheHits=%d",
			st.Diagnoses, st.SigCacheMisses, st.SigCacheHits)
	}
	if st.CompileMisses != 1 || st.CompileHits != 1 {
		t.Errorf("stats: CompileMisses=%d CompileHits=%d, want 1 and 1", st.CompileMisses, st.CompileHits)
	}
	ks, ok := st.Kinds["diagnose"]
	if !ok || ks.Submitted != 2 || ks.Done != 2 || ks.Failed != 0 || ks.Canceled != 0 {
		t.Errorf("per-kind stats: %+v (present=%t)", ks, ok)
	}
}

// TestDiagnosisJSONRoundTrip: encode -> decode -> encode is a fixed point
// and preserves every field.
func TestDiagnosisJSONRoundTrip(t *testing.T) {
	a, plan := diagnosePlan(t)
	sim, err := a.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	vecs := planVectors(t, a, plan)
	hidden := []fpva.Fault{{Kind: fpva.StuckAt1, A: a.Valves()[0]}}
	r0, err := sim.Readings(vecs[0], hidden)
	if err != nil {
		t.Fatal(err)
	}
	d, err := plan.Diagnose(context.Background(),
		[]fpva.Observation{{Vector: 0, Readings: r0}},
		fpva.WithDoubleFaultCandidates(5))
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := fpva.EncodeDiagnosis(&first, d); err != nil {
		t.Fatal(err)
	}
	got, err := fpva.DecodeDiagnosis(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Consistent != d.Consistent || got.FaultFree != d.FaultFree || got.Isolated != d.Isolated {
		t.Fatal("flags changed over the wire")
	}
	if !reflect.DeepEqual(got.Ambiguity, d.Ambiguity) || !reflect.DeepEqual(got.Classes, d.Classes) ||
		!reflect.DeepEqual(got.Probes, d.Probes) || !reflect.DeepEqual(got.Rounds, d.Rounds) {
		t.Fatal("diagnosis content changed over the wire")
	}
	if got.Array().Text() != a.Text() {
		t.Fatal("array changed over the wire")
	}
	var second bytes.Buffer
	if err := fpva.EncodeDiagnosis(&second, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("diagnosis encoding is not a fixed point after one round trip")
	}
}

// TestGoldenDiagnosis decodes the committed diagnosis file: the v1 format
// on disk must keep decoding exactly as it does today.
func TestGoldenDiagnosis(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "diagnosis_v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := fpva.DecodeDiagnosis(f)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Consistent || !d.FaultFree {
		t.Fatalf("golden diagnosis: Consistent=%t FaultFree=%t", d.Consistent, d.FaultFree)
	}
	if len(d.Ambiguity) == 0 || len(d.Probes) == 0 || len(d.Rounds) != 1 {
		t.Fatalf("golden diagnosis shape: %d candidates, %d probes, %d rounds",
			len(d.Ambiguity), len(d.Probes), len(d.Rounds))
	}
	// The fault-free candidate is the empty set by convention.
	if !containsFaultSet(d.Ambiguity, []fpva.Fault{}) {
		t.Fatal("golden diagnosis lost the fault-free candidate")
	}
}

// TestDecodeDiagnosisEmptyListsAreNil: the golden diagnosis with its
// probe and round lists empty, or absent, decodes to nil Probes and
// Rounds, not to empty slices.
func TestDecodeDiagnosisEmptyListsAreNil(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "diagnosis_v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, empty := range []bool{true, false} {
		var env map[string]json.RawMessage
		if err := json.Unmarshal(golden, &env); err != nil {
			t.Fatal(err)
		}
		delete(env, "probes")
		delete(env, "rounds")
		if empty {
			env["probes"] = json.RawMessage(`[]`)
			env["rounds"] = json.RawMessage(`[]`)
		}
		in, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		d, err := fpva.DecodeDiagnosis(bytes.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if d.Probes != nil || d.Rounds != nil {
			t.Errorf("empty=%t: Probes = %#v, Rounds = %#v, want nil", empty, d.Probes, d.Rounds)
		}
		if len(d.Ambiguity) == 0 {
			t.Errorf("empty=%t: the ambiguity set was lost", empty)
		}
	}
}

// TestDiagnosisCodecErrors pins the sentinel classification of
// diagnosis-specific payload failures.
func TestDiagnosisCodecErrors(t *testing.T) {
	a, err := fpva.NewArray(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	arrText, err := json.Marshal(a.Text())
	if err != nil {
		t.Fatal(err)
	}
	head := `{"format":"fpva.diagnosis","version":1,"array":` + string(arrText)
	golden, err := os.ReadFile(filepath.Join("testdata", "diagnosis_v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		in   string
		want error
	}{
		{"empty", ``, fpva.ErrWireSyntax},
		{"truncated", `{"format":"fpva.diag`, fpva.ErrWireSyntax},
		{"wrong format", `{"format":"fpva.plan","version":1}`, fpva.ErrWireFormat},
		{"future version", `{"format":"fpva.diagnosis","version":99}`, fpva.ErrWireVersion},
		{"bad array", `{"format":"fpva.diagnosis","version":1,"array":"bogus"}`, fpva.ErrWirePayload},
		{"unknown fault kind", head + `,"ambiguity":[[{"kind":"mystery","a":0}]]}`, fpva.ErrWirePayload},
		{"fault valve out of range", head + `,"ambiguity":[[{"kind":"stuck-at-0","a":999}]]}`, fpva.ErrWirePayload},
		{"leak missing b", head + `,"ambiguity":[[{"kind":"control-leak","a":0}]]}`, fpva.ErrWirePayload},
		{"leak b out of range", head + `,"ambiguity":[[{"kind":"control-leak","a":0,"b":999}]]}`, fpva.ErrWirePayload},
		{"class member out of range", head + `,"ambiguity":[[]],"classes":[[1]]}`, fpva.ErrWirePayload},
		{"negative probe vector", head + `,"ambiguity":[[]],"probes":[{"vector":-1}]}`, fpva.ErrWirePayload},
		{"negative round vector", head + `,"ambiguity":[[]],"rounds":[{"vector":-2}]}`, fpva.ErrWirePayload},
		{"trailing garbage", string(golden) + `{"x":1}`, fpva.ErrWireSyntax},
	} {
		_, err := fpva.DecodeDiagnosis(strings.NewReader(tc.in))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}
