package fpva_test

import (
	"context"
	"strings"
	"testing"

	"repro/fpva"
)

func mustArray(t *testing.T, rows, cols int, opts ...fpva.ArrayOption) *fpva.Array {
	t.Helper()
	a, err := fpva.NewArray(rows, cols, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mustGenerate(t *testing.T, a *fpva.Array, opts ...fpva.GenOption) *fpva.Plan {
	t.Helper()
	p, err := fpva.Generate(context.Background(), a, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewArrayDefaults(t *testing.T) {
	a := mustArray(t, 4, 6)
	if a.Rows() != 4 || a.Cols() != 6 {
		t.Errorf("dims %dx%d", a.Rows(), a.Cols())
	}
	// Full 4x6: 4*5 interior H + 3*6 interior V = 38 normal valves.
	if got := a.NumValves(); got != 38 {
		t.Errorf("nv=%d, want 38", got)
	}
	if got := a.BaselineCount(); got != 76 {
		t.Errorf("baseline=%d, want 76", got)
	}
	if len(a.Valves()) != a.NumValves() {
		t.Error("Valves() length disagrees with NumValves()")
	}
}

func TestNewArrayOptions(t *testing.T) {
	a := mustArray(t, 5, 5,
		fpva.WithChannelH(2, 1, 2),
		fpva.WithObstacle(0, 2),
		fpva.WithSource("in", fpva.H(0, 0)),
		fpva.WithSink("out", fpva.H(4, 5)),
	)
	// 40 full - 1 channel edge - 3 obstacle walls (the fourth incident edge
	// of cell (0,2) is already a boundary wall) = 36.
	if got := a.NumValves(); got != 36 {
		t.Errorf("nv=%d, want 36", got)
	}
}

func TestNewArrayErrors(t *testing.T) {
	if _, err := fpva.NewArray(0, 3); err == nil {
		t.Error("0 rows accepted")
	}
	if _, err := fpva.NewArray(3, 3, fpva.WithObstacle(9, 9)); err == nil {
		t.Error("out-of-range obstacle accepted")
	}
	if _, err := fpva.NewArray(3, 3, fpva.WithSource("s", fpva.H(1, 1))); err == nil {
		t.Error("interior source accepted")
	}
	if _, err := fpva.NewArray(3, 3, fpva.WithSource("s", fpva.H(0, 0))); err == nil {
		t.Error("source-only array accepted (no sink)")
	}
}

func TestGenerateAndVerify(t *testing.T) {
	a := mustArray(t, 5, 5)
	var events []fpva.Event
	p := mustGenerate(t, a, fpva.WithProgress(func(e fpva.Event) { events = append(events, e) }))
	s := p.Stats()
	if s.NV != a.NumValves() || s.N != s.NP+s.NC+s.NL || s.N == 0 {
		t.Errorf("stats inconsistent: %+v", s)
	}
	if p.NumVectors() != s.N {
		t.Errorf("NumVectors=%d, stats N=%d", p.NumVectors(), s.N)
	}
	// Progress saw all three phases start and finish, in order.
	wantPhases := []fpva.Phase{fpva.PhaseFlowPaths, fpva.PhaseCutSets, fpva.PhaseLeakage}
	if len(events) != 6 {
		t.Fatalf("got %d progress events, want 6: %v", len(events), events)
	}
	for i, ph := range wantPhases {
		if events[2*i].Kind != fpva.PhaseStarted || events[2*i].Phase != ph {
			t.Errorf("event %d = %v, want %v started", 2*i, events[2*i], ph)
		}
		if events[2*i+1].Kind != fpva.PhaseFinished || events[2*i+1].Phase != ph {
			t.Errorf("event %d = %v, want %v finished", 2*i+1, events[2*i+1], ph)
		}
	}
	escapes, err := p.VerifySingleFaults(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(escapes) != 0 {
		t.Errorf("single-fault escapes: %v", escapes)
	}
	pairs, err := p.VerifyDoubleFaults(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Errorf("double-fault escapes: %v", pairs)
	}
}

func TestCampaignDeterministicAndTicks(t *testing.T) {
	a := mustArray(t, 5, 5)
	p := mustGenerate(t, a)
	var ticks []fpva.Event
	run := func(workers int) fpva.CampaignResult {
		res, err := p.Campaign(context.Background(),
			fpva.WithTrials(500), fpva.WithNumFaults(3), fpva.WithSeed(7),
			fpva.WithCampaignWorkers(workers),
			fpva.WithCampaignProgress(func(e fpva.Event) { ticks = append(ticks, e) }))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(8)
	if seq.Detected != par.Detected || seq.Trials != par.Trials {
		t.Errorf("worker counts disagree: %+v vs %+v", seq, par)
	}
	if seq.Trials != 500 {
		t.Errorf("trials=%d", seq.Trials)
	}
	if len(ticks) == 0 {
		t.Fatal("no campaign ticks observed")
	}
	last := 0
	for _, e := range ticks {
		if e.Kind != fpva.CampaignTick || e.TrialsTotal != 500 {
			t.Fatalf("unexpected tick %v", e)
		}
		if e.TrialsDone <= last && e.TrialsDone != 500 {
			// Counts are strictly increasing within one campaign; the
			// second run restarts at a smaller value, which is fine.
			if e.TrialsDone > 500 {
				t.Fatalf("tick overshoots: %v", e)
			}
		}
		last = e.TrialsDone
	}
}

func TestCampaignMaxEscapes(t *testing.T) {
	// The baseline set on a benchmark array misses plenty of multi-fault
	// combinations, so escapes are plentiful; the cap must hold.
	a, err := fpva.BenchmarkArray("5x5")
	if err != nil {
		t.Fatal(err)
	}
	p, err := fpva.BaselinePlan(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Campaign(context.Background(),
		fpva.WithTrials(2000), fpva.WithNumFaults(5), fpva.WithSeed(3),
		fpva.WithMaxEscapes(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected == res.Trials {
		t.Skip("baseline detected everything; escapes not exercised")
	}
	if len(res.Escapes) > 2 {
		t.Errorf("escape cap ignored: %d escapes", len(res.Escapes))
	}
}

func TestMixerAndSimulator(t *testing.T) {
	a := mustArray(t, 8, 8)
	ring, seal, err := a.MixerValves(fpva.MixerSpec{R: 1, C: 1, Height: 4, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ring) == 0 || len(seal) == 0 {
		t.Fatalf("mixer ring=%d seal=%d", len(ring), len(seal))
	}
	vec := a.NewVector("mixer")
	for _, e := range ring {
		if err := vec.SetOpen(e, true); err != nil {
			t.Fatal(err)
		}
	}
	s, err := a.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Readings(vec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] {
		t.Errorf("sealed mixer loop leaks to the meter: %v", got)
	}
}

func TestPlanDetects(t *testing.T) {
	a := mustArray(t, 5, 5)
	p := mustGenerate(t, a)
	det, err := p.Detects([]fpva.Fault{{Kind: fpva.StuckAt1, A: fpva.V(1, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if !det {
		t.Error("stuck-at-1 on an interior valve not detected")
	}
	if _, err := p.Detects([]fpva.Fault{{Kind: fpva.StuckAt0, A: fpva.H(99, 99)}}); err == nil {
		t.Error("out-of-range fault accepted")
	}
}

func TestBenchmarksAndTable1Shape(t *testing.T) {
	names := fpva.BenchmarkNames()
	if len(names) != 5 || names[0] != "5x5" {
		t.Fatalf("benchmark names: %v", names)
	}
	cases := fpva.BenchmarkCases()
	for i, c := range cases {
		if c.Name != names[i] {
			t.Errorf("case %d name %q vs %q", i, c.Name, names[i])
		}
		a, err := fpva.BenchmarkArray(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumValves() != c.PaperNV {
			t.Errorf("%s: nv=%d, paper %d", c.Name, a.NumValves(), c.PaperNV)
		}
	}
	if _, err := fpva.BenchmarkArray("9x9"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRenderOnGeneratedPlan(t *testing.T) {
	a := mustArray(t, 4, 4)
	p := mustGenerate(t, a)
	out, err := p.RenderPaths()
	if err != nil || !strings.Contains(out, "+") {
		t.Errorf("RenderPaths: %v, %q", err, out)
	}
	if p.NumCuts() == 0 {
		t.Fatal("no cuts")
	}
	if _, err := p.RenderCut(0); err != nil {
		t.Errorf("RenderCut: %v", err)
	}
	if len(p.Cut(0)) == 0 {
		t.Error("cut 0 has no members")
	}
	if !strings.Contains(a.Render(), "+") || fpva.RenderLegend() == "" {
		t.Error("array render or legend empty")
	}
}

func TestTextRoundTrip(t *testing.T) {
	a, err := fpva.BenchmarkArray("20x20")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fpva.ParseArrayText(strings.NewReader(a.Text()))
	if err != nil {
		t.Fatal(err)
	}
	if a.Text() != b.Text() {
		t.Error("text format does not round-trip")
	}
}
