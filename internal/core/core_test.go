package core

import (
	"context"
	"testing"

	"repro/internal/grid"
	"repro/internal/sim"
)

func gen(t *testing.T, a *grid.Array, cfg Config) *TestSet {
	t.Helper()
	ts, err := Generate(context.Background(), a, cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ts
}

func TestGenerateStats(t *testing.T) {
	a := grid.MustNewStandard(5, 5)
	ts := gen(t, a, Config{})
	if ts.Stats.NV != 40 {
		t.Errorf("NV=%d, want 40", ts.Stats.NV)
	}
	if ts.Stats.NP == 0 || ts.Stats.NC == 0 {
		t.Errorf("empty family: %+v", ts.Stats)
	}
	if ts.Stats.N != ts.Stats.NP+ts.Stats.NC+ts.Stats.NL {
		t.Errorf("N mismatch: %+v", ts.Stats)
	}
	if got := len(ts.AllVectors()); got != ts.Stats.N {
		t.Errorf("AllVectors=%d, N=%d", got, ts.Stats.N)
	}
	if ts.Stats.String() == "" {
		t.Error("empty stats string")
	}
	if len(ts.UncoveredPath) > 0 || len(ts.UncoveredCut) > 0 {
		t.Errorf("uncovered on a full array: %v / %v", ts.UncoveredPath, ts.UncoveredCut)
	}
}

func TestSkipLeakage(t *testing.T) {
	a := grid.MustNewStandard(4, 4)
	ts := gen(t, a, Config{SkipLeakage: true})
	if ts.Stats.NL != 0 || len(ts.LeakVectors) != 0 {
		t.Error("leakage vectors generated despite SkipLeakage")
	}
}

func TestHierarchicalConfig(t *testing.T) {
	a := grid.MustNewStandard(10, 10)
	direct := gen(t, a, Config{})
	hier := gen(t, a, Config{Hierarchical: true})
	// Fig. 8: hierarchical uses at least as many paths as direct.
	if hier.Stats.NP < direct.Stats.NP {
		t.Errorf("hierarchical NP=%d < direct NP=%d", hier.Stats.NP, direct.Stats.NP)
	}
	if hier.Stats.NP != 4 {
		t.Errorf("hierarchical 10x10 NP=%d, want 4 (Fig. 8b)", hier.Stats.NP)
	}
}

// TestSingleFaultGuarantee: every single stuck-at fault on small arrays
// must be detected.
func TestSingleFaultGuarantee(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		a := grid.MustNewStandard(n, n)
		ts := gen(t, a, Config{})
		escaped, err := VerifySingleFaults(context.Background(), compile(t, ts))
		if err != nil {
			t.Fatal(err)
		}
		if len(escaped) > 0 {
			t.Errorf("%dx%d: undetected single faults: %v", n, n, escaped)
		}
	}
}

// TestTwoFaultGuarantee is the paper's headline guarantee: any two faults
// are detected. Exhaustive on 4x4 (24 valves -> 48 single faults -> ~1104
// pairs).
func TestTwoFaultGuarantee(t *testing.T) {
	a := grid.MustNewStandard(4, 4)
	ts := gen(t, a, Config{})
	escaped, err := VerifyDoubleFaults(context.Background(), compile(t, ts), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(escaped) > 0 {
		t.Errorf("undetected fault pairs: %d, first: %v", len(escaped), escaped[0])
	}
}

// TestTwoFaultGuaranteeWithObstacles repeats the exhaustive pair check on
// an irregular array.
func TestTwoFaultGuaranteeWithObstacles(t *testing.T) {
	a := grid.MustNewStandard(5, 5)
	if _, err := a.SetObstacle(2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SetChannelH(4, 0, 2); err != nil {
		t.Fatal(err)
	}
	ts := gen(t, a, Config{})
	if len(ts.UncoveredPath) > 0 || len(ts.UncoveredCut) > 0 {
		t.Fatalf("uncovered valves: %v / %v", ts.UncoveredPath, ts.UncoveredCut)
	}
	escaped, err := VerifyDoubleFaults(context.Background(), compile(t, ts), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(escaped) > 0 {
		t.Errorf("undetected fault pairs: %d, first: %v", len(escaped), escaped[0])
	}
}

// TestCampaign mirrors the paper's Sec. IV experiment at reduced scale:
// random 1..5-fault injections must all be detected.
func TestCampaign(t *testing.T) {
	a := grid.MustNewStandard(6, 6)
	ts := gen(t, a, Config{})
	cv := compile(t, ts)
	for k := 1; k <= 5; k++ {
		res, err := cv.RunCampaign(context.Background(), sim.CampaignConfig{Trials: 500, NumFaults: k, Seed: int64(k)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected != res.Trials {
			t.Errorf("k=%d: detected %d/%d; escapes: %v",
				k, res.Detected, res.Trials, res.Escapes)
		}
	}
}

func TestCampaignWithLeakFaults(t *testing.T) {
	a := grid.MustNewStandard(5, 5)
	ts := gen(t, a, Config{})
	pairs := make([][2]grid.ValveID, len(ts.LeakPairs))
	for i, p := range ts.LeakPairs {
		pairs[i] = [2]grid.ValveID{p[0], p[1]}
	}
	res, err := compile(t, ts).RunCampaign(context.Background(), sim.CampaignConfig{
		Trials: 300, NumFaults: 2, Seed: 7, LeakPairs: pairs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected != res.Trials {
		t.Errorf("detected %d/%d; escapes: %v", res.Detected, res.Trials, res.Escapes)
	}
}

func TestGenerateRejectsInvalidArray(t *testing.T) {
	if _, err := Generate(context.Background(), grid.MustNew(3, 3), Config{}); err == nil {
		t.Error("want error")
	}
}

// compile binds the test set's vectors to a simulator, as every campaign
// and verify sweep requires.
func compile(t *testing.T, ts *TestSet) *sim.CompiledVectors {
	t.Helper()
	cv, err := ts.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cv
}

func TestVerifyDoubleFaultsTruncation(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	ts := gen(t, a, Config{})
	if _, err := VerifyDoubleFaults(context.Background(), compile(t, ts), 10); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyDoubleFaultsAllocations pins the pair sweep's allocations to a
// fixed overhead per call (the single-fault list, the pair window, the
// batch's results and workers), with nothing per pair.
func TestVerifyDoubleFaultsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	cv := compile(t, gen(t, grid.MustNewStandard(5, 5), Config{}))
	allocs := func(maxPairs int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := VerifyDoubleFaults(context.Background(), cv, maxPairs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(200), allocs(2000)
	if large > small+8 || large > 64 {
		t.Fatalf("VerifyDoubleFaults allocates %v objects for 200 pairs, %v for 2,000", small, large)
	}
}
