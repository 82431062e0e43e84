package sim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/grid"
)

// mustCampaign runs a campaign under context.Background and fails the test
// on error.
func mustCampaign(t *testing.T, s *Simulator, vecs []*Vector, cfg CampaignConfig) CampaignResult {
	t.Helper()
	res, err := s.Compile(vecs).RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCampaignWorkerCountInvariant is the contract the parallel engine must
// keep: for a fixed seed, the full CampaignResult — detected count and
// escape list — is bit-identical no matter how many workers shard the
// trials.
func TestCampaignWorkerCountInvariant(t *testing.T) {
	a := grid.MustNewStandard(4, 4)
	s := MustNew(a)
	// A deliberately weak vector set so escapes are non-empty and their
	// deterministic ordering is exercised too.
	vecs := []*Vector{lPath(a), columnCut(a, 2)}
	pairs := [][2]grid.ValveID{{a.HValve(0, 1), a.HValve(1, 1)}, {a.HValve(2, 1), a.VValve(1, 1)}}
	for _, k := range []int{1, 2, 3, 5} {
		base := mustCampaign(t, s, vecs, CampaignConfig{
			Trials: 500, NumFaults: k, Seed: 99, Workers: 1, LeakPairs: pairs,
		})
		for _, workers := range []int{2, 4, 7, 16} {
			got := mustCampaign(t, s, vecs, CampaignConfig{
				Trials: 500, NumFaults: k, Seed: 99, Workers: workers, LeakPairs: pairs,
			})
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("k=%d: workers=%d diverges from workers=1:\n%+v\nvs\n%+v",
					k, workers, base, got)
			}
		}
	}
}

func TestCampaignZeroTrials(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	res := mustCampaign(t, s, []*Vector{lPath(a)}, CampaignConfig{Trials: 0, NumFaults: 1, Seed: 1})
	if res.Trials != 0 || res.Detected != 0 || res.DetectionRate() != 0 {
		t.Errorf("zero-trial campaign: %+v", res)
	}
}

// randomFaults is the standalone (allocating) form of randomFaultsInto,
// for one-off draws in tests.
func randomFaults(rng *rand.Rand, normal []grid.ValveID, cfg CampaignConfig) []Fault {
	fs := newFaultScratch(normal, cfg)
	return append([]Fault(nil), randomFaultsInto(rng, normal, cfg, fs)...)
}

// TestRandomFaultsLeakExhaustion reproduces the infinite-retry hazard: more
// faults requested than the leak pairs and free valves can supply. The draw
// must terminate and return as many distinct-valve faults as possible.
func TestRandomFaultsLeakExhaustion(t *testing.T) {
	a := grid.MustNewStandard(2, 2)
	normal := a.NormalValves() // 12 valves on a full 2x2
	if len(normal) < 4 {
		t.Fatalf("unexpected normal count %d", len(normal))
	}
	// Every leak pair shares valve normal[0]: after one leak fires, every
	// remaining pair is blocked and the draw must fall back to stuck-ats.
	var pairs [][2]grid.ValveID
	for _, v := range normal[1:] {
		pairs = append(pairs, [2]grid.ValveID{normal[0], v})
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		fs := randomFaults(rng, normal, CampaignConfig{NumFaults: len(normal), LeakPairs: pairs})
		seen := make(map[grid.ValveID]bool)
		for _, f := range fs {
			if seen[f.A] {
				t.Fatalf("trial %d: duplicate valve %d", trial, f.A)
			}
			seen[f.A] = true
			if f.Kind == ControlLeak {
				if seen[f.B] && f.B != f.A {
					// B was marked by an earlier fault.
					t.Fatalf("trial %d: duplicate leak partner %d", trial, f.B)
				}
				seen[f.B] = true
			}
		}
	}
}

// TestRandomFaultsMoreThanValves asks for more faults than valves exist;
// the draw must cap at the valve count, never spin.
func TestRandomFaultsMoreThanValves(t *testing.T) {
	a := grid.MustNewStandard(2, 2)
	normal := a.NormalValves()
	rng := rand.New(rand.NewSource(8))
	fs := randomFaults(rng, normal, CampaignConfig{NumFaults: 10 * len(normal)})
	if len(fs) != len(normal) {
		t.Errorf("%d faults, want %d", len(fs), len(normal))
	}
}

func TestCompileCachesGolden(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	vecs := []*Vector{lPath(a), columnCut(a, 1)}
	cv := s.Compile(vecs)
	if cv.Len() != 2 || cv.Simulator() != s {
		t.Fatalf("compiled shape: len=%d", cv.Len())
	}
	for i, vec := range vecs {
		want := s.Readings(vec, nil)
		got := cv.Golden(i)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("vector %d golden %v, want %v", i, got, want)
		}
	}
	// Compiled and direct detection must agree.
	f := []Fault{{Kind: StuckAt0, A: a.HValve(0, 1)}}
	if cv.Detects(f) != s.Detects(vecs, f) {
		t.Error("compiled Detects disagrees with Simulator.Detects")
	}
	if cv.DetectingVector(f) != s.DetectingVector(vecs, f) {
		t.Error("compiled DetectingVector disagrees")
	}
}

func TestDetectsBatchMatchesSequential(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	vecs := []*Vector{lPath(a), columnCut(a, 2)}
	cv := s.Compile(vecs)
	var sets [][]Fault
	for _, f := range AllSingleFaults(a) {
		sets = append(sets, []Fault{f})
	}
	seq, err := cv.DetectsBatch(context.Background(), sets, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := cv.DetectsBatch(context.Background(), sets, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("batch detection diverges:\n%v\nvs\n%v", seq, par)
	}
	for i, f := range AllSingleFaults(a) {
		if seq[i] != s.Detects(vecs, []Fault{f}) {
			t.Errorf("fault %v: batch %v, direct %v", f, seq[i], !seq[i])
		}
	}
}

func TestTrialSeedSpread(t *testing.T) {
	// Adjacent trials and adjacent seeds must produce distinct RNG seeds.
	seen := make(map[int64]bool)
	for seed := int64(0); seed < 4; seed++ {
		for trial := 0; trial < 256; trial++ {
			v := trialSeed(seed, trial)
			if seen[v] {
				t.Fatalf("collision at seed=%d trial=%d", seed, trial)
			}
			seen[v] = true
		}
	}
}
