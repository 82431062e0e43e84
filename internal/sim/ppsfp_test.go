package sim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/grid"
)

// randomVector commands a random subset of Normal valves open. Unlike path
// and cut vectors it has no structure at all, which makes the golden
// readings (and hence the detection surface) as varied as possible.
func randomVector(a *grid.Array, rng *rand.Rand, name string) *Vector {
	v := NewVector(a, Custom, name)
	for _, id := range a.NormalValves() {
		if rng.Intn(2) == 1 {
			v.SetOpen(id, true)
		}
	}
	return v
}

// randomCampaignCase builds a random array, vector set, and campaign config
// for differential testing. The trial count deliberately straddles a word
// boundary (so the remainder block's masked lanes are exercised) and
// MaxEscapes is small enough that the sort-and-truncate path runs.
func randomCampaignCase(rng *rand.Rand) (*Simulator, []*Vector, CampaignConfig) {
	rows := 2 + rng.Intn(4)
	cols := 2 + rng.Intn(4)
	a := grid.MustNewStandard(rows, cols)
	s := MustNew(a)
	vecs := []*Vector{lPath(a)}
	for i, extra := 0, rng.Intn(3); i < extra; i++ {
		vecs = append(vecs, randomVector(a, rng, "rand"))
	}
	normal := a.NormalValves()
	var pairs [][2]grid.ValveID
	for i, n := 0, rng.Intn(4); i < n && len(normal) >= 2; i++ {
		x := normal[rng.Intn(len(normal))]
		y := normal[rng.Intn(len(normal))]
		if x != y {
			pairs = append(pairs, [2]grid.ValveID{x, y})
		}
	}
	cfg := CampaignConfig{
		Trials:     65 + rng.Intn(140),
		NumFaults:  1 + rng.Intn(5),
		Seed:       rng.Int63(),
		LeakPairs:  pairs,
		MaxEscapes: 1 + rng.Intn(4),
	}
	return s, vecs, cfg
}

// TestCampaignEngineDifferential is the acceptance test for the PPSFP
// engine: over many randomized arrays, vector sets, and fault mixes, the
// bit-parallel campaign must produce a CampaignResult — Detected, Sims, and
// the escape list — bit-identical to the scalar reference, for several worker
// counts each.
func TestCampaignEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < 60; i++ {
		s, vecs, cfg := randomCampaignCase(rng)
		cfg.Trials = 65 + rng.Intn(140) // straddle word boundaries, vary remainder
		scalarCfg := cfg
		scalarCfg.Workers = 1
		want, err := s.Compile(vecs).runCampaignScalar(context.Background(), scalarCfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			wordCfg := cfg
			wordCfg.Workers = workers
			got := mustCampaign(t, s, vecs, wordCfg)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("case %d (trials=%d faults=%d workers=%d): engines diverge:\nscalar: %+v\nwords:  %+v",
					i, cfg.Trials, cfg.NumFaults, workers, want, got)
			}
		}
	}
}

// TestDetectsBatchMatchesScalarRandomized pins the word-parallel
// DetectsBatch against the one-at-a-time reference over random fault sets,
// including multi-fault sets with leaks.
func TestDetectsBatchMatchesScalarRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		s, vecs, cfg := randomCampaignCase(rng)
		cv := s.Compile(vecs)
		normal := s.arr.NormalValves()
		fs := newFaultScratch(normal, cfg)
		var sets [][]Fault
		for j, n := 0, 70+rng.Intn(130); j < n; j++ {
			sets = append(sets, append([]Fault(nil), randomFaultsInto(rng, normal, cfg, fs)...))
		}
		want := cv.detectsBatchScalar(sets)
		for _, workers := range []int{1, 3} {
			got, err := cv.DetectsBatch(context.Background(), sets, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("case %d workers=%d: batch diverges from scalar reference", i, workers)
			}
		}
	}
}

// TestDetectsBatchCancelTrim pins the cancellation contract: the returned
// slice covers only fault sets that were actually evaluated, so a caller
// can never misread an unevaluated entry as "not detected".
func TestDetectsBatchCancelTrim(t *testing.T) {
	a := grid.MustNewStandard(4, 4)
	s := MustNew(a)
	cv := s.Compile([]*Vector{lPath(a), columnCut(a, 2)})
	var sets [][]Fault
	for _, f := range AllSingleFaults(a) {
		sets = append(sets, []Fault{f})
	}

	// A context cancelled before any work: nothing was evaluated, so the
	// result must be empty, not a zero-filled slice.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := cv.DetectsBatch(ctx, sets, 2)
	if err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	if len(out) != 0 {
		t.Fatalf("cancelled-before-start batch returned %d entries, want 0", len(out))
	}

	// A context cancelled mid-run: whatever prefix is returned must match
	// the scalar reference entry for entry.
	want := cv.detectsBatchScalar(sets)
	ctx, cancel = context.WithCancel(context.Background())
	go cancel()
	out, err = cv.DetectsBatch(ctx, sets, 2)
	if err != nil && len(out)%64 != 0 && len(out) != len(sets) {
		t.Fatalf("trimmed length %d is not a whole-word prefix of %d", len(out), len(sets))
	}
	if err == nil && len(out) != len(sets) {
		t.Fatalf("uncancelled batch returned %d entries, want %d", len(out), len(sets))
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("entry %d of returned prefix diverges from scalar reference", i)
		}
	}
}

// TestCampaignOnTrialsFinalCall pins the progress contract on the word
// engine and the scalar reference: reported counts are strictly increasing
// and a completed campaign always ends with a call at exactly
// (Trials, Trials), regardless of worker count.
func TestCampaignOnTrialsFinalCall(t *testing.T) {
	a := grid.MustNewStandard(4, 4)
	cv := MustNew(a).Compile([]*Vector{lPath(a), columnCut(a, 2)})
	const trials = 333 // not a multiple of the word or block size
	for _, engine := range []struct {
		name string
		run  func(context.Context, CampaignConfig) (CampaignResult, error)
	}{{"scalar", cv.runCampaignScalar}, {"bit-parallel", cv.RunCampaign}} {
		for _, workers := range []int{1, 4} {
			var calls [][2]int
			cfg := CampaignConfig{
				Trials: trials, NumFaults: 2, Seed: 5, Workers: workers,
				// OnTrials calls are serialized by the engine; no lock needed.
				OnTrials: func(done, total int) { calls = append(calls, [2]int{done, total}) },
			}
			if _, err := engine.run(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			if len(calls) == 0 {
				t.Fatalf("engine=%s workers=%d: OnTrials never called", engine.name, workers)
			}
			prev := 0
			for _, c := range calls {
				if c[0] <= prev || c[1] != trials {
					t.Fatalf("engine=%s workers=%d: non-monotonic or mis-totaled call %v after %d", engine.name, workers, c, prev)
				}
				prev = c[0]
			}
			if last := calls[len(calls)-1]; last != [2]int{trials, trials} {
				t.Fatalf("engine=%s workers=%d: final call %v, want (%d, %d)", engine.name, workers, last, trials, trials)
			}
		}
	}
}

// TestSweepWordMatchesScalarPerLane drives sweepWord directly with fewer
// than 64 lanes and checks each lane's first-detecting index against the
// scalar detectingVector, including the masked-out inactive lanes.
func TestSweepWordMatchesScalarPerLane(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		s, vecs, cfg := randomCampaignCase(rng)
		cv := s.Compile(vecs)
		normal := s.arr.NormalValves()
		fs := newFaultScratch(normal, cfg)
		n := 1 + rng.Intn(64)
		lanes := make([][]Fault, n)
		for k := range lanes {
			lanes[k] = append([]Fault(nil), randomFaultsInto(rng, normal, cfg, fs)...)
		}
		ws := s.getWordScratch()
		cv.sweepWord(ws, lanes, laneMask(n))
		sc := s.getScratch()
		for k := 0; k < n; k++ {
			if want := cv.detectingVector(sc, lanes[k]); int32(want) != ws.firstIdx[k] {
				t.Fatalf("case %d lane %d/%d: sweepWord %d, scalar %d", i, k, n, ws.firstIdx[k], want)
			}
		}
		s.putScratch(sc)
		s.putWordScratch(ws)
	}
}
