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

// multiSinkCampaignCase is randomCampaignCase on a 4x4 array with two
// extra meters, H(0,4) and V(4,0), and random vectors only: some of them
// read lit and dark sinks at once, so neither the all-dark nor the all-lit
// shortcut may settle their lanes.
func multiSinkCampaignCase(t *testing.T, rng *rand.Rand) (*Simulator, []*Vector, CampaignConfig) {
	t.Helper()
	a := grid.MustNewStandard(4, 4)
	if err := a.AddSink("m2", a.HValve(0, 4)); err != nil {
		t.Fatal(err)
	}
	if err := a.AddSink("m3", a.VValve(4, 0)); err != nil {
		t.Fatal(err)
	}
	s := MustNew(a)
	var vecs []*Vector
	mixed := false
	for len(vecs) < 8 || !mixed {
		vec := randomVector(a, rng, "rand")
		r := s.Readings(vec, nil)
		mixed = mixed || r[0] != r[1] || r[1] != r[2]
		vecs = append(vecs, vec)
	}
	normal := a.NormalValves()
	var pairs [][2]grid.ValveID
	for len(pairs) < 3 {
		if x, y := normal[rng.Intn(len(normal))], normal[rng.Intn(len(normal))]; x != y {
			pairs = append(pairs, [2]grid.ValveID{x, y})
		}
	}
	cfg := CampaignConfig{
		Trials:     65 + rng.Intn(140),
		NumFaults:  2 + rng.Intn(4),
		Seed:       rng.Int63(),
		LeakPairs:  pairs,
		MaxEscapes: 1 + rng.Intn(4),
	}
	return s, vecs, cfg
}

// sameAnswers compares the answer fields of two campaign results —
// Trials, Detected, Sims and Escapes. Floods is a cost of the engine that
// ran, not an answer: the scalar reference runs none.
func sameAnswers(a, b CampaignResult) bool {
	a.Floods, b.Floods = 0, 0
	return reflect.DeepEqual(a, b)
}

// TestCampaignEngineDifferential is the acceptance test for the PPSFP
// engine: over many randomized arrays, vector sets, and fault mixes, the
// bit-parallel campaign must produce a CampaignResult — Detected, Sims, and
// the escape list — bit-identical to the scalar reference, for several worker
// counts each, and the same flood count for every worker count. Past the
// 60 single-block cases, trial counts of 1,023, 1,025 and 2,049 cross
// block boundaries and end in a partial block and a partial word (the
// last is two full blocks plus a block of one trial), with leak pairs, on
// random single-sink cases and on the multi-sink array.
func TestCampaignEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < 66; i++ {
		var s *Simulator
		var vecs []*Vector
		var cfg CampaignConfig
		switch {
		case i < 60:
			s, vecs, cfg = randomCampaignCase(rng)
			cfg.Trials = 65 + rng.Intn(140) // straddle word boundaries, vary remainder
		case i%2 == 0:
			s, vecs, cfg = randomCampaignCase(rng)
			for len(cfg.LeakPairs) == 0 {
				_, _, cfg = randomCampaignCase(rng)
			}
			if cfg.NumFaults < 2 {
				cfg.NumFaults = 2
			}
		default:
			s, vecs, cfg = multiSinkCampaignCase(t, rng)
		}
		if i >= 60 {
			cfg.Trials = []int{1023, 1025, 2049}[(i-60)/2]
		}
		scalarCfg := cfg
		scalarCfg.Workers = 1
		want, err := s.Compile(vecs).runCampaignScalar(context.Background(), scalarCfg)
		if err != nil {
			t.Fatal(err)
		}
		floods := -1
		for _, workers := range []int{1, 2, 4} {
			wordCfg := cfg
			wordCfg.Workers = workers
			got := mustCampaign(t, s, vecs, wordCfg)
			if !sameAnswers(want, got) {
				t.Fatalf("case %d (trials=%d faults=%d workers=%d): engines diverge:\nscalar: %+v\nwords:  %+v",
					i, cfg.Trials, cfg.NumFaults, workers, want, got)
			}
			if floods >= 0 && got.Floods != floods {
				t.Fatalf("case %d (trials=%d workers=%d): %d floods, %d with one worker", i, cfg.Trials, workers, got.Floods, floods)
			}
			floods = got.Floods
		}
	}
}

// TestDetectsBatchMatchesScalarRandomized pins the word-parallel
// DetectsBatch against the one-at-a-time reference over random fault sets,
// including multi-fault sets with leaks. The last two cases hold more than
// one block of fault sets, one of them on the multi-sink array.
func TestDetectsBatchMatchesScalarRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 22; i++ {
		s, vecs, cfg := randomCampaignCase(rng)
		n := 70 + rng.Intn(130)
		if i >= 20 {
			n = 2*blockLanes + 37
		}
		if i == 21 {
			s, vecs, cfg = multiSinkCampaignCase(t, rng)
		}
		cv := s.Compile(vecs)
		normal := s.arr.NormalValves()
		fs := newFaultScratch(normal, cfg)
		var sets [][]Fault
		for j := 0; j < n; j++ {
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
	if err != nil && len(out)%blockLanes != 0 && len(out) != len(sets) {
		t.Fatalf("trimmed length %d is not a whole-block prefix of %d", len(out), len(sets))
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
	const trials = 2049 // three blocks, the last one trial long
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

// TestSweepBlockMatchesScalarPerLane drives the block sweep directly and
// checks each lane's first-detecting index against the scalar
// detectingVector. Lane counts straddle words (1, 63, 64, 65) and fill a
// block (1,023, 1,024); two blocks run back to back on one scratch, so a
// stale overlay from the first would show in the second.
func TestSweepBlockMatchesScalarPerLane(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{1, 63, 64, 65, 1023, blockLanes}
	for i := 0; i < 24; i++ {
		s, vecs, cfg := randomCampaignCase(rng)
		if i%4 == 3 {
			s, vecs, cfg = multiSinkCampaignCase(t, rng)
		}
		cv := s.Compile(vecs)
		normal := s.arr.NormalValves()
		fs := newFaultScratch(normal, cfg)
		bs := s.getBlockScratch()
		sc := s.getScratch()
		for _, n := range []int{sizes[i%len(sizes)], 1 + rng.Intn(blockLanes)} {
			lanes := make([][]Fault, n)
			for k := range lanes {
				lanes[k] = append([]Fault(nil), randomFaultsInto(rng, normal, cfg, fs)...)
			}
			s.loadBlock(bs, lanes)
			cv.sweepBlock(bs)
			for k := 0; k < n; k++ {
				if want := cv.detectingVector(sc, lanes[k]); int32(want) != bs.firstIdx[k] {
					t.Fatalf("case %d lane %d/%d: block sweep %d, scalar %d", i, k, n, bs.firstIdx[k], want)
				}
			}
		}
		s.putScratch(sc)
		s.putBlockScratch(bs)
	}
}
