package sim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/grid"
)

// TestResponsesMatchesReadings pins the response matrix — block engine and
// scalar reference — against the ground truth of Simulator.Readings for every (set, vector,
// sink) cell, over randomized arrays and fault mixes including leaks,
// multi-fault sets, and the empty (fault-free) set.
func TestResponsesMatchesReadings(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < 20; i++ {
		s, vecs, cfg := randomCampaignCase(rng)
		cv := s.Compile(vecs)
		normal := s.arr.NormalValves()
		fs := newFaultScratch(normal, cfg)
		sets := [][]Fault{nil} // lane 0: the fault-free universe
		for j, n := 0, 70+rng.Intn(130); j < n; j++ {
			sets = append(sets, append([]Fault(nil), randomFaultsInto(rng, normal, cfg, fs)...))
		}
		words, err := cv.Responses(context.Background(), sets, 2)
		if err != nil {
			t.Fatal(err)
		}
		for engine, m := range []*ResponseMatrix{cv.responsesScalar(sets), words} {
			if m.wordsPerRow != (len(sets)+63)/64 || m.Vectors() != len(vecs) {
				t.Fatalf("case %d engine %d: matrix is %d vectors x %d words, want %d x %d", i, engine, m.Vectors(), m.wordsPerRow, len(vecs), (len(sets)+63)/64)
			}
			for set, faults := range sets {
				for v, vec := range vecs {
					want := s.Readings(vec, faults)
					for j, r := range want {
						if got := m.Reading(set, v, j); got != r {
							t.Fatalf("case %d engine %d: set %d (%v) vector %d sink %d: got %t want %t",
								i, engine, set, faults, v, j, got, r)
						}
					}
				}
			}
		}
	}
}

// TestResponsesEngineDifferential pins the block engine bit-identical to the
// scalar reference — the full rows slice, not just individual readings — for
// several worker counts, so diagnosis built on top inherits the determinism
// contract. The last two cases run on the multi-sink array, where detected
// lanes are flooded for their readings, the second with more than one
// block of fault sets.
func TestResponsesEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 22; i++ {
		s, vecs, cfg := randomCampaignCase(rng)
		n := 65 + rng.Intn(140)
		if i >= 20 {
			s, vecs, cfg = multiSinkCampaignCase(t, rng)
		}
		if i == 21 {
			n = blockLanes + 65
		}
		cv := s.Compile(vecs)
		normal := s.arr.NormalValves()
		fs := newFaultScratch(normal, cfg)
		var sets [][]Fault
		for j := 0; j < n; j++ {
			sets = append(sets, append([]Fault(nil), randomFaultsInto(rng, normal, cfg, fs)...))
		}
		want := cv.responsesScalar(sets)
		for _, workers := range []int{1, 2, 4} {
			got, err := cv.Responses(context.Background(), sets, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("case %d workers=%d: block engine diverges from scalar reference", i, workers)
			}
		}
	}
}

// TestResponsesSameSignature checks signature equality on the response
// matrix: the fault-free set and a fault on a valve no vector ever opens
// read the same on every (vector, sink), while a detectable fault does not.
func TestResponsesSameSignature(t *testing.T) {
	a := grid.MustNewStandard(4, 4)
	s := MustNew(a)
	path := lPath(a)
	cv := s.Compile([]*Vector{path})
	open := path.OpenValves()
	if len(open) == 0 {
		t.Fatal("lPath opened no valves")
	}
	// A valve the single path vector leaves closed: its StuckAt0 can never
	// show (it is never commanded open), so its signature equals fault-free.
	var closed grid.ValveID = -1
	for _, v := range a.NormalValves() {
		if !path.Open(v) {
			closed = v
			break
		}
	}
	if closed < 0 {
		t.Fatal("no closed Normal valve")
	}
	sets := [][]Fault{
		nil,
		{{Kind: StuckAt0, A: closed}},
		{{Kind: StuckAt0, A: open[0]}}, // breaks the only path: detected
	}
	m, err := cv.Responses(context.Background(), sets, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameSignature := func(a, b int) bool {
		for v := range m.Vectors() {
			for j := range m.Sinks() {
				if m.Reading(a, v, j) != m.Reading(b, v, j) {
					return false
				}
			}
		}
		return true
	}
	if !sameSignature(0, 1) {
		t.Fatal("stuck-at-0 on a never-opened valve should be indistinguishable from fault-free")
	}
	if sameSignature(0, 2) {
		t.Fatal("stuck-at-0 on the path should be distinguishable from fault-free")
	}
}

// TestResponsesCancel pins the cancellation contract: no partial matrix.
func TestResponsesCancel(t *testing.T) {
	a := grid.MustNewStandard(4, 4)
	s := MustNew(a)
	cv := s.Compile([]*Vector{lPath(a)})
	var sets [][]Fault
	for _, f := range AllSingleFaults(a) {
		sets = append(sets, []Fault{f})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := cv.Responses(ctx, sets, 2)
	if err == nil {
		t.Fatal("cancelled Responses returned nil error")
	}
	if m != nil {
		t.Fatal("cancelled Responses returned a partial matrix")
	}
}
