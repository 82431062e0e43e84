package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/flowpath"
	"repro/internal/grid"
	"repro/internal/ilp"
	"repro/internal/sim"
)

// randomTestArray builds a small random array with optional transportation
// channels and obstacle cells, FPVA-style. Returns nil when the random
// layout fails validation (caller retries).
func randomTestArray(rng *rand.Rand) *grid.Array {
	nr := 3 + rng.Intn(2)
	nc := 3 + rng.Intn(2)
	a, err := grid.NewStandard(nr, nc)
	if err != nil {
		return nil
	}
	if rng.Intn(2) == 0 { // a horizontal channel segment
		r := rng.Intn(nr)
		c0 := rng.Intn(nc - 2)
		if _, err := a.SetChannelH(r, c0, c0+1+rng.Intn(nc-2-c0)); err != nil {
			return nil
		}
	}
	if rng.Intn(2) == 0 { // an obstacle cell
		if _, err := a.SetObstacle(rng.Intn(nr), rng.Intn(nc)); err != nil {
			return nil
		}
	}
	if a.Validate() != nil {
		return nil
	}
	return a
}

func coveredSet(a *grid.Array, paths []*flowpath.Path) map[grid.ValveID]bool {
	out := make(map[grid.ValveID]bool)
	for _, p := range paths {
		for _, id := range p.CoveredNormal(a) {
			out[id] = true
		}
	}
	return out
}

// TestDifferentialEngines cross-checks the serpentine and exact ILP
// flow-path engines on randomized arrays: both must produce structurally
// valid path vectors, identical covered-valve sets, and — embedded in a
// full test set — zero single-fault escapes.
func TestDifferentialEngines(t *testing.T) {
	const wantArrays = 50
	rng := rand.New(rand.NewSource(2017))
	tried := 0
	for checked := 0; checked < wantArrays; {
		tried++
		if tried > 40*wantArrays {
			t.Fatalf("could not generate %d coverable arrays (%d checked)", wantArrays, checked)
		}
		a := randomTestArray(rng)
		if a == nil {
			continue
		}
		serp, err := flowpath.Generate(context.Background(), a, flowpath.Options{Engine: flowpath.EngineSerpentine})
		if err != nil {
			t.Fatalf("array %v: serpentine: %v", a, err)
		}
		exact, err := flowpath.Generate(context.Background(), a, flowpath.Options{
			Engine: flowpath.EngineILPIterative,
			ILP:    ilp.Options{Workers: 2},
		})
		if err != nil {
			t.Fatalf("array %v: ILP iterative: %v", a, err)
		}
		if exact.ILP.NonOptimal > 0 {
			t.Fatalf("array %v: %d non-optimal ILP solves", a, exact.ILP.NonOptimal)
		}
		// Identical covered-valve sets: the exact engine must reach exactly
		// the valves the serpentine+patch construction reaches.
		cs, ce := coveredSet(a, serp.Paths), coveredSet(a, exact.Paths)
		if len(cs) != len(ce) {
			t.Fatalf("array %v: serpentine covers %d valves, ILP covers %d", a, len(cs), len(ce))
		}
		for id := range cs {
			if !ce[id] {
				t.Fatalf("array %v: valve %d covered by serpentine only", a, id)
			}
		}
		// Every path from both engines must be a structurally valid vector.
		s := sim.MustNew(a)
		for _, res := range []*flowpath.Result{serp, exact} {
			for i, p := range res.Paths {
				if err := s.VerifyPathVector(p.Vector(a, "diff")); err != nil {
					t.Fatalf("array %v: path %d invalid: %v", a, i, err)
				}
			}
		}
		// Keep only fully coverable arrays for the end-to-end guarantee.
		if len(serp.Uncovered) > 0 || len(exact.Uncovered) > 0 {
			continue
		}
		// Zero single-fault escapes with either engine's test set.
		for _, engine := range []flowpath.Engine{flowpath.EngineSerpentine, flowpath.EngineILPIterative} {
			ts, err := Generate(context.Background(), a, Config{
				FlowPath: flowpath.Options{Engine: engine, ILP: ilp.Options{Workers: 2}},
			})
			if err != nil {
				t.Fatalf("array %v engine %v: %v", a, engine, err)
			}
			if len(ts.UncoveredPath) > 0 || len(ts.UncoveredCut) > 0 {
				continue // cut family may be limited by the layout; not this test's subject
			}
			escapes, err := VerifySingleFaults(context.Background(), compile(t, ts))
			if err != nil {
				t.Fatal(err)
			}
			if len(escapes) > 0 {
				t.Fatalf("array %v engine %v: %d single-fault escapes: %v", a, engine, len(escapes), escapes)
			}
		}
		checked++
	}
}
