package cutset

import (
	"context"
	"testing"

	"repro/internal/grid"
	"repro/internal/sim"
)

func generate(t *testing.T, a *grid.Array, opt Options) *Result {
	t.Helper()
	res, err := Generate(context.Background(), a, opt)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return res
}

// coverageReport maps every Normal valve to the index of a cut whose vector
// exposes its stuck-at-1 fault (-1 if none).
func coverageReport(a *grid.Array, s *sim.Simulator, cuts []*Cut) map[grid.ValveID]int {
	out := make(map[grid.ValveID]int)
	for _, id := range a.NormalValves() {
		out[id] = -1
	}
	for i, c := range cuts {
		for _, id := range testableMembersVec(s, c, c.Vector(a, "check"), nil) {
			if out[id] == -1 {
				out[id] = i
			}
		}
	}
	return out
}

// assertCutCoverage checks that every Normal valve is a testable member of
// some cut and that every cut separates source from sink.
func assertCutCoverage(t *testing.T, a *grid.Array, res *Result) {
	t.Helper()
	if len(res.Uncovered) > 0 {
		t.Fatalf("uncovered valves: %v", res.Uncovered)
	}
	s := sim.MustNew(a)
	for i, c := range res.Cuts {
		if err := Validate(a, s, c); err != nil {
			t.Fatalf("cut %d: %v", i, err)
		}
	}
	report := coverageReport(a, s, res.Cuts)
	for id, cutIdx := range report {
		if cutIdx == -1 {
			t.Fatalf("valve %d not testable by any cut", id)
		}
	}
}

func TestLineCutsFullArray(t *testing.T) {
	// Full n x n with corner ports: exactly 2n-2 straight cuts, matching
	// Table I's nc column for regular regions.
	for _, n := range []int{3, 5, 8} {
		a := grid.MustNewStandard(n, n)
		cuts := lineCuts(a)
		if len(cuts) != 2*n-2 {
			t.Errorf("%dx%d: %d line cuts, want %d", n, n, len(cuts), 2*n-2)
		}
		s := sim.MustNew(a)
		for i, c := range cuts {
			if err := Validate(a, s, c); err != nil {
				t.Errorf("%dx%d line cut %d: %v", n, n, i, err)
			}
		}
	}
}

func TestLineCutsSkipChannels(t *testing.T) {
	a := grid.MustNewStandard(5, 5)
	if _, err := a.SetChannelH(2, 1, 3); err != nil { // kills column lines 2 and 3
		t.Fatal(err)
	}
	cuts := lineCuts(a)
	// Columns 1 and 4 survive, rows 1-4 survive: 2 + 4 = 6.
	if len(cuts) != 6 {
		t.Errorf("%d line cuts, want 6", len(cuts))
	}
}

func TestGenerateFullArrays(t *testing.T) {
	for _, n := range []int{3, 5, 6} {
		a := grid.MustNewStandard(n, n)
		res := generate(t, a, Options{})
		assertCutCoverage(t, a, res)
	}
}

func TestGenerateCountMatchesTableIShape(t *testing.T) {
	// On full arrays the auto engine should need only the straight cuts.
	a := grid.MustNewStandard(5, 5)
	res := generate(t, a, Options{})
	if len(res.Cuts) != 8 {
		t.Errorf("5x5: %d cuts, want 8 (2n-2)", len(res.Cuts))
	}
}

func TestGenerateWithObstacles(t *testing.T) {
	a := grid.MustNewStandard(6, 6)
	for _, rc := range [][2]int{{2, 2}, {4, 4}} {
		if _, err := a.SetObstacle(rc[0], rc[1]); err != nil {
			t.Fatal(err)
		}
	}
	res := generate(t, a, Options{})
	assertCutCoverage(t, a, res)
}

func TestGenerateWithChannels(t *testing.T) {
	a := grid.MustNewStandard(6, 6)
	if _, err := a.SetChannelH(3, 1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SetChannelV(1, 2, 4); err != nil {
		t.Fatal(err)
	}
	res := generate(t, a, Options{})
	assertCutCoverage(t, a, res)
}

func TestDualEngine(t *testing.T) {
	a := grid.MustNewStandard(4, 4)
	res := generate(t, a, Options{Engine: EngineDual})
	assertCutCoverage(t, a, res)
}

func TestILPEngine(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	res := generate(t, a, Options{Engine: EngineILP})
	assertCutCoverage(t, a, res)
}

func TestILPEngineWithObstacle(t *testing.T) {
	a := grid.MustNewStandard(4, 4)
	if _, err := a.SetObstacle(1, 1); err != nil {
		t.Fatal(err)
	}
	res := generate(t, a, Options{Engine: EngineILP})
	assertCutCoverage(t, a, res)
}

func TestCutThroughSpecificValve(t *testing.T) {
	a := grid.MustNewStandard(5, 5)
	d, err := buildDual(a)
	if err != nil {
		t.Fatal(err)
	}
	target := a.VValve(2, 2)
	c := d.cutThrough(target, map[grid.ValveID]bool{target: true})
	if c == nil {
		t.Fatal("no cut through target")
	}
	found := false
	for _, id := range c.Valves {
		if id == target {
			found = true
		}
	}
	if !found {
		t.Error("target not in cut")
	}
	s := sim.MustNew(a)
	if err := Validate(a, s, c); err != nil {
		t.Errorf("cut invalid: %v", err)
	}
	if !Testable(a, s, c, target) {
		t.Error("target not testable in its own cut")
	}
}

func TestRepairConstraint9(t *testing.T) {
	// Build an artificial cut with a gap that a single stuck-at-1 valve
	// could bridge: on a 3x3 array, the cut {H(0,1), H(2,1)} plus the wall
	// structure leaves H(1,1) bridging two visited corners.
	a := grid.MustNewStandard(3, 3)
	c := &Cut{Valves: []grid.ValveID{a.HValve(0, 1), a.HValve(2, 1)}}
	newRepairScratch(a).repair(a, c)
	found := false
	for _, id := range c.Valves {
		if id == a.HValve(1, 1) {
			found = true
		}
	}
	if !found {
		t.Errorf("repair did not add the bridging valve: %v", c.Valves)
	}
}

func TestRepairLeavesLineCutsAlone(t *testing.T) {
	a := grid.MustNewStandard(5, 5)
	for _, c := range lineCuts(a) {
		before := len(c.Valves)
		newRepairScratch(a).repair(a, c)
		if len(c.Valves) != before {
			t.Errorf("repair grew a straight cut from %d to %d members", before, len(c.Valves))
		}
	}
}

func TestTestableDetectsHole(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := sim.MustNew(a)
	// A non-minimal cut: a full column line plus one extra interior valve
	// whose reopening does not reconnect.
	c := &Cut{Valves: []grid.ValveID{a.HValve(0, 1), a.HValve(1, 1), a.HValve(2, 1), a.VValve(1, 0)}}
	if err := Validate(a, s, c); err != nil {
		t.Fatalf("cut should separate: %v", err)
	}
	if Testable(a, s, c, a.VValve(1, 0)) {
		t.Error("redundant member reported testable")
	}
	// With V(1,0) also closed the source cell is sealed off, so opening
	// H(1,1) cannot reconnect — but opening H(0,1) can.
	if Testable(a, s, c, a.HValve(1, 1)) {
		t.Error("H(1,1) cannot be testable while the source cell is sealed")
	}
	if !Testable(a, s, c, a.HValve(0, 1)) {
		t.Error("H(0,1) should be testable")
	}
}

func TestCutVectorKind(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	res := generate(t, a, Options{})
	for _, v := range res.Vectors(a) {
		if v.Kind != sim.CutSet {
			t.Errorf("vector kind %v", v.Kind)
		}
	}
}

func TestBoundaryArcSplit(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	d, err := buildDual(a)
	if err != nil {
		t.Fatal(err)
	}
	// The dual must connect arc A and arc B (otherwise no cut exists).
	if via := d.g.BFSInto(make([]int, d.g.N()), nil, []int{d.A}, nil); via[d.B] == -1 {
		t.Error("dual arcs disconnected")
	}
	// Every interior corner has exactly 4 incident dual edges on a full
	// array.
	for i := 1; i < 3; i++ {
		for j := 1; j < 3; j++ {
			n := cornerIndex(a, i, j)
			if got := len(d.g.Adj(n)); got != 4 {
				t.Errorf("corner (%d,%d): %d dual edges, want 4", i, j, got)
			}
		}
	}
}

func TestGenerateRejectsPortlessArray(t *testing.T) {
	a := grid.MustNew(3, 3)
	if _, err := Generate(context.Background(), a, Options{}); err == nil {
		t.Error("want error")
	}
}

func TestEngineStrings(t *testing.T) {
	for _, e := range []Engine{EngineAuto, EngineDual, EngineILP, Engine(42)} {
		if e.String() == "" {
			t.Error("empty engine string")
		}
	}
}

// TestTwoFaultMaskingExcluded reproduces the Fig. 5(c)/(d) scenario and
// checks that repaired cut-sets plus flow paths leave no masked pair: for
// a small array, every {stuck-at-0, stuck-at-1} pair must change some
// vector's readings. (The full cross-module guarantee check lives in
// internal/core; this is the cut-side regression.)
func TestTwoFaultMaskingExcluded(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	res := generate(t, a, Options{})
	cv := sim.MustNew(a).Compile(res.Vectors(a))
	normal := a.NormalValves()
	for _, v1 := range normal {
		for _, v2 := range normal {
			if v1 == v2 {
				continue
			}
			faults := []sim.Fault{
				{Kind: sim.StuckAt1, A: v2},
			}
			// A lone stuck-at-1 must always be caught by the cut set.
			if !cv.Detects(faults) {
				t.Fatalf("stuck-at-1 on %d undetected by cuts", v2)
			}
		}
	}
}
