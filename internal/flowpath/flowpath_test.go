package flowpath

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

// assertFullCover checks that the result covers every Normal valve, that
// every path is a valid simple source-to-sink path, and that each path's
// vector pressurizes a sink on a fault-free chip.
func assertFullCover(t *testing.T, a *grid.Array, res *Result) {
	t.Helper()
	if len(res.Uncovered) > 0 {
		t.Fatalf("uncovered valves: %v", res.Uncovered)
	}
	covered := coverageSet(a, res.Paths)
	for _, id := range a.NormalValves() {
		if !covered[id] {
			t.Fatalf("valve %d not covered", id)
		}
	}
	s := sim.MustNew(a)
	for i, p := range res.Paths {
		if _, err := Build(a, p.Valves[0], p.Valves[len(p.Valves)-1], p.Cells); err != nil {
			t.Fatalf("path %d invalid: %v", i, err)
		}
		if err := s.VerifyPathVector(p.Vector(a, "t")); err != nil {
			t.Fatalf("path %d vector: %v", i, err)
		}
	}
}

func TestOddSplits(t *testing.T) {
	for _, tc := range []struct {
		n, max int
		want   []int
	}{
		{5, 0, []int{5}},
		{10, 0, []int{9, 1}},
		{10, 5, []int{5, 5}},
		{15, 5, []int{5, 5, 5}},
		{30, 5, []int{5, 5, 5, 5, 5, 5}},
		{12, 5, []int{5, 5, 1, 1}},
		{13, 5, []int{5, 5, 3}},
		{7, 4, []int{3, 3, 1}},
		{1, 0, []int{1}},
		{2, 0, []int{1, 1}},
		{0, 5, nil},
	} {
		got := oddSplits(tc.n, tc.max)
		if len(got) != len(tc.want) {
			t.Errorf("oddSplits(%d,%d)=%v, want %v", tc.n, tc.max, got, tc.want)
			continue
		}
		sum := 0
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("oddSplits(%d,%d)=%v, want %v", tc.n, tc.max, got, tc.want)
			}
			if got[i]%2 == 0 {
				t.Errorf("oddSplits(%d,%d): even strip %d", tc.n, tc.max, got[i])
			}
			sum += got[i]
		}
		if sum != tc.n {
			t.Errorf("oddSplits(%d,%d) sums to %d", tc.n, tc.max, sum)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	src, snk := a.HValve(0, 0), a.HValve(2, 3)
	ok := []grid.CellID{
		a.CellIndex(0, 0), a.CellIndex(0, 1), a.CellIndex(0, 2),
		a.CellIndex(1, 2), a.CellIndex(2, 2),
	}
	p, err := Build(a, src, snk, ok)
	if err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	if p.Len() != 5 || len(p.Valves) != 6 {
		t.Errorf("Len=%d valves=%d", p.Len(), len(p.Valves))
	}
	cases := map[string][]grid.CellID{
		"empty":        {},
		"wrong start":  {a.CellIndex(1, 1), a.CellIndex(2, 1), a.CellIndex(2, 2)},
		"wrong end":    {a.CellIndex(0, 0), a.CellIndex(0, 1)},
		"not adjacent": {a.CellIndex(0, 0), a.CellIndex(2, 2)},
		"revisit":      {a.CellIndex(0, 0), a.CellIndex(0, 1), a.CellIndex(0, 0), a.CellIndex(1, 0)},
	}
	for name, cells := range cases {
		if _, err := Build(a, src, snk, cells); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	// Non-port endpoints.
	if _, err := Build(a, a.HValve(1, 1), snk, ok); err == nil {
		t.Error("interior source edge accepted")
	}
}

func TestSerpentineFullOdd(t *testing.T) {
	a := grid.MustNewStandard(5, 5)
	res := generate(t, a, Options{Engine: EngineSerpentine})
	assertFullCover(t, a, res)
	// Direct mode on an odd square: one row sweep + one column sweep.
	if len(res.Paths) != 2 {
		t.Errorf("5x5 direct: %d paths, want 2", len(res.Paths))
	}
}

func TestSerpentineFullEven(t *testing.T) {
	a := grid.MustNewStandard(10, 10)
	res := generate(t, a, Options{Engine: EngineSerpentine})
	assertFullCover(t, a, res)
	if len(res.Paths) > 4 {
		t.Errorf("10x10 direct: %d paths, want <= 4", len(res.Paths))
	}
}

func TestSerpentineHierarchical(t *testing.T) {
	// The paper's Fig. 8(b): 10x10 with 5x5 blocks -> 4 paths.
	a := grid.MustNewStandard(10, 10)
	res := generate(t, a, Options{Engine: EngineSerpentine, StripRows: 5, StripCols: 5})
	assertFullCover(t, a, res)
	if len(res.Paths) != 4 {
		t.Errorf("10x10 hierarchical: %d paths, want 4 (Fig. 8b)", len(res.Paths))
	}
}

func TestSerpentineRectangular(t *testing.T) {
	for _, dims := range [][2]int{{3, 7}, {7, 3}, {4, 6}, {1, 5}, {5, 1}, {2, 2}} {
		a := grid.MustNewStandard(dims[0], dims[1])
		res := generate(t, a, Options{Engine: EngineSerpentine})
		assertFullCover(t, a, res)
	}
}

func TestSerpentineWithObstacles(t *testing.T) {
	a := grid.MustNewStandard(8, 8)
	for _, rc := range [][2]int{{2, 2}, {5, 5}, {2, 5}} {
		if _, err := a.SetObstacle(rc[0], rc[1]); err != nil {
			t.Fatal(err)
		}
	}
	res := generate(t, a, Options{Engine: EngineSerpentine, StripRows: 5, StripCols: 5})
	assertFullCover(t, a, res)
}

func TestSerpentineWithChannels(t *testing.T) {
	a := grid.MustNewStandard(6, 6)
	if _, err := a.SetChannelH(3, 0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SetChannelV(2, 1, 4); err != nil {
		t.Fatal(err)
	}
	res := generate(t, a, Options{Engine: EngineSerpentine})
	assertFullCover(t, a, res)
}

func TestPatchingDisabled(t *testing.T) {
	a := grid.MustNewStandard(8, 8)
	if _, err := a.SetObstacle(3, 3); err != nil {
		t.Fatal(err)
	}
	res := generate(t, a, Options{Engine: EngineSerpentine, NoPatch: true})
	// With patching off, coverage may or may not be complete, but all paths
	// must still be valid; and re-running with patching must fix coverage.
	full := generate(t, a, Options{Engine: EngineSerpentine})
	assertFullCover(t, a, full)
	if len(full.Paths) < len(res.Paths) {
		t.Error("patched run has fewer paths than unpatched")
	}
}

func TestPathThroughSpecificValve(t *testing.T) {
	a := grid.MustNewStandard(5, 5)
	rt := NewRouter(a)
	target := a.VValve(2, 2)
	p := rt.pathThrough(a.HValve(0, 0), a.HValve(4, 5), target, nil)
	if p == nil {
		t.Fatal("no path through target")
	}
	found := false
	for _, id := range p.Valves {
		if id == target {
			found = true
		}
	}
	if !found {
		t.Error("target valve not on path")
	}
	if _, err := Build(a, p.Valves[0], p.Valves[len(p.Valves)-1], p.Cells); err != nil {
		t.Errorf("patch path invalid: %v", err)
	}
}

func TestPatchPathsCoverEverything(t *testing.T) {
	a := grid.MustNewStandard(4, 4)
	missing := a.NormalValves() // pretend nothing is covered
	paths, impossible := patchPaths(a, sim.MustNew(a), a.HValve(0, 0), a.HValve(3, 4), missing)
	if len(impossible) > 0 {
		t.Fatalf("impossible valves on a full array: %v", impossible)
	}
	res := &Result{Paths: paths}
	assertFullCover(t, a, res)
}

func TestILPIterativeSmall(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	res := generate(t, a, Options{Engine: EngineILPIterative})
	assertFullCover(t, a, res)
	// 3x3 has 12 valves; a path covers at most 9+... cells=9 so <=8 internal
	// edges + no more. Expect 2-3 paths.
	if len(res.Paths) > 3 {
		t.Errorf("ILP iterative used %d paths", len(res.Paths))
	}
}

func TestILPIterativeMatchesSerpentineOn4x4(t *testing.T) {
	a := grid.MustNewStandard(4, 4)
	ilpRes := generate(t, a, Options{Engine: EngineILPIterative})
	serpRes := generate(t, a, Options{Engine: EngineSerpentine})
	assertFullCover(t, a, ilpRes)
	assertFullCover(t, a, serpRes)
	// The ILP should never be (much) worse than the combinatorial engine.
	if len(ilpRes.Paths) > len(serpRes.Paths)+1 {
		t.Errorf("ILP %d paths vs serpentine %d", len(ilpRes.Paths), len(serpRes.Paths))
	}
}

func TestILPMonolithicTiny(t *testing.T) {
	a := grid.MustNewStandard(2, 2)
	res := generate(t, a, Options{Engine: EngineILPMonolithic})
	assertFullCover(t, a, res)
	// 2x2 full array: 4 valves, one path covers at most 3 internal edges
	// (4 cells): needs exactly 2 paths.
	if len(res.Paths) != 2 {
		t.Errorf("2x2 monolithic: %d paths, want 2", len(res.Paths))
	}
}

func TestVectorsNamedAndTyped(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	res := generate(t, a, Options{})
	vecs := res.Vectors(a)
	if len(vecs) != len(res.Paths) {
		t.Fatalf("%d vectors for %d paths", len(vecs), len(res.Paths))
	}
	for i, v := range vecs {
		if v.Kind != sim.FlowPath {
			t.Errorf("vector %d kind %v", i, v.Kind)
		}
		if v.Name == "" {
			t.Errorf("vector %d unnamed", i)
		}
	}
}

func TestGenerateRejectsInvalidArray(t *testing.T) {
	a := grid.MustNew(3, 3) // no ports
	if _, err := Generate(context.Background(), a, Options{}); err == nil {
		t.Error("want error for array without ports")
	}
}

func TestEngineStrings(t *testing.T) {
	for _, e := range []Engine{EngineAuto, EngineSerpentine, EngineILPIterative, EngineILPMonolithic, Engine(99)} {
		if e.String() == "" {
			t.Errorf("engine %d has empty string", int(e))
		}
	}
}
