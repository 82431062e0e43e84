package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/cutset"
	"repro/internal/flowpath"
	"repro/internal/grid"
	"repro/internal/ilp"
)

// goldenPlan is one array's pinned ILP-engine answer in
// testdata/ilp_golden.json: the valves of every path and cut in order, the
// ILP solve count, and the branch-and-bound node count of a serial run
// when the answers were recorded.
type goldenPlan struct {
	Name   string           `json:"name"`
	Paths  [][]grid.ValveID `json:"paths"`
	Cuts   [][]grid.ValveID `json:"cuts"`
	Solves int              `json:"solves"`
	Nodes  int              `json:"nodes"`
}

// goldenArrays are the arrays testdata/ilp_golden.json pins, in file
// order: standard arrays from 3x3 to 5x5 and 4x4 channel and obstacle
// layouts.
func goldenArrays(t *testing.T) (names []string, arrays []*grid.Array) {
	t.Helper()
	for _, d := range [][2]int{{3, 3}, {3, 4}, {4, 4}, {4, 5}, {5, 4}, {5, 5}} {
		names = append(names, fmt.Sprintf("std %dx%d", d[0], d[1]))
		arrays = append(arrays, grid.MustNewStandard(d[0], d[1]))
	}
	layouts := []struct {
		name  string
		build func(a *grid.Array) (int, error)
	}{
		{"4x4 channel H(1,1..2)", func(a *grid.Array) (int, error) { return a.SetChannelH(1, 1, 2) }},
		{"4x4 channel V(2,0..1)", func(a *grid.Array) (int, error) { return a.SetChannelV(2, 0, 1) }},
		{"4x4 obstacle (1,2)", func(a *grid.Array) (int, error) { return a.SetObstacle(1, 2) }},
		{"4x4 obstacle (2,1) channel H(0,1..2)", func(a *grid.Array) (int, error) {
			if _, err := a.SetObstacle(2, 1); err != nil {
				return 0, err
			}
			return a.SetChannelH(0, 1, 2)
		}},
	}
	for _, l := range layouts {
		a := grid.MustNewStandard(4, 4)
		if _, err := l.build(a); err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		names = append(names, l.name)
		arrays = append(arrays, a)
	}
	return names, arrays
}

// generateILP runs the paper's ILP engines (iterative path model, cut
// model) on a with the given branch-and-bound worker count.
func generateILP(t *testing.T, name string, a *grid.Array, workers int) goldenPlan {
	t.Helper()
	ts, err := Generate(context.Background(), a, Config{
		FlowPath:    flowpath.Options{Engine: flowpath.EngineILPIterative, ILP: ilp.Options{Workers: workers}},
		CutSet:      cutset.Options{Engine: cutset.EngineILP, ILP: ilp.Options{Workers: workers}},
		SkipLeakage: true,
	})
	if err != nil {
		t.Fatalf("%s workers=%d: %v", name, workers, err)
	}
	if ts.Stats.PathILPNonOptimal != 0 || ts.Stats.CutILPNonOptimal != 0 {
		t.Fatalf("%s workers=%d: a solve stopped before proving optimality", name, workers)
	}
	g := goldenPlan{Name: name, Solves: ts.Stats.ILPSolves, Nodes: ts.Stats.ILPNodes}
	for _, p := range ts.Paths {
		g.Paths = append(g.Paths, p.Valves)
	}
	for _, c := range ts.Cuts {
		g.Cuts = append(g.Cuts, c.Valves)
	}
	return g
}

func equalValveLists(a, b [][]grid.ValveID) bool {
	return slices.EqualFunc(a, b, func(x, y []grid.ValveID) bool { return slices.Equal(x, y) })
}

// TestILPGolden pins the ILP engines' paths and cuts to the answers
// recorded before the branch-and-bound pruned equal-bound nodes that lose
// the (obj, path) tie-break, for 1, 2 and 4 solver workers. The solve
// count must match the recording, and a serial run may explore no more
// nodes than it did.
func TestILPGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/ilp_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenPlan
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names, arrays := goldenArrays(t)
	if len(want) != len(arrays) {
		t.Fatalf("golden file has %d plans for %d arrays", len(want), len(arrays))
	}
	for i, a := range arrays {
		w := want[i]
		if w.Name != names[i] {
			t.Fatalf("golden plan %d is %q, want %q", i, w.Name, names[i])
		}
		t.Run(w.Name, func(t *testing.T) {
			if raceEnabled && w.Name == "std 4x5" {
				// One warm-started root LP of its cut model runs to the
				// 37,800-iteration cap before the cold retry solves it:
				// 0.8 s per generation, 16 s under -race.
				t.Skip("too slow under -race; plain runs cover it")
			}
			for _, workers := range []int{1, 2, 4} {
				got := generateILP(t, w.Name, a, workers)
				if !equalValveLists(got.Paths, w.Paths) {
					t.Fatalf("workers=%d: paths %v, want %v", workers, got.Paths, w.Paths)
				}
				if !equalValveLists(got.Cuts, w.Cuts) {
					t.Fatalf("workers=%d: cuts %v, want %v", workers, got.Cuts, w.Cuts)
				}
				if got.Solves != w.Solves {
					t.Errorf("workers=%d: %d ILP solves, recorded %d", workers, got.Solves, w.Solves)
				}
				if workers == 1 && got.Nodes > w.Nodes {
					t.Errorf("%d serial nodes, recorded %d", got.Nodes, w.Nodes)
				}
			}
		})
	}
}
