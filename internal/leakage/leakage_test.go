package leakage

import (
	"context"
	"testing"

	"repro/internal/flowpath"
	"repro/internal/grid"
	"repro/internal/sim"
)

func TestPairsFullArray(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	pairs := Pairs(a)
	// 3x3: each row has 2 interior H valves -> 1 in-row pair, 3 rows; same
	// for V by column. Total 6.
	if len(pairs) != 6 {
		t.Errorf("%d pairs, want 6", len(pairs))
	}
	seen := make(map[Pair]bool)
	for _, p := range pairs {
		if p[0] >= p[1] {
			t.Errorf("pair %v not normalized", p)
		}
		if a.Kind(p[0]) != grid.Normal || a.Kind(p[1]) != grid.Normal {
			t.Errorf("pair %v touches non-normal valve", p)
		}
		if seen[p] {
			t.Errorf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestPairsSkipChannelsAndObstacles(t *testing.T) {
	a := grid.MustNewStandard(5, 5)
	if _, err := a.SetObstacle(2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SetChannelH(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	for _, p := range Pairs(a) {
		for _, v := range p {
			if a.Kind(v) != grid.Normal {
				t.Fatalf("pair %v includes %v valve", p, a.Kind(v))
			}
		}
	}
}

func TestGenerateCoversAllPairs(t *testing.T) {
	a := grid.MustNewStandard(4, 4)
	res, err := Generate(context.Background(), a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Uncovered) > 0 {
		t.Fatalf("uncovered pairs: %v", res.Uncovered)
	}
	s := sim.MustNew(a)
	for _, p := range res.Pairs {
		found := false
		for _, vec := range res.Vectors {
			if Covers(s, vec, p) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("pair %v not covered", p)
		}
	}
}

func TestGenerateReusesExistingVectors(t *testing.T) {
	a := grid.MustNewStandard(5, 5)
	fp, err := flowpath.Generate(context.Background(), a, flowpath.Options{})
	if err != nil {
		t.Fatal(err)
	}
	withPaths, err := Generate(context.Background(), a, fp.Vectors(a))
	if err != nil {
		t.Fatal(err)
	}
	standalone, err := Generate(context.Background(), a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(withPaths.Vectors) > len(standalone.Vectors) {
		t.Errorf("reuse produced more vectors (%d) than standalone (%d)",
			len(withPaths.Vectors), len(standalone.Vectors))
	}
}

func TestVectorsDetectInjectedLeaks(t *testing.T) {
	a := grid.MustNewStandard(4, 4)
	res, err := Generate(context.Background(), a, nil)
	if err != nil {
		t.Fatal(err)
	}
	cv := sim.MustNew(a).Compile(res.Vectors)
	for _, p := range res.Pairs {
		fault := []sim.Fault{{Kind: sim.ControlLeak, A: p[0], B: p[1]}}
		if !cv.Detects(fault) {
			t.Fatalf("injected leak %v escapes the vector set", p)
		}
	}
}

func TestVectorKindAndNames(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	res, err := Generate(context.Background(), a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vectors) == 0 {
		t.Fatal("no leak vectors generated")
	}
	for _, v := range res.Vectors {
		if v.Kind != sim.Leakage {
			t.Errorf("kind %v", v.Kind)
		}
		if v.Name == "" {
			t.Error("unnamed vector")
		}
	}
}

func TestGenerateRejectsPortlessArray(t *testing.T) {
	if _, err := Generate(context.Background(), grid.MustNew(3, 3), nil); err == nil {
		t.Error("want error")
	}
}

func TestVectorCountStaysSmall(t *testing.T) {
	// Table I reports nl in the single digits for 5x5 and 10x10; the
	// generator should stay in that ballpark.
	a := grid.MustNewStandard(5, 5)
	res, err := Generate(context.Background(), a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vectors) > 12 {
		t.Errorf("%d leak vectors for 5x5; expected a small set", len(res.Vectors))
	}
}
