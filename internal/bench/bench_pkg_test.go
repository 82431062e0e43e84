package bench

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestTable1CasesValveCounts(t *testing.T) {
	// The reconstruction invariant: every benchmark array has exactly the
	// paper's nv.
	for _, c := range Table1Cases() {
		a, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if got := a.NumNormal(); got != c.PaperNV {
			t.Errorf("%s: nv=%d, paper %d", c.Name, got, c.PaperNV)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestFindCase(t *testing.T) {
	c, err := FindCase("20x20")
	if err != nil || c.Dim != 20 {
		t.Errorf("FindCase: %+v, %v", c, err)
	}
	if _, err := FindCase("7x7"); err == nil {
		t.Error("unknown case accepted")
	}
}

func TestRowSmall(t *testing.T) {
	c, err := FindCase("5x5")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Row(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Stats.NV != 39 {
		t.Errorf("NV=%d", ts.Stats.NV)
	}
	if len(ts.UncoveredPath) > 0 || len(ts.UncoveredCut) > 0 {
		t.Errorf("uncovered: %v / %v", ts.UncoveredPath, ts.UncoveredCut)
	}
	// Full detection on the benchmark array.
	escaped, err := ts.VerifySingleFaults(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(escaped) > 0 {
		t.Errorf("undetected single faults: %v", escaped)
	}
}

func TestRowMedium(t *testing.T) {
	if testing.Short() {
		t.Skip("medium benchmark array")
	}
	c, err := FindCase("10x10")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Row(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.UncoveredPath) > 0 || len(ts.UncoveredCut) > 0 {
		t.Fatalf("uncovered: %v / %v", ts.UncoveredPath, ts.UncoveredCut)
	}
	escaped, err := ts.VerifySingleFaults(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(escaped) > 0 {
		t.Errorf("undetected single faults: %v", escaped)
	}
	// Total vector count should scale like ~2*sqrt(nv), far below the
	// baseline's 2*nv.
	if ts.Stats.N >= BaselineCount(ts.Array) {
		t.Errorf("N=%d not better than baseline %d", ts.Stats.N, BaselineCount(ts.Array))
	}
}

func TestBaselineVectors(t *testing.T) {
	c, err := FindCase("5x5")
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	vecs, err := BaselineVectors(a)
	if err != nil {
		t.Fatal(err)
	}
	want := BaselineCount(a)
	if len(vecs) != want {
		t.Errorf("%d baseline vectors, want %d", len(vecs), want)
	}
	// The baseline must detect all single faults too.
	s := sim.MustNew(a)
	for _, f := range sim.AllSingleFaults(a) {
		if !s.Detects(vecs, []sim.Fault{f}) {
			t.Errorf("baseline misses %v", f)
		}
	}
}

func TestCampaignSeries(t *testing.T) {
	c, err := FindCase("5x5")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Row(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	series, err := CampaignSeries(context.Background(), ts, 200, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("%d series entries", len(series))
	}
	for k, r := range series {
		if r.Detected != r.Trials {
			t.Errorf("k=%d: %d/%d detected; escapes %v", k+1, r.Detected, r.Trials, r.Escapes)
		}
	}
}

// TestTable1Renders pins the measured Table I columns (np, nc, nl, N) of
// every benchmark array, read back from the rendered table. They are the
// oracle that changes to test generation must keep (or update on
// purpose); EXPERIMENTS.md compares them with the paper's N.
func TestTable1Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five arrays")
	}
	out, err := Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][4]int{ // np, nc, nl, N
		"5x5":   {4, 10, 2, 16},
		"10x10": {8, 26, 9, 43},
		"15x15": {14, 37, 27, 78},
		"20x20": {17, 38, 43, 98},
		"30x30": {43, 120, 68, 231},
	}
	for _, c := range Table1Cases() {
		var row string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, c.Name+" ") {
				row = line
			}
		}
		var name, top string
		var nv int
		var got [4]int
		if _, err := fmt.Sscanf(row, "%s %d %s | %d %d %d %d", &name, &nv, &top,
			&got[0], &got[1], &got[2], &got[3]); err != nil {
			t.Fatalf("%s: unparsable row %q: %v\n%s", c.Name, row, err, out)
		}
		if nv != c.PaperNV || got != want[c.Name] {
			t.Errorf("%s: nv=%d (np, nc, nl, N)=%v, want nv=%d %v", c.Name, nv, got, c.PaperNV, want[c.Name])
		}
	}
	t.Logf("\n%s", out)
}

// TestTable1Coverage pins what the Table I plans detect. The single-fault
// escapes are exactly the faults the generator declares it cannot cover:
// stuck-at-0 on UncoveredPath valves and stuck-at-1 on UncoveredCut valves
// (only 30x30 declares any). A seeded k = 1..5 CampaignSeries at a reduced
// trial count detects every trial on 5x5-20x20; on 30x30 every escape is
// recorded (there are fewer than sim.DefaultMaxEscapes) and holds a fault on
// a declared valve. EXPERIMENTS.md states the 30x30 gap.
func TestTable1Coverage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five arrays")
	}
	const trials = 2000
	for _, c := range Table1Cases() {
		ts, err := Row(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		declared := map[sim.Fault]bool{}
		for _, v := range ts.UncoveredPath {
			declared[sim.Fault{Kind: sim.StuckAt0, A: v}] = true
		}
		for _, v := range ts.UncoveredCut {
			declared[sim.Fault{Kind: sim.StuckAt1, A: v}] = true
		}
		if len(declared) > 0 && c.Name != "30x30" {
			t.Errorf("%s: declares uncovered valves %v / %v", c.Name, ts.UncoveredPath, ts.UncoveredCut)
		}
		escaped, err := ts.VerifySingleFaults(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := map[sim.Fault]bool{}
		for _, f := range escaped {
			got[f] = true
		}
		if !reflect.DeepEqual(got, declared) {
			t.Errorf("%s: single-fault escapes %v, declared uncovered %v", c.Name, escaped, declared)
		}
		onDeclared := func(fs []sim.Fault) bool {
			for _, f := range fs {
				if f.Kind != sim.ControlLeak && (declared[sim.Fault{Kind: sim.StuckAt0, A: f.A}] || declared[sim.Fault{Kind: sim.StuckAt1, A: f.A}]) {
					return true
				}
			}
			return false
		}
		series, err := CampaignSeries(context.Background(), ts, trials, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range series {
			k := i + 1
			if c.Name != "30x30" && res.Detected != res.Trials {
				t.Errorf("%s k=%d: %d of %d detected; escapes %v", c.Name, k, res.Detected, res.Trials, res.Escapes)
			}
			if len(res.Escapes) != res.Trials-res.Detected {
				t.Errorf("%s k=%d: %d escapes recorded of %d", c.Name, k, len(res.Escapes), res.Trials-res.Detected)
			}
			for _, fs := range res.Escapes {
				if !onDeclared(fs) {
					t.Errorf("%s k=%d: escape %v has no fault on a declared uncovered valve", c.Name, k, fs)
				}
			}
		}
	}
}
