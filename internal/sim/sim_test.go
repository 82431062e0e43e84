package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

// lPath builds the canonical L-shaped flow path on a standard array: east
// along row 0, then south along the last column to the sink.
func lPath(a *grid.Array) *Vector {
	v := NewVector(a, FlowPath, "L")
	for c := 1; c < a.NC(); c++ {
		v.SetOpen(a.HValve(0, c), true)
	}
	for r := 1; r < a.NR(); r++ {
		v.SetOpen(a.VValve(r, a.NC()-1), true)
	}
	return v
}

// columnCut closes the vertical line of H valves at column boundary c and
// opens every other Normal valve.
func columnCut(a *grid.Array, c int) *Vector {
	v := NewVector(a, CutSet, "col-cut")
	for _, id := range a.NormalValves() {
		v.SetOpen(id, true)
	}
	for r := 0; r < a.NR(); r++ {
		if id := a.HValve(r, c); a.Kind(id) == grid.Normal {
			v.SetOpen(id, false)
		}
	}
	return v
}

func TestFaultFreeReadings(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	if got := s.Readings(lPath(a), nil); len(got) != 1 || !got[0] {
		t.Errorf("L path readings %v, want [true]", got)
	}
	closed := NewVector(a, Custom, "all-closed")
	if got := s.Readings(closed, nil); got[0] {
		t.Error("all-closed vector must not pressurize the sink")
	}
}

func TestStuckAt0OnPath(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	vec := lPath(a)
	f := []Fault{{Kind: StuckAt0, A: a.HValve(0, 1)}}
	if got := s.Readings(vec, f); got[0] {
		t.Error("stuck-at-0 on the path should kill sink pressure")
	}
	if !s.Detects([]*Vector{vec}, f) {
		t.Error("Detects should report the on-path stuck-at-0")
	}
}

func TestStuckAt0OffPathUndetectedByPath(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	vec := lPath(a)
	f := []Fault{{Kind: StuckAt0, A: a.VValve(1, 0)}} // far from the L path
	if s.Detects([]*Vector{vec}, f) {
		t.Error("off-path stuck-at-0 must not change this vector's readings")
	}
}

func TestStuckAt1DetectedByCut(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	cut := columnCut(a, 2)
	if err := s.VerifyCutVector(cut); err != nil {
		t.Fatalf("cut invalid: %v", err)
	}
	for r := 0; r < 3; r++ {
		f := []Fault{{Kind: StuckAt1, A: a.HValve(r, 2)}}
		if got := s.Readings(cut, f); !got[0] {
			t.Errorf("stuck-at-1 on cut valve H(%d,2) should leak pressure to the sink", r)
		}
	}
	// Stuck-at-1 elsewhere must not break the cut.
	f := []Fault{{Kind: StuckAt1, A: a.HValve(0, 1)}}
	if got := s.Readings(cut, f); got[0] {
		t.Error("stuck-at-1 off the cut must stay blocked")
	}
}

func TestControlLeak(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	vec := lPath(a)
	onPath := a.HValve(0, 1)
	offPath := a.VValve(1, 0) // commanded closed in the path vector
	// Leak couples the off-path (closed) valve with the on-path valve:
	// commanding offPath closed also closes onPath, killing the pressure.
	f := []Fault{{Kind: ControlLeak, A: offPath, B: onPath}}
	if got := s.Readings(vec, f); got[0] {
		t.Error("control leak should close the on-path partner")
	}
	// If both partners are commanded open, the leak is dormant.
	both := lPath(a)
	both.SetOpen(offPath, true)
	if got := s.Readings(both, f); !got[0] {
		t.Error("leak with both partners open must be dormant")
	}
}

func TestStuckAt1BeatsControlLeak(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	vec := lPath(a)
	onPath := a.HValve(0, 1)
	offPath := a.VValve(1, 0)
	f := []Fault{
		{Kind: ControlLeak, A: offPath, B: onPath},
		{Kind: StuckAt1, A: onPath}, // physically cannot close
	}
	if got := s.Readings(vec, f); !got[0] {
		t.Error("stuck-at-1 valve must stay open despite the leak")
	}
}

func TestChannelAlwaysOpen(t *testing.T) {
	a := grid.MustNewStandard(1, 4)
	if _, err := a.SetChannelH(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	s := MustNew(a)
	vec := NewVector(a, FlowPath, "via-channel")
	vec.SetOpen(a.HValve(0, 1), true) // the only remaining Normal valve
	if got := s.Readings(vec, nil); !got[0] {
		t.Error("channel edges must pass pressure without being commanded")
	}
}

func TestObstacleBlocks(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	if _, err := a.SetObstacle(1, 1); err != nil {
		t.Fatal(err)
	}
	s := MustNew(a)
	all := NewVector(a, Custom, "all-open")
	for _, id := range a.NormalValves() {
		all.SetOpen(id, true)
	}
	// Pressure everywhere except the obstacle cell: sink still reachable
	// around the obstacle.
	if got := s.Readings(all, nil); !got[0] {
		t.Error("sink should be reachable around the obstacle")
	}
}

func TestMultipleSinks(t *testing.T) {
	a := grid.MustNew(2, 2)
	if err := a.AddSource("s", a.HValve(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := a.AddSink("m1", a.HValve(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := a.AddSink("m2", a.HValve(1, 2)); err != nil {
		t.Fatal(err)
	}
	s := MustNew(a)
	if got := s.sinkNames; len(got) != 2 || got[0] != "m1" || got[1] != "m2" {
		t.Fatalf("sink names %v", got)
	}
	vec := NewVector(a, Custom, "top-row")
	vec.SetOpen(a.HValve(0, 1), true)
	got := s.Readings(vec, nil)
	if !got[0] || got[1] {
		t.Errorf("readings %v, want [true false]", got)
	}
}

func TestDetectingVector(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	vecs := []*Vector{columnCut(a, 1), lPath(a)}
	f := []Fault{{Kind: StuckAt0, A: a.HValve(0, 1)}}
	// The cut vector cannot see a stuck-at-0; the path vector can.
	if got := s.DetectingVector(vecs, f); got != 1 {
		t.Errorf("DetectingVector = %d, want 1", got)
	}
	if got := s.DetectingVector(vecs[:1], f); got != -1 {
		t.Errorf("cut-only DetectingVector = %d, want -1", got)
	}
}

func TestVerifyPathVector(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	if err := s.VerifyPathVector(lPath(a)); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	empty := NewVector(a, FlowPath, "empty")
	if err := s.VerifyPathVector(empty); err == nil {
		t.Error("empty path accepted")
	}
	// A path that never reaches the sink.
	dangling := NewVector(a, FlowPath, "dangling")
	dangling.SetOpen(a.HValve(0, 1), true)
	if err := s.VerifyPathVector(dangling); err == nil {
		t.Error("dangling path accepted")
	}
}

func TestVerifyPathVectorRejectsBranch(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	branchy := lPath(a)
	// A third open valve at cell (0,1) makes it touch 3 open valves.
	branchy.SetOpen(a.VValve(1, 1), true)
	if err := s.VerifyPathVector(branchy); err == nil {
		t.Error("branching path accepted")
	}
}

func TestVerifyPathVectorRejectsDetachedLoop(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	loopy := lPath(a)
	// A 2x1-cell loop away from the path: cells (1,0),(2,0),(1,1),(2,1).
	loopy.SetOpen(a.HValve(1, 1), true) // (1,0)-(1,1)
	loopy.SetOpen(a.HValve(2, 1), true) // (2,0)-(2,1)
	loopy.SetOpen(a.VValve(2, 0), true) // (1,0)-(2,0)
	loopy.SetOpen(a.VValve(2, 1), true) // (1,1)-(2,1)
	if err := s.VerifyPathVector(loopy); err == nil {
		t.Error("path plus detached loop accepted")
	}
}

func TestVerifyPathVectorRejectsDanglingSpur(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	// Two disjoint segments: the valid L path plus one stray interior valve
	// whose segment ends away from any port or channel.
	spur := lPath(a)
	spur.SetOpen(a.VValve(2, 0), true) // (1,0)-(2,0), both interior, deg 1
	if err := s.VerifyPathVector(spur); err == nil {
		t.Error("path with dangling spur accepted")
	}
}

func TestVerifyCutVector(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	if err := s.VerifyCutVector(columnCut(a, 2)); err != nil {
		t.Errorf("valid cut rejected: %v", err)
	}
	leaky := columnCut(a, 2)
	leaky.SetOpen(a.HValve(1, 2), true) // hole in the cut
	if err := s.VerifyCutVector(leaky); err == nil {
		t.Error("leaky cut accepted")
	}
}

func TestCampaignDetectsWithGoodVectors(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	// A small complete-ish set: the L path plus one path covering the rest,
	// plus all column and row cuts. Rather than hand-build completeness,
	// just assert the campaign runs deterministically and detection is
	// counted consistently.
	vecs := []*Vector{lPath(a), columnCut(a, 1), columnCut(a, 2)}
	r1 := mustCampaign(t, s, vecs, CampaignConfig{Trials: 200, NumFaults: 1, Seed: 5})
	r2 := mustCampaign(t, s, vecs, CampaignConfig{Trials: 200, NumFaults: 1, Seed: 5})
	if r1.Detected != r2.Detected {
		t.Errorf("campaign not deterministic: %d vs %d", r1.Detected, r2.Detected)
	}
	if r1.Trials != 200 {
		t.Errorf("trials %d", r1.Trials)
	}
	if r1.DetectionRate() < 0 || r1.DetectionRate() > 1 {
		t.Errorf("rate %v", r1.DetectionRate())
	}
	// Escapes recorded when not detected.
	if r1.Detected < r1.Trials && len(r1.Escapes) == 0 {
		t.Error("escapes not recorded")
	}
}

func TestCampaignWithLeakPairs(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	s := MustNew(a)
	pairs := [][2]grid.ValveID{{a.HValve(0, 1), a.HValve(1, 1)}}
	res := mustCampaign(t, s, []*Vector{lPath(a)}, CampaignConfig{
		Trials: 100, NumFaults: 2, Seed: 9, LeakPairs: pairs,
	})
	if res.Trials != 100 {
		t.Errorf("trials %d", res.Trials)
	}
}

func TestAllSingleFaults(t *testing.T) {
	a := grid.MustNewStandard(2, 2)
	fs := AllSingleFaults(a)
	if len(fs) != 2*a.NumNormal() {
		t.Errorf("%d faults, want %d", len(fs), 2*a.NumNormal())
	}
}

func TestRandomFaultsDistinctValves(t *testing.T) {
	a := grid.MustNewStandard(4, 4)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		fs := randomFaults(rng, a.NormalValves(), CampaignConfig{NumFaults: 5})
		seen := make(map[grid.ValveID]bool)
		for _, f := range fs {
			if seen[f.A] {
				t.Fatalf("trial %d: duplicate valve %d", trial, f.A)
			}
			seen[f.A] = true
		}
		if len(fs) != 5 {
			t.Fatalf("trial %d: %d faults", trial, len(fs))
		}
	}
}

// TestQuickMaskedPairStillMaskedBothWays encodes the Fig. 5(c)/(d) masking
// scenario: a stuck-at-0 on the open path plus a stuck-at-1 elsewhere can
// mask; detection must at least be monotone in the sense that removing all
// faults always yields fault-free readings.
func TestQuickFaultFreeIsBaseline(t *testing.T) {
	a := grid.MustNewStandard(3, 4)
	s := MustNew(a)
	normal := a.NormalValves()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vec := NewVector(a, Custom, "rand")
		for _, id := range normal {
			vec.SetOpen(id, rng.Intn(2) == 1)
		}
		base := s.Readings(vec, nil)
		again := s.Readings(vec, []Fault{})
		for i := range base {
			if base[i] != again[i] {
				return false
			}
		}
		return !s.Detects([]*Vector{vec}, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickStuckAt1NeverReducesReach: opening extra valves can only extend
// reachability — a stuck-at-1 fault must never turn a pressurized sink dark.
func TestQuickStuckAt1NeverReducesReach(t *testing.T) {
	a := grid.MustNewStandard(3, 4)
	s := MustNew(a)
	normal := a.NormalValves()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vec := NewVector(a, Custom, "rand")
		for _, id := range normal {
			vec.SetOpen(id, rng.Intn(2) == 1)
		}
		fault := []Fault{{Kind: StuckAt1, A: normal[rng.Intn(len(normal))]}}
		base := s.Readings(vec, nil)
		faulty := s.Readings(vec, fault)
		for i := range base {
			if base[i] && !faulty[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestStrings(t *testing.T) {
	if FlowPath.String() == "" || CutSet.String() == "" || Leakage.String() == "" || Custom.String() == "" {
		t.Error("VectorKind strings")
	}
	if StuckAt0.String() != "stuck-at-0" || StuckAt1.String() != "stuck-at-1" {
		t.Error("FaultKind strings")
	}
	f := Fault{Kind: ControlLeak, A: 1, B: 2}
	if f.String() != "control-leak(1,2)" {
		t.Errorf("fault string %q", f.String())
	}
}

// TestControlLeakIgnoresNonNormalValves pins the fault-model guard: a
// ControlLeak naming a Channel or PortOpen valve on either side is
// physically meaningless (those edges have no control channel) and must not
// force an always-open edge closed through the public Readings/Detects
// surface.
func TestControlLeakIgnoresNonNormalValves(t *testing.T) {
	a := grid.MustNewStandard(1, 4)
	if _, err := a.SetChannelH(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	s := MustNew(a)
	normal := a.HValve(0, 1)  // the only remaining Normal valve
	channel := a.HValve(0, 2) // transportation channel, always open
	port := a.HValve(0, 0)    // source port edge, always open
	vec := NewVector(a, FlowPath, "via-channel")
	vec.SetOpen(normal, true)
	base := s.Readings(vec, nil)
	if len(base) != 1 || !base[0] {
		t.Fatalf("fault-free readings %v, want [true]", base)
	}
	for _, faults := range [][]Fault{
		{{Kind: ControlLeak, A: channel, B: normal}},
		{{Kind: ControlLeak, A: normal, B: channel}},
		{{Kind: ControlLeak, A: port, B: normal}},
		{{Kind: ControlLeak, A: channel, B: port}},
	} {
		if got := s.Readings(vec, faults); !got[0] {
			t.Errorf("leak %v force-closed a non-Normal valve: readings %v", faults[0], got)
		}
		if s.Detects([]*Vector{vec}, faults) {
			t.Errorf("leak %v on a non-Normal valve must be undetectable", faults[0])
		}
	}
	// The guard must not weaken real leaks: both partners Normal still trips.
	a2 := grid.MustNewStandard(3, 3)
	s2 := MustNew(a2)
	vec2 := lPath(a2)
	real := []Fault{{Kind: ControlLeak, A: a2.VValve(1, 0), B: a2.HValve(0, 1)}}
	if got := s2.Readings(vec2, real); got[0] {
		t.Error("Normal-Normal leak no longer closes its partner")
	}
}

// TestVerifyPathVectorSplitSegmentBothEndpoints exercises the loop/split
// error through the endpoint-pressurization scan: a degree-valid segment
// whose both termini are channel cells, disconnected from every source,
// must be rejected even though the degree and terminus checks pass.
func TestVerifyPathVectorSplitSegmentBothEndpoints(t *testing.T) {
	a := grid.MustNewStandard(4, 4)
	// Channel along row 3, cells (3,0)..(3,2): term cells away from the path.
	if _, err := a.SetChannelH(3, 0, 2); err != nil {
		t.Fatal(err)
	}
	s := MustNew(a)
	split := lPath(a)
	// Detached U: (3,0)-(2,0)-(2,1)-(3,1). Interior cells have degree 2 and
	// both degree-1 ends sit on channel cells, so only the pressurization
	// scan can catch it.
	split.SetOpen(a.VValve(3, 0), true)
	split.SetOpen(a.HValve(2, 1), true)
	split.SetOpen(a.VValve(3, 1), true)
	err := s.VerifyPathVector(split)
	if err == nil {
		t.Fatal("split segment accepted")
	}
	if want := "loops or is split"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
	// The valid L path alone still verifies on the channel-bearing array.
	if err := s.VerifyPathVector(lPath(a)); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
}
