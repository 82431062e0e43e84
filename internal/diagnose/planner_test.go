package diagnose

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/grid"
	"repro/internal/sim"
)

// observation is one probe outcome fed to a session under test.
type observation struct {
	v        int
	readings []bool
}

// tableICompiled generates and compiles a Table I plan, returning its
// vectors and the options of the default (leak-candidate) universe.
func tableICompiled(t testing.TB, name string) (*sim.CompiledVectors, Options) {
	t.Helper()
	c, err := bench.FindCase(name)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := bench.Row(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := ts.Compile()
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Workers: 2}
	for _, p := range ts.LeakPairs {
		opt.LeakPairs = append(opt.LeakPairs, [2]grid.ValveID(p))
	}
	return cv, opt
}

// multiSinkCase is a 4x4 array with two meters beyond the standard one and
// 24 random vectors, so every reading is a 3-bit tuple and refinement runs
// sink by sink. The candidate universe adds random leak pairs and doubles.
func multiSinkCase(t testing.TB) (*sim.Simulator, []*sim.Vector, *sim.CompiledVectors, Options) {
	t.Helper()
	a := grid.MustNewStandard(4, 4)
	if err := a.AddSink("m2", a.HValve(0, 4)); err != nil {
		t.Fatal(err)
	}
	if err := a.AddSink("m3", a.VValve(4, 0)); err != nil {
		t.Fatal(err)
	}
	return randomVectorCase(t, a, 15)
}

// manyMeterCase is a 6x6 array with a meter on every boundary edge the
// standard ports leave free (without obstacles, exactly the Wall edges: 23
// sinks) and 24 random vectors. A scorer that
// visited every reading tuple, empty parts included, would take 2^22 steps
// per vector here.
func manyMeterCase(t testing.TB) (*sim.Simulator, []*sim.Vector, *sim.CompiledVectors, Options) {
	t.Helper()
	a := grid.MustNewStandard(6, 6)
	for id := range a.NumValves() {
		if v := grid.ValveID(id); a.Kind(v) == grid.Wall {
			if err := a.AddSink(fmt.Sprintf("m%d", id), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return randomVectorCase(t, a, 23)
}

// randomVectorCase compiles 24 random vectors (seeded) on array a, with a
// candidate universe of six random leak pairs and 60 doubles.
func randomVectorCase(t testing.TB, a *grid.Array, seed int64) (*sim.Simulator, []*sim.Vector, *sim.CompiledVectors, Options) {
	t.Helper()
	s, err := sim.New(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	normal := a.NormalValves()
	vecs := make([]*sim.Vector, 24)
	for i := range vecs {
		vecs[i] = sim.NewVector(a, sim.Custom, fmt.Sprintf("rand-%d", i))
		for _, id := range normal {
			vecs[i].SetOpen(id, rng.Intn(2) == 1)
		}
	}
	opt := Options{Workers: 2, MaxDoubles: 60}
	for len(opt.LeakPairs) < 6 {
		x, y := normal[rng.Intn(len(normal))], normal[rng.Intn(len(normal))]
		if x != y {
			opt.LeakPairs = append(opt.LeakPairs, [2]grid.ValveID{x, y})
		}
	}
	return s, vecs, s.Compile(vecs), opt
}

// observationSets returns the sessions the planners are compared on: no
// observation, one vector read both ways (nothing survives), then for a
// few seeded hidden candidates three probes of distinct vectors read off
// the table, and the same probes with the last reading flipped
// (inconsistent, or consistent with other candidates).
func observationSets(sg *Signatures, rng *rand.Rand, hidden int) [][]observation {
	golden := sg.Golden(0)
	flippedGolden := make([]bool, len(golden))
	for j, r := range golden {
		flippedGolden[j] = !r
	}
	sets := [][]observation{nil, {{0, golden}, {0, flippedGolden}}}
	for range hidden {
		c := rng.Intn(sg.NumCandidates())
		var obs []observation
		for _, v := range rng.Perm(sg.Vectors())[:min(3, sg.Vectors())] {
			r := make([]bool, sg.Sinks())
			for j := range r {
				r[j] = sg.Expected(c, v, j)
			}
			obs = append(obs, observation{v, r})
		}
		flipped := append([]observation(nil), obs...)
		last := &flipped[len(flipped)-1]
		last.readings = append([]bool(nil), last.readings...)
		j := rng.Intn(sg.Sinks())
		last.readings[j] = !last.readings[j]
		sets = append(sets, obs, flipped)
	}
	return sets
}

func replay(t testing.TB, sg *Signatures, obs []observation) *Session {
	t.Helper()
	sess := NewSession(sg)
	for _, o := range obs {
		if err := sess.Observe(o.v, o.readings); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

// assertPlannersAgree compares PlanProbes under every budget, and
// NextProbe, with the oracle on one observed session.
func assertPlannersAgree(t *testing.T, name string, sg *Signatures, obs []observation) {
	t.Helper()
	ctx := context.Background()
	for _, budget := range []int{0, 1, 3, 5} {
		sess := replay(t, sg, obs)
		want, err := oraclePlanProbes(ctx, sess, budget)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.PlanProbes(ctx, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %d observations, budget %d:\n got  %v\n want %v", name, len(obs), budget, got, want)
		}
	}
	sess := replay(t, sg, obs)
	if got, want := sess.NextProbe(), oracleNextProbe(sess); got != want {
		t.Fatalf("%s, %d observations: NextProbe %d, oracle %d", name, len(obs), got, want)
	}
}

// assertClosedLoopAgrees plays candidate c as the hidden fault, answering
// probes from the table, and compares NextProbe with the oracle every round.
func assertClosedLoopAgrees(t *testing.T, name string, sg *Signatures, c int) {
	t.Helper()
	sess := NewSession(sg)
	r := make([]bool, sg.Sinks())
	for round := 0; ; round++ {
		v := sess.NextProbe()
		if want := oracleNextProbe(sess); v != want {
			t.Fatalf("%s, hidden %d, round %d: NextProbe %d, oracle %d", name, c, round, v, want)
		}
		if v < 0 {
			return
		}
		for j := range r {
			r[j] = sg.Expected(c, v, j)
		}
		if err := sess.Observe(v, r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlannerMatchesOracle pins the incremental planner to the
// re-partitioning one it replaced: identical probe steps (vector, worst
// case, classes) for every budget and observation set, and identical
// NextProbe choices on every closed-loop round, on the Table I plans with
// their leak candidates and with 300 doubles, and on a 3-sink and a
// 23-sink array. The
// oracle needs seconds per 30x30 plan, so that array is compared on its
// leak universe with no hidden fault observed; 20x20 and 30x30 run only
// without -short and without the race detector.
func TestPlannerMatchesOracle(t *testing.T) {
	type universe struct {
		name   string
		cv     *sim.CompiledVectors
		opt    Options
		hidden int // hidden faults observed, as read and flipped
	}
	var us []universe
	large := !testing.Short() && !raceEnabled
	names := []string{"5x5", "10x10", "15x15"}
	if large {
		names = append(names, "20x20")
	}
	for _, name := range names {
		cv, opt := tableICompiled(t, name)
		doubles := opt
		doubles.MaxDoubles = 300
		us = append(us, universe{name, cv, opt, 3}, universe{name + "+doubles", cv, doubles, 3})
	}
	if large {
		cv, opt := tableICompiled(t, "30x30")
		us = append(us, universe{"30x30", cv, opt, 0})
	}
	_, _, cv, opt := multiSinkCase(t)
	us = append(us, universe{"4x4 3-sink", cv, opt, 3})
	_, _, cv, opt = manyMeterCase(t)
	us = append(us, universe{"6x6 23-sink", cv, opt, 3})

	rng := rand.New(rand.NewSource(1500))
	for _, u := range us {
		sg, err := Compile(context.Background(), u.cv, u.opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, obs := range observationSets(sg, rng, u.hidden) {
			assertPlannersAgree(t, u.name, sg, obs)
		}
		// Closed loops on about 40 evenly spaced candidates (every one
		// below 80).
		for c := 0; c < sg.NumCandidates(); c += max(1, sg.NumCandidates()/40) {
			assertClosedLoopAgrees(t, u.name, sg, c)
		}
	}
}

// TestPlanProbesCancelled: a cancelled context stops both planners before
// their first step, with the context's error.
func TestPlanProbesCancelled(t *testing.T) {
	_, _, cv, opt := multiSinkCase(t)
	sg, err := Compile(context.Background(), cv, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess := NewSession(sg)
	got, err := sess.PlanProbes(ctx, 0)
	want, werr := oraclePlanProbes(ctx, sess, 0)
	if !errors.Is(err, context.Canceled) || !errors.Is(werr, context.Canceled) || len(got) != 0 || len(want) != 0 {
		t.Fatalf("cancelled plan: %v, %v; oracle %v, %v", got, err, want, werr)
	}
}
