package diagnose_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/grid"
	"repro/internal/sim"
)

// testCase compiles the full generated test set of a standard array.
func testCase(t *testing.T, rows, cols int) (*sim.Simulator, []*sim.Vector, *sim.CompiledVectors, diagnose.Options) {
	t.Helper()
	a := grid.MustNewStandard(rows, cols)
	ts, err := core.Generate(context.Background(), a, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cv, err := ts.Compile()
	if err != nil {
		t.Fatal(err)
	}
	opt := diagnose.Options{Workers: 2}
	for _, p := range ts.LeakPairs {
		opt.LeakPairs = append(opt.LeakPairs, [2]grid.ValveID(p))
	}
	return sim.MustNew(a), ts.AllVectors(), cv, opt
}

// candidateIndex finds the index of a fault list in the compiled universe.
func candidateIndex(t *testing.T, sg *diagnose.Signatures, faults []sim.Fault) int {
	t.Helper()
	for c := 0; c < sg.NumCandidates(); c++ {
		if reflect.DeepEqual(sg.Candidate(c), faults) {
			return c
		}
	}
	t.Fatalf("candidate %v not in universe", faults)
	return -1
}

// closedLoop drives a session to completion by answering every suggested
// probe with the simulator's readings under the hidden fault, and returns
// the probe sequence.
func closedLoop(t *testing.T, s *sim.Simulator, vecs []*sim.Vector, sess *diagnose.Session, hidden []sim.Fault) []int {
	t.Helper()
	var probes []int
	for {
		v := sess.NextProbe()
		if v < 0 {
			return probes
		}
		if err := sess.Observe(v, s.Readings(vecs[v], hidden)); err != nil {
			t.Fatal(err)
		}
		probes = append(probes, v)
		if len(probes) > len(vecs) {
			t.Fatalf("hidden %v: %d probes exceed the %d plan vectors", hidden, len(probes), len(vecs))
		}
	}
}

// TestOracleSingleFaultIsolation is the brute-force oracle of the
// acceptance criteria: on small arrays, every injectable candidate fault —
// fault-free, every stuck-at, every leak pair — must isolate to a singleton
// or a provably indistinguishable class (identical readings under every
// vector, checked against the scalar simulator), within len(vectors)
// probes, with the true fault always inside the final ambiguity set. The
// 3-sink 4x4 array (random vectors, leak pairs and doubles) runs the
// refinement sink by sink.
func TestOracleSingleFaultIsolation(t *testing.T) {
	type array struct {
		name string
		s    *sim.Simulator
		vecs []*sim.Vector
		cv   *sim.CompiledVectors
		opt  diagnose.Options
	}
	var arrays []array
	for _, dim := range [][2]int{{3, 3}, {4, 4}} {
		s, vecs, cv, opt := testCase(t, dim[0], dim[1])
		arrays = append(arrays, array{fmt.Sprintf("%dx%d", dim[0], dim[1]), s, vecs, cv, opt})
	}
	s, vecs, cv, opt := diagnose.MultiSinkCase(t)
	arrays = append(arrays, array{"4x4 3-sink", s, vecs, cv, opt})
	for _, a := range arrays {
		s, vecs := a.s, a.vecs
		sg, err := diagnose.Compile(context.Background(), a.cv, a.opt)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < sg.NumCandidates(); c++ {
			hidden := sg.Candidate(c)
			sess := diagnose.NewSession(sg)
			closedLoop(t, s, vecs, sess, hidden)
			if !sess.Done() {
				t.Fatalf("%s hidden %v: session not done after probing stopped", a.name, hidden)
			}
			alive := sess.Alive()
			found := false
			for _, m := range alive {
				if m == c {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s hidden %v: true candidate eliminated; alive=%v", a.name, hidden, alive)
			}
			// Every surviving pair must be indistinguishable under every
			// vector — verified against the scalar simulator, not the table.
			for _, m := range alive {
				for _, n := range alive {
					if m >= n {
						continue
					}
					for vi, vec := range vecs {
						ra := s.Readings(vec, sg.Candidate(m))
						rb := s.Readings(vec, sg.Candidate(n))
						if !reflect.DeepEqual(ra, rb) {
							t.Fatalf("%s hidden %v: survivors %v and %v differ on vector %d",
								a.name, hidden, sg.Candidate(m), sg.Candidate(n), vi)
						}
					}
				}
			}
		}
	}
}

// TestDeterminismAcrossWorkersAndEngines pins the satellite contract:
// ambiguity sets and probe order are bit-identical for workers {1,2,4},
// and the word-engine signature table matches the scalar simulator's
// readings cell for cell (the sim package diff-tests the same engines on
// random arrays).
func TestDeterminismAcrossWorkersAndEngines(t *testing.T) {
	s, vecs, cv, opt := testCase(t, 4, 4)
	type outcome struct {
		probes []int
		alive  []int
	}
	var want []outcome
	for _, workers := range []int{1, 2, 4} {
		o := opt
		o.Workers = workers
		sg, err := diagnose.Compile(context.Background(), cv, o)
		if err != nil {
			t.Fatal(err)
		}
		var got []outcome
		for c := 0; c < sg.NumCandidates(); c += 7 {
			sess := diagnose.NewSession(sg)
			probes := closedLoop(t, s, vecs, sess, sg.Candidate(c))
			got = append(got, outcome{probes: probes, alive: sess.Alive()})
		}
		if want == nil {
			want = got
			for c := 0; c < sg.NumCandidates(); c++ {
				for v, vec := range vecs {
					for j, r := range s.Readings(vec, sg.Candidate(c)) {
						if sg.Expected(c, v, j) != r {
							t.Fatalf("candidate %d vector %d sink %d: table %t, scalar simulator %t", c, v, j, !r, r)
						}
					}
				}
			}
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: probe order or ambiguity sets diverge", workers)
		}
	}
}

// TestPlanProbesDistinguishes checks the static probe plan: after observing
// nothing, the suggested sequence must drive the worst-case ambiguity down
// to the size of the largest signature class of the universe (no static
// plan can do better), with non-increasing worst cases along the way.
func TestPlanProbesDistinguishes(t *testing.T) {
	_, _, cv, opt := testCase(t, 4, 4)
	sg, err := diagnose.Compile(context.Background(), cv, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Largest signature class of the whole universe.
	classes := sg.Classes(sg.NewSet())
	wantWorst := 0
	for _, cl := range classes {
		if len(cl) > wantWorst {
			wantWorst = len(cl)
		}
	}
	steps, err := diagnose.NewSession(sg).PlanProbes(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 || len(steps) > sg.Vectors() {
		t.Fatalf("%d steps for %d vectors", len(steps), sg.Vectors())
	}
	last := 1 << 30
	for _, st := range steps {
		if st.WorstCase > last {
			t.Fatalf("worst case grew: %+v", steps)
		}
		last = st.WorstCase
	}
	if last != wantWorst {
		t.Fatalf("final worst case %d, want %d (largest signature class)", last, wantWorst)
	}
}

// TestFaultFreeStaysAlive observes golden readings on every vector: the
// fault-free candidate must survive, and the session must be done.
func TestFaultFreeStaysAlive(t *testing.T) {
	s, vecs, cv, opt := testCase(t, 4, 4)
	sg, err := diagnose.Compile(context.Background(), cv, opt)
	if err != nil {
		t.Fatal(err)
	}
	sess := diagnose.NewSession(sg)
	probes := closedLoop(t, s, vecs, sess, nil)
	if len(probes) == 0 {
		t.Fatal("no probes suggested for an unconstrained universe")
	}
	alive := sess.Alive()
	if len(alive) == 0 || alive[0] != 0 {
		t.Fatalf("fault-free candidate not alive after golden observations: %v", alive)
	}
}

// TestObservationValidation pins the error surface of malformed
// observations.
func TestObservationValidation(t *testing.T) {
	_, _, cv, opt := testCase(t, 3, 3)
	sg, err := diagnose.Compile(context.Background(), cv, opt)
	if err != nil {
		t.Fatal(err)
	}
	sess := diagnose.NewSession(sg)
	if err := sess.Observe(-1, make([]bool, sg.Sinks())); err == nil {
		t.Fatal("negative vector accepted")
	}
	if err := sess.Observe(sg.Vectors(), make([]bool, sg.Sinks())); err == nil {
		t.Fatal("out-of-range vector accepted")
	}
	if err := sess.Observe(0, make([]bool, sg.Sinks()+1)); err == nil {
		t.Fatal("wrong reading arity accepted")
	}
}

// TestDoubleFaultCandidates bounds and orders the double-fault universe.
func TestDoubleFaultCandidates(t *testing.T) {
	a := grid.MustNewStandard(3, 3)
	singles := len(sim.AllSingleFaults(a))
	cands := diagnose.Candidates(a, diagnose.Options{MaxDoubles: 10})
	if len(cands) != 1+singles+10 {
		t.Fatalf("got %d candidates, want %d", len(cands), 1+singles+10)
	}
	for _, c := range cands[1+singles:] {
		if len(c) != 2 || c[0].A == c[1].A {
			t.Fatalf("malformed double candidate %v", c)
		}
	}
}
