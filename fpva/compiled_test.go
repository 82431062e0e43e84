package fpva

import (
	"bytes"
	"context"
	"slices"
	"testing"
)

// copyOf decodes a fresh copy of the plan, as every upload to fpvad does.
func copyOf(t *testing.T, p *Plan) *Plan {
	t.Helper()
	q, err := decodePlan(encodePlan(p, true))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// generated returns the plan of a Table I array.
func generated(t *testing.T, name string) *Plan {
	t.Helper()
	a, err := BenchmarkArray(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Generate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCompiledKey pins what the compiled cache's key covers: a generated
// plan and its decoded copy share it (the standard ports attach in scan
// order), vector names and timings do not move it, and a changed vector
// does.
func TestCompiledKey(t *testing.T) {
	p := generated(t, "5x5")
	q := copyOf(t, p)
	key := compiledKey(p)
	if compiledKey(q) != key {
		t.Fatal("a decoded copy has a different compiled key")
	}
	q.ts.PathVectors[0].Name = "renamed"
	q.ts.Stats.TP, q.ts.Stats.T = 0, 0
	if compiledKey(q) != key {
		t.Fatal("vector names or timings moved the compiled key")
	}
	v := q.ts.CutVectors[0]
	id := q.a.g.NormalValves()[0]
	v.SetOpen(id, !v.Open(id))
	if compiledKey(q) == key {
		t.Fatal("a changed vector kept the compiled key")
	}
}

// TestPlanKeyPortOrder: two arrays that differ only in which sink attaches
// first have the same text, but not the same plan. Each generate job must
// return a plan whose sinks read in its own array's order.
func TestPlanKeyPortOrder(t *testing.T) {
	svc := NewService()
	defer svc.Close()
	src, x, y := WithSource("in", H(0, 0)), WithSink("x", H(3, 4)), WithSink("y", V(4, 1))
	for _, ports := range [][]ArrayOption{{src, x, y}, {src, y, x}} {
		a, err := NewArray(4, 4, ports...)
		if err != nil {
			t.Fatal(err)
		}
		p, err := generateOn(t, svc, a).Plan()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sinkPorts(p.Array()), sinkPorts(a); !slices.Equal(got, want) {
			t.Errorf("array with sinks %v got a plan whose sinks read %v", want, got)
		}
	}
	if st := svc.Stats(); st.Solves != 2 {
		t.Errorf("two port orders cost %d solves, want 2", st.Solves)
	}
}

// TestPlanKeySerpentineIsAuto: PathEngineAuto and PathEngineSerpentine
// run the same generator, so a serpentine request after a default one is a
// cache hit on the same bytes.
func TestPlanKeySerpentineIsAuto(t *testing.T) {
	svc := NewService()
	defer svc.Close()
	a, err := NewArray(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := generateOn(t, svc, a).PlanBytes()
	if err != nil {
		t.Fatal(err)
	}
	serp, err := generateOn(t, svc, a, WithPathEngine(PathEngineSerpentine)).PlanBytes()
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Solves != 1 || st.CacheHits != 1 {
		t.Errorf("a default and a serpentine request cost %d solves and %d cache hits, want 1 and 1", st.Solves, st.CacheHits)
	}
	if !bytes.Equal(serp, auto) {
		t.Error("the serpentine request served other bytes than the default one")
	}
}

// TestServiceLeavesPlanUncompiled: service jobs take their compiled state
// from the service's own cache and never store it on the submitted plan,
// so a retained job cannot pin vectors or signature tables through its
// input plan.
func TestServiceLeavesPlanUncompiled(t *testing.T) {
	ctx := context.Background()
	p := copyOf(t, generated(t, "5x5"))
	svc := NewService(WithServiceWorkers(1))
	defer svc.Close()
	for _, submit := range []func() (*Job, error){
		func() (*Job, error) { return svc.SubmitDiagnose(ctx, p, nil) },
		func() (*Job, error) { return svc.SubmitCampaign(ctx, p, WithTrials(200)) },
		func() (*Job, error) { return svc.SubmitVerify(ctx, p, 100) },
	} {
		j, err := submit()
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		p.mu.Lock()
		held := p.compiled
		p.mu.Unlock()
		if held != nil {
			t.Fatalf("a %v job left compiled state on its input plan", j.Kind())
		}
	}
	if st := svc.Stats(); st.CompileMisses != 1 || st.CompileHits != 2 {
		t.Errorf("CompileMisses=%d CompileHits=%d, want 1 and 2", st.CompileMisses, st.CompileHits)
	}
}

// TestGenerateHitUnpinned: a campaign on a generated plan compiles onto
// that plan alone. The plan cache holds wire bytes, so a later hit on the
// same array gets a plan of its own with nothing compiled, and the cache
// cannot pin the compiled vectors outside its byte budget.
func TestGenerateHitUnpinned(t *testing.T) {
	ctx := context.Background()
	a, err := NewArray(5, 3, WithObstacle(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	first, err := Generate(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Campaign(ctx, WithTrials(100)); err != nil {
		t.Fatal(err)
	}
	first.mu.Lock()
	compiledFirst := first.compiled != nil
	first.mu.Unlock()
	if !compiledFirst {
		t.Fatal("the campaign left its plan uncompiled")
	}
	second, err := Generate(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatal("a repeat Generate returned the plan a campaign compiled onto")
	}
	second.mu.Lock()
	held := second.compiled
	second.mu.Unlock()
	if held != nil {
		t.Fatal("a repeat Generate returned a plan with compiled state")
	}
}

// TestCompiledCacheBound: every new signature table re-charges its entry,
// so a client that varies the candidate universe on one plan never grows
// the compiled cache past its cap, and the cache's total stays the sum of
// what its entries hold.
func TestCompiledCacheBound(t *testing.T) {
	ctx := context.Background()
	a, err := NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Generate(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(WithServiceWorkers(1))
	defer svc.Close()
	for n := 1; n <= 20; n++ {
		j, err := svc.SubmitDiagnose(ctx, p, nil, WithDoubleFaultCandidates(n))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		svc.mu.Lock()
		c := svc.compiled
		sum := int64(0)
		for _, e := range c.All() {
			sum += e.cost()
		}
		cost, capCost := c.Cost(), c.Cap()
		svc.mu.Unlock()
		if cost > capCost || sum != cost {
			t.Fatalf("after maxDoubles %d: cache charged %d (entries hold %d), cap %d", n, cost, sum, capCost)
		}
	}
}
