package fpva

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"
)

// TestPlanBytesBitIdenticalToEncodePlan pins the served-from-cache
// contract: the bytes a generate job hands out (and fpvad writes to the
// network) are exactly EncodePlan of the job's plan — for the cold solve,
// for a cache hit, and for a service with caching disabled (the on-demand
// fallback).
func TestPlanBytesBitIdenticalToEncodePlan(t *testing.T) {
	a, err := NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, svc *Service, wantHit bool) {
		t.Helper()
		j, err := svc.SubmitGenerate(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if j.CacheHit() != wantHit {
			t.Fatalf("cacheHit = %v, want %v", j.CacheHit(), wantHit)
		}
		plan, err := j.Plan()
		if err != nil {
			t.Fatal(err)
		}
		wire, err := j.PlanBytes()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := EncodePlan(&want, plan); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, want.Bytes()) {
			t.Fatalf("PlanBytes differs from EncodePlan: %d vs %d bytes", len(wire), want.Len())
		}
		// The cached encoding must decode to an equivalent plan.
		if _, err := DecodePlan(bytes.NewReader(wire)); err != nil {
			t.Fatalf("cached wire bytes do not decode: %v", err)
		}
	}
	svc := NewService(WithServiceWorkers(1))
	defer svc.Close()
	check(t, svc, false) // cold solve
	check(t, svc, true)  // cache hit serves the same stored bytes

	nocache := NewService(WithServiceWorkers(1), WithCacheBytes(0))
	defer nocache.Close()
	check(t, nocache, false) // on-demand fallback
}

// TestGenerateHitMatchesSolvedPlan: a memory hit holds only the plan's
// wire bytes and the geometry the solve kept. Its first Plan call decodes
// a plan that answers every accessor as the solved plan does, and later
// calls return that same plan; PlanBytes serves the bytes without
// decoding them.
func TestGenerateHitMatchesSolvedPlan(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (*Array, error)
	}{
		{"std 4x4", func() (*Array, error) { return NewArray(4, 4) }},
		{"5x5 channel obstacle", func() (*Array, error) {
			return NewArray(5, 5, WithChannelH(1, 1, 3), WithObstacle(3, 2))
		}},
		{"10x10", func() (*Array, error) { return BenchmarkArray("10x10") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			svc := NewService(WithServiceWorkers(1))
			defer svc.Close()
			var jobs [2]*Job
			for i := range jobs {
				a, err := c.build()
				if err != nil {
					t.Fatal(err)
				}
				jobs[i] = generateOn(t, svc, a)
			}
			solve, hit := jobs[0], jobs[1]
			if solve.CacheHit() || !hit.CacheHit() {
				t.Fatalf("cache hits %v, %v; want false, true", solve.CacheHit(), hit.CacheHit())
			}
			if raceEnabled {
				t.Log("allocation count skipped under -race")
			} else if n := testing.AllocsPerRun(100, func() {
				if _, err := hit.PlanBytes(); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("PlanBytes on a memory hit allocates %.0f times, want 0", n)
			}
			want, err := solve.Plan()
			if err != nil {
				t.Fatal(err)
			}
			// First calls race to decode; every call must get one plan.
			var plans [4]*Plan
			var errs [4]error
			var wg sync.WaitGroup
			for i := range plans {
				wg.Add(1)
				go func() {
					defer wg.Done()
					plans[i], errs[i] = hit.Plan()
				}()
			}
			wg.Wait()
			got := plans[0]
			for i := range plans {
				if errs[i] != nil || plans[i] != got {
					t.Fatalf("Plan call %d returned %p (%v), call 0 %p", i, plans[i], errs[i], got)
				}
			}
			if again, err := hit.Plan(); err != nil || again != got {
				t.Fatalf("a later Plan call returned %p (%v), the first %p", again, err, got)
			}
			if got == want {
				t.Fatal("the memory hit shares the solved plan")
			}
			if a, b := accessors(t, got), accessors(t, want); !reflect.DeepEqual(a, b) {
				for k := range a {
					if !reflect.DeepEqual(a[k], b[k]) {
						t.Errorf("%s: memory hit %v, solved plan %v", k, a[k], b[k])
					}
				}
			}
		})
	}
}

// accessors collects what a plan's public accessors return, by name.
func accessors(t *testing.T, p *Plan) map[string]any {
	t.Helper()
	var wire bytes.Buffer
	if err := EncodePlan(&wire, p); err != nil {
		t.Fatal(err)
	}
	paths, err := p.RenderPaths()
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]any{
		"EncodePlan":    wire.String(),
		"Stats":         p.Stats(),
		"Vectors":       p.Vectors(),
		"LeakPairs":     p.LeakPairs(),
		"UncoveredPath": p.UncoveredPath(),
		"UncoveredCut":  p.UncoveredCut(),
		"NumCuts":       p.NumCuts(),
		"RenderPaths":   paths,
		"Text":          p.Array().Text(),
	}
	var cuts [][]Edge
	var renders []string
	for i := 0; i < p.NumCuts(); i++ {
		r, err := p.RenderCut(i)
		if err != nil {
			t.Fatal(err)
		}
		cuts, renders = append(cuts, p.Cut(i)), append(renders, r)
	}
	m["Cut"], m["RenderCut"] = cuts, renders
	return m
}
