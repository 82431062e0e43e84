package lp

import (
	"math"
	"testing"
)

// buildAllocLP is a mid-size deterministic LP in the shape the
// branch-and-bound nodes produce: 0-1 bounded structural variables, sparse
// rows, a mix of senses.
func buildAllocLP() *Problem {
	const n = 24
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObj(j, float64((j*7)%11-5))
		p.SetBounds(j, 0, 1)
	}
	for i := 0; i < 18; i++ {
		idx := []int{i % n, (i*3 + 1) % n, (i*5 + 2) % n}
		coef := []float64{1, float64(i%3 - 1), 1}
		// x = 0 satisfies every row, so the instance is always feasible.
		if i%2 == 0 {
			p.AddSparseRow(idx, coef, LE, float64(i%3))
		} else {
			p.AddSparseRow(idx, coef, GE, 0)
		}
	}
	return p
}

// TestWarmSolveViewAllocationFree pins the tentpole guarantee of the
// revised simplex: once a Solver's buffers have reached steady size, a
// warm-started re-solve under changed bounds performs zero allocations.
// Branch-and-bound solves millions of these; any regression here shows up
// directly in the campaign benchmarks.
func TestWarmSolveViewAllocationFree(t *testing.T) {
	p := buildAllocLP()
	sv := NewSolver(p)
	root := sv.SolveView(nil, nil, nil, 0)
	if root.Status != Optimal {
		t.Fatalf("root solve: %v", root.Status)
	}
	warm := append([]int8(nil), root.Basis...)
	n := p.N()
	lb := make([]float64, n)
	ub := make([]float64, n)
	for j := 0; j < n; j++ {
		lb[j], ub[j] = p.Bounds(j)
	}
	// A child-node-style bound fix on a variable the optimum uses.
	ub[0] = math.Floor(root.X[0])
	if ub[0] < lb[0] {
		ub[0] = lb[0]
	}
	for i := 0; i < 3; i++ { // warm-up: let eta/scratch capacities settle
		if v := sv.SolveView(lb, ub, warm, 0); v.Status != Optimal {
			t.Fatalf("warm solve: %v", v.Status)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		sv.SolveView(lb, ub, warm, 0)
	})
	if allocs != 0 {
		t.Fatalf("warm SolveView allocates %v objects per solve, want 0", allocs)
	}
	// The cold path over the same solver must also be allocation-free —
	// it is the deterministic retry branch of the branch-and-bound.
	cold := testing.AllocsPerRun(100, func() {
		sv.SolveView(lb, ub, nil, 0)
	})
	if cold != 0 {
		t.Fatalf("cold SolveView allocates %v objects per solve, want 0", cold)
	}
}

// BenchmarkLPSolveViewWarm times the branch-and-bound node solve: a
// warm-started SolveView from the root's optimal basis after one bound
// fix, on the same LP as TestWarmSolveViewAllocationFree.
func BenchmarkLPSolveViewWarm(b *testing.B) {
	p := buildAllocLP()
	sv := NewSolver(p)
	root := sv.SolveView(nil, nil, nil, 0)
	if root.Status != Optimal {
		b.Fatalf("root solve: %v", root.Status)
	}
	warm := append([]int8(nil), root.Basis...)
	lb := make([]float64, p.N())
	ub := make([]float64, p.N())
	for j := range lb {
		lb[j], ub[j] = p.Bounds(j)
	}
	ub[0] = math.Max(lb[0], math.Floor(root.X[0]))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := sv.SolveView(lb, ub, warm, 0); v.Status != Optimal {
			b.Fatalf("warm solve: %v", v.Status)
		}
	}
}
