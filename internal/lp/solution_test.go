package lp

import "fmt"

// The allocating problem API the tests and fuzz targets drive the solver
// through. Production builds rows with AddSparseRow and solves with
// Solver.SolveView; these helpers copy a View out so a test can hold
// several results at once.

// N returns the structural variable count.
func (p *Problem) N() int { return p.n }

// M returns the row count.
func (p *Problem) M() int { return len(p.rows) }

// Bounds returns the bounds of variable j.
func (p *Problem) Bounds(j int) (lb, ub float64) { return p.lb[j], p.ub[j] }

// AddRow appends a constraint given as a dense coefficient slice of length
// N(). The slice is copied.
func (p *Problem) AddRow(coef []float64, s Sense, rhs float64) int {
	if len(coef) != p.n {
		panic(fmt.Sprintf("lp: row width %d, want %d", len(coef), p.n))
	}
	p.rows = append(p.rows, append([]float64(nil), coef...))
	p.senses = append(p.senses, s)
	p.b = append(p.b, rhs)
	return len(p.rows) - 1
}

// Solution is the result of a solve.
type Solution struct {
	Status Status
	X      []float64 // length N(); valid when Status == Optimal
	Obj    float64
	Iters  int
	// R holds the structural reduced costs at the optimum (length N());
	// valid when Status == Optimal. Nonbasic-at-lower variables have R >= 0,
	// nonbasic-at-upper have R <= 0.
	R []float64
	// Basis is a snapshot of the optimal basis, reusable as a warm start for
	// a re-solve of the same problem shape under different bounds or
	// objective; valid when Status == Optimal.
	Basis *Basis
}

// Solve runs the simplex cold (phase 1 feasibility repair, then the true
// objective). maxIters <= 0 selects an automatic budget proportional to the
// problem size.
func (p *Problem) Solve(maxIters int) Solution {
	return NewSolver(p).Solve(nil, nil, nil, maxIters)
}

// Solve is SolveView with the result copied out of solver scratch; warm,
// when non-nil, is refactorized as the starting basis.
func (s *Solver) Solve(lb, ub []float64, warm *Basis, maxIters int) Solution {
	v := s.SolveView(lb, ub, warm.Status(), maxIters)
	sol := Solution{Status: v.Status, Obj: v.Obj, Iters: v.Iters}
	if v.Status == Optimal {
		sol.X = append([]float64(nil), v.X...)
		sol.R = append([]float64(nil), v.R...)
		sol.Basis = &Basis{status: append([]int8(nil), v.Basis...)}
	}
	return sol
}
