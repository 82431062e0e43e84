// Package lp implements a bounded-variable revised simplex solver for
// linear programs in the form
//
//	minimize    c·x
//	subject to  A_i·x  {<=, =, >=}  b_i      for each row i
//	            lb_j <= x_j <= ub_j          (default [0, +Inf))
//
// The paper solves its test-generation models with a commercial ILP solver;
// this package (together with package ilp, which adds branch-and-bound) is
// the from-scratch, stdlib-only substitute.
//
// A Problem is built row by row; a Solver copies its constraint matrix
// into sparse columns and keeps the basis inverse in product form, as an
// eta file. factorize peels the triangular part of the basis first and
// pivots the remaining bump by magnitude, every simplex pivot appends one
// eta, and the file is rebuilt once its count or fill passes a budget.
// The flow-path and cut-set formulations give small models — a few hundred
// rows and columns per 5x5 subblock — with nearly triangular bases, so the
// eta file stays close to the matrix's own sparsity.
//
// Variable bounds are handled natively by the simplex (nonbasic variables
// rest at either bound and can flip without a basis change), so 0-1 models
// need no explicit bound rows. A Solver owns reusable scratch state and
// accepts a warm-start Basis: it refactorizes for that basis under new
// bounds and repairs feasibility with a bounded dual simplex, which is how
// branch-and-bound children re-solve in a handful of pivots instead of a
// cold two-phase start.
//
// The primal pivot rule is Dantzig's (most negative reduced cost) with an
// automatic switch to Bland's rule after a stall threshold; the dual rule is
// max-violation row selection with a lowest-index tie break on the ratio
// test. All tie breaks are deterministic, so a solve is a pure function of
// (problem, bounds, warm basis).
package lp

import (
	"fmt"
	"math"
)

// Sense is the row comparison operator.
type Sense int8

const (
	// LE is A_i·x <= b_i.
	LE Sense = iota
	// GE is A_i·x >= b_i.
	GE
	// EQ is A_i·x = b_i.
	EQ
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
	// IterLimit means the iteration budget was exhausted.
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return "iteration-limit"
	}
}

// Inf is the bound value meaning "unbounded in that direction".
var Inf = math.Inf(1)

// Problem is a linear program under construction. Create with NewProblem,
// then add rows; the problem may be solved repeatedly. Adding rows after a
// Solver has been constructed on the problem is not supported.
type Problem struct {
	n      int // structural variables
	c      []float64
	lb, ub []float64
	rows   [][]float64
	senses []Sense
	b      []float64
}

// NewProblem creates a problem with n structural variables (all in
// [0, +Inf)) and a zero objective.
func NewProblem(n int) *Problem {
	if n < 1 {
		panic(fmt.Sprintf("lp: variable count %d out of range", n))
	}
	p := &Problem{
		n:  n,
		c:  make([]float64, n),
		lb: make([]float64, n),
		ub: make([]float64, n),
	}
	for j := range p.ub {
		p.ub[j] = Inf
	}
	return p
}

// SetObj sets the objective coefficient of variable j (minimization).
func (p *Problem) SetObj(j int, v float64) {
	p.c[j] = v
}

// SetBounds sets the bounds of variable j. Use -Inf / Inf for unbounded
// directions; lb == ub fixes the variable.
func (p *Problem) SetBounds(j int, lb, ub float64) {
	if lb > ub || math.IsInf(lb, 1) || math.IsInf(ub, -1) {
		panic(fmt.Sprintf("lp: var %d bounds [%v,%v] invalid", j, lb, ub))
	}
	p.lb[j], p.ub[j] = lb, ub
}

// AddSparseRow appends a constraint given as (index, coefficient) pairs.
func (p *Problem) AddSparseRow(idx []int, coef []float64, s Sense, rhs float64) int {
	if len(idx) != len(coef) {
		panic("lp: sparse row index/coef length mismatch")
	}
	row := make([]float64, p.n)
	for k, j := range idx {
		if j < 0 || j >= p.n {
			panic(fmt.Sprintf("lp: sparse row index %d out of range", j))
		}
		row[j] += coef[k]
	}
	p.rows = append(p.rows, row)
	p.senses = append(p.senses, s)
	p.b = append(p.b, rhs)
	return len(p.rows) - 1
}

const (
	eps     = 1e-9
	feasEps = 1e-7
)
