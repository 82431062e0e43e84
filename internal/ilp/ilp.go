// Package ilp provides a small integer linear programming solver: a model
// layer with named, bounded, optionally-integer variables, compiled once
// onto the bounded-variable simplex in package lp and explored by a
// warm-started, optionally parallel best-bound branch-and-bound.
//
// The paper formulates flow-path construction, cut-set construction and
// control-leakage coverage as 0-1 ILPs (constraints (1)-(9)) and hands them
// to a commercial solver; this package is the self-contained substitute.
// Instances arising from 5x5 hierarchical subblocks stay in the range of a
// few hundred variables, which this solver handles in milliseconds.
package ilp

import (
	"fmt"
	"math"

	"repro/internal/lp"
)

// VarID identifies a model variable.
type VarID int

// Status reports the solve outcome.
type Status int

const (
	// Optimal means a provably optimal integer solution was found.
	Optimal Status = iota
	// Feasible means the search stopped incomplete (the node budget ran
	// out, or a node's LP hit its iteration cap) with an incumbent.
	Feasible
	// Infeasible means no integer solution exists.
	Infeasible
	// Unbounded means the relaxation is unbounded.
	Unbounded
	// Limit means the search stopped incomplete with no incumbent.
	Limit
	// Canceled means the solve context was cancelled before the search
	// finished; callers should surface ctx.Err().
	Canceled
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Canceled:
		return "canceled"
	default:
		return "node-limit"
	}
}

// Inf is the bound value meaning "unbounded in that direction".
var Inf = math.Inf(1)

type varInfo struct {
	lb, ub  float64
	integer bool
	obj     float64
	name    string
}

type constraint struct {
	idx   []VarID
	coef  []float64
	sense lp.Sense
	rhs   float64
}

// Model is an ILP under construction. The zero value is ready to use.
//
// A Model may be re-solved after changing objectives (SetObj) or bounds
// (SetVarBounds / FixVar) without structural cost: the compiled LP
// relaxation and its solver scratch are cached across Solve calls and only
// rebuilt when variables or constraints are added. This is the engine
// behind the iterative generators, which solve hundreds of same-shape
// models that differ only in objective and bound fixes. The flip side of
// that caching: a Model is not safe for concurrent use — Solve calls (and
// mutations) on one Model must be serialized by the caller. Solve's
// internal workers parallelize a single search, not the Model.
type Model struct {
	vars []varInfo
	cons []constraint

	compiled *lp.Problem // cached relaxation; nil after structural changes
	solvers  []*lp.Solver
}

// AddVar adds a variable with bounds [lb, ub] (use -Inf / Inf for
// unbounded), objective coefficient obj (minimization) and an optional name
// used in error messages.
func (m *Model) AddVar(lb, ub, obj float64, integer bool, name string) VarID {
	if lb > ub {
		panic(fmt.Sprintf("ilp: var %q has lb %v > ub %v", name, lb, ub))
	}
	m.vars = append(m.vars, varInfo{lb: lb, ub: ub, integer: integer, obj: obj, name: name})
	m.compiled, m.solvers = nil, nil
	return VarID(len(m.vars) - 1)
}

// AddBinary adds a 0-1 variable.
func (m *Model) AddBinary(obj float64, name string) VarID {
	return m.AddVar(0, 1, obj, true, name)
}

// SetVarBounds replaces the bounds of variable v. Bound changes are handled
// natively by the solver (no constraint rows), so models that differ only
// in bounds share their row structure — the precondition for warm starts.
func (m *Model) SetVarBounds(v VarID, lb, ub float64) {
	if lb > ub {
		panic(fmt.Sprintf("ilp: var %q has lb %v > ub %v", m.vars[v].name, lb, ub))
	}
	m.vars[v].lb, m.vars[v].ub = lb, ub
}

// FixVar pins variable v to val via its bounds. Model builders should
// prefer this over a singleton equality row: the solver folds bound fixes
// into the tableau for free, and the row structure stays identical across
// solves that fix different variables (enabling warm starts).
func (m *Model) FixVar(v VarID, val float64) {
	m.vars[v].lb, m.vars[v].ub = val, val
}

// SetObj replaces the objective coefficient of variable v (minimization).
// Like bound changes, objective changes keep the compiled relaxation and
// its warm-start applicability intact.
func (m *Model) SetObj(v VarID, obj float64) {
	m.vars[v].obj = obj
}

// AddCons adds the constraint sum(coef[k] * idx[k]) sense rhs. Duplicate
// indices accumulate.
func (m *Model) AddCons(idx []VarID, coef []float64, sense lp.Sense, rhs float64) {
	if len(idx) != len(coef) {
		panic("ilp: constraint index/coef length mismatch")
	}
	for _, v := range idx {
		if int(v) < 0 || int(v) >= len(m.vars) {
			panic(fmt.Sprintf("ilp: constraint references unknown var %d", v))
		}
	}
	m.cons = append(m.cons, constraint{
		idx:   append([]VarID(nil), idx...),
		coef:  append([]float64(nil), coef...),
		sense: sense, rhs: rhs,
	})
	m.compiled, m.solvers = nil, nil
}

const intTol = 1e-6

// Objective evaluates the model objective at x.
func (m *Model) Objective(x []float64) float64 {
	obj := 0.0
	for j, v := range m.vars {
		obj += v.obj * x[j]
	}
	return obj
}

// objectiveIntegral reports whether every attainable objective value is an
// integer, which lets branch-and-bound round node bounds up.
func (m *Model) objectiveIntegral() bool {
	for _, v := range m.vars {
		if v.obj != math.Trunc(v.obj) {
			return false
		}
		if !v.integer && v.obj != 0 {
			return false
		}
	}
	return true
}

// pickFractional selects the integer variable farthest from integrality
// (most-fractional branching), or -1 if the point is integer feasible.
func (m *Model) pickFractional(x []float64) int {
	best, bestDist := -1, intTol
	for j, v := range m.vars {
		if !v.integer {
			continue
		}
		f := x[j] - math.Floor(x[j])
		if dist := math.Min(f, 1-f); dist > bestDist {
			bestDist = dist
			best = j
		}
	}
	return best
}

func (m *Model) roundInPlace(x []float64) {
	for j, v := range m.vars {
		if v.integer {
			x[j] = math.Round(x[j])
		}
	}
}

// tryRoundInto rounds x's integer coordinates into dst and reports whether
// the rounded point satisfies the model — the allocation-free rounding
// heuristic of the branch-and-bound hot path.
func (m *Model) tryRoundInto(dst, x []float64) bool {
	copy(dst, x)
	m.roundInPlace(dst)
	return m.feasible(dst)
}

// feasible reports whether x satisfies every bound, integrality
// requirement and constraint of the model (len(x) must be the variable
// count).
func (m *Model) feasible(x []float64) bool {
	for j, v := range m.vars {
		if x[j] < v.lb-1e-6 || x[j] > v.ub+1e-6 {
			return false
		}
		if v.integer && math.Abs(x[j]-math.Round(x[j])) > intTol {
			return false
		}
	}
	for _, c := range m.cons {
		dot := 0.0
		for k, v := range c.idx {
			dot += c.coef[k] * x[v]
		}
		switch c.sense {
		case lp.LE:
			if dot > c.rhs+1e-5 {
				return false
			}
		case lp.GE:
			if dot < c.rhs-1e-5 {
				return false
			}
		case lp.EQ:
			if math.Abs(dot-c.rhs) > 1e-5 {
				return false
			}
		}
	}
	return true
}

// compileLP returns the shared LP relaxation: variables map 1:1 onto LP
// columns with native bounds, constraints onto rows. Branch-and-bound nodes
// differ only in the bound vectors they pass to the solver. The compiled
// problem is cached across solves — objective and bound edits are folded
// into the cached copy, and only structural changes force a rebuild.
func (m *Model) compileLP() *lp.Problem {
	if p := m.compiled; p != nil {
		for j, v := range m.vars {
			p.SetObj(j, v.obj)
			p.SetBounds(j, v.lb, v.ub)
		}
		return p
	}
	p := lp.NewProblem(len(m.vars))
	for j, v := range m.vars {
		if v.obj != 0 {
			p.SetObj(j, v.obj)
		}
		p.SetBounds(j, v.lb, v.ub)
	}
	var idx []int
	for _, c := range m.cons {
		idx = idx[:0]
		for _, v := range c.idx {
			idx = append(idx, int(v))
		}
		p.AddSparseRow(idx, c.coef, c.sense, c.rhs)
	}
	m.compiled = p
	return p
}

// getSolver hands out a cached solver for the compiled relaxation (one per
// concurrent worker); putSolver returns it for the next solve. Access is
// confined to Model.Solve, which serializes handout before the workers
// start.
func (m *Model) getSolver(p *lp.Problem) *lp.Solver {
	if n := len(m.solvers); n > 0 {
		sv := m.solvers[n-1]
		m.solvers = m.solvers[:n-1]
		return sv
	}
	return lp.NewSolver(p)
}

func (m *Model) putSolver(sv *lp.Solver) {
	m.solvers = append(m.solvers, sv)
}
