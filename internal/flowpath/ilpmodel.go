package flowpath

import (
	"context"
	"fmt"

	"repro/internal/grid"
	"repro/internal/ilp"
	"repro/internal/lp"
)

// This file implements the paper's ILP formulation of flow-path
// construction (Sec. III-B):
//
//   - constraint (1): a path entering a cell leaves it through exactly one
//     other valve — sum of the cell's valve variables equals 2*c[cell];
//   - constraints (3)+(4): a signed pressure-flow variable per valve,
//     bounded by M*v (big-M), with each path cell consuming one flow unit;
//     this excludes the disjoint loops of Fig. 6(c)/(d), because a loop has
//     no flow source yet would have to consume;
//   - port terminals: one source-port and one sink-port edge carry the path
//     ends (degree-1 contributions);
//   - constraint (2) (coverage) appears in two flavours: the iterative
//     engine maximizes newly covered valves per path and loops (set-cover
//     column generation), while the monolithic engine carries all np paths
//     with used-path indicators and minimizes their count — constraints
//     (6)-(8) — exactly as written in the paper.

// pathModel is the per-path variable block over one array. Variables and
// constraint rows are always emitted in the deterministic edge/port/cell
// orders below (never map order), so two builds of the same model are
// identical and the whole generation pipeline is reproducible run to run.
type pathModel struct {
	a     *grid.Array
	m     *ilp.Model
	edges []grid.ValveID             // interior passable edges, ascending
	v     map[grid.ValveID]ilp.VarID // interior passable edges
	c     map[grid.CellID]ilp.VarID
	entry map[grid.ValveID]ilp.VarID // source port edges
	exit  map[grid.ValveID]ilp.VarID // sink port edges
	bigM  float64
}

// entryVars / exitVars list the terminal indicator variables in port order.
func (pm *pathModel) entryVars() []ilp.VarID {
	out := make([]ilp.VarID, 0, len(pm.entry))
	for _, p := range pm.a.Sources() {
		out = append(out, pm.entry[p.Valve])
	}
	return out
}

func (pm *pathModel) exitVars() []ilp.VarID {
	out := make([]ilp.VarID, 0, len(pm.exit))
	for _, p := range pm.a.Sinks() {
		out = append(out, pm.exit[p.Valve])
	}
	return out
}

// interiorPassable lists interior edges fluid can traverse (Normal or
// Channel) whose both endpoint cells are real and non-obstacle.
func interiorPassable(a *grid.Array) []grid.ValveID {
	var out []grid.ValveID
	for id := 0; id < a.NumValves(); id++ {
		vid := grid.ValveID(id)
		if !a.Passable(vid) || a.Kind(vid) == grid.PortOpen {
			continue
		}
		u, w := a.EdgeCells(vid)
		if u == grid.NoCell || w == grid.NoCell {
			continue
		}
		ur, uc := a.CellCoords(u)
		wr, wc := a.CellCoords(w)
		if a.IsObstacle(ur, uc) || a.IsObstacle(wr, wc) {
			continue
		}
		out = append(out, vid)
	}
	return out
}

// fluidCells lists non-obstacle cells.
func fluidCells(a *grid.Array) []grid.CellID {
	var out []grid.CellID
	for r := 0; r < a.NR(); r++ {
		for c := 0; c < a.NC(); c++ {
			if !a.IsObstacle(r, c) {
				out = append(out, a.CellIndex(r, c))
			}
		}
	}
	return out
}

// addPathBlock installs one path's variables and structural constraints
// into model m. tag distinguishes variable names between path blocks;
// edgeObj gives the objective coefficient of each edge variable.
func addPathBlock(m *ilp.Model, a *grid.Array, tag string, edgeObj func(grid.ValveID) float64) *pathModel {
	pm := &pathModel{
		a: a, m: m,
		edges: interiorPassable(a),
		v:     make(map[grid.ValveID]ilp.VarID),
		c:     make(map[grid.CellID]ilp.VarID),
		entry: make(map[grid.ValveID]ilp.VarID),
		exit:  make(map[grid.ValveID]ilp.VarID),
		bigM:  float64(a.NumCells() + 1),
	}
	edges := pm.edges
	cells := fluidCells(a)
	f := make(map[grid.ValveID]ilp.VarID, len(edges))
	for _, e := range edges {
		pm.v[e] = m.AddBinary(edgeObj(e), fmt.Sprintf("v%s_%d", tag, e))
		f[e] = m.AddVar(-pm.bigM, pm.bigM, 0, false, fmt.Sprintf("f%s_%d", tag, e))
	}
	fin := make(map[grid.ValveID]ilp.VarID)
	for _, p := range a.Sources() {
		pm.entry[p.Valve] = m.AddBinary(0, fmt.Sprintf("in%s_%d", tag, p.Valve))
		fin[p.Valve] = m.AddVar(0, pm.bigM, 0, false, fmt.Sprintf("fin%s_%d", tag, p.Valve))
	}
	for _, p := range a.Sinks() {
		pm.exit[p.Valve] = m.AddBinary(0, fmt.Sprintf("out%s_%d", tag, p.Valve))
	}
	for _, cell := range cells {
		pm.c[cell] = m.AddBinary(0, fmt.Sprintf("c%s_%d", tag, cell))
	}

	// Big-M flow capacity (constraint (3)): -M*v <= f <= M*v.
	for _, e := range edges {
		m.AddCons([]ilp.VarID{f[e], pm.v[e]}, []float64{1, -pm.bigM}, lp.LE, 0)
		m.AddCons([]ilp.VarID{f[e], pm.v[e]}, []float64{1, pm.bigM}, lp.GE, 0)
	}
	for _, p := range a.Sources() {
		m.AddCons([]ilp.VarID{fin[p.Valve], pm.entry[p.Valve]}, []float64{1, -pm.bigM}, lp.LE, 0)
	}

	// Per-cell degree (constraint (1)) and flow conservation (constraint
	// (4)). Canonical flow orientation: west->east for H edges,
	// north->south for V edges; dir is +1 for flow into the cell.
	for _, cell := range cells {
		r, c := a.CellCoords(cell)
		var degIdx []ilp.VarID
		var degCoef []float64
		var flowIdx []ilp.VarID
		var flowCoef []float64
		for _, e := range a.IncidentValves(r, c) {
			if vVar, ok := pm.v[e]; ok {
				degIdx = append(degIdx, vVar)
				degCoef = append(degCoef, 1)
				flowIdx = append(flowIdx, f[e])
				flowCoef = append(flowCoef, dirInto(a, e, cell))
			}
			if entryVar, ok := pm.entry[e]; ok {
				degIdx = append(degIdx, entryVar)
				degCoef = append(degCoef, 1)
				flowIdx = append(flowIdx, fin[e])
				flowCoef = append(flowCoef, 1)
			}
			if exitVar, ok := pm.exit[e]; ok {
				degIdx = append(degIdx, exitVar)
				degCoef = append(degCoef, 1)
				// The exit edge carries no modelled flow; all supply is
				// consumed on the path cells.
			}
		}
		// Degree: sum = 2*c.
		degIdx = append(degIdx, pm.c[cell])
		degCoef = append(degCoef, -2)
		m.AddCons(degIdx, degCoef, lp.EQ, 0)
		// Conservation: inflow - outflow = c (one unit consumed per cell).
		flowIdx = append(flowIdx, pm.c[cell])
		flowCoef = append(flowCoef, -1)
		m.AddCons(flowIdx, flowCoef, lp.EQ, 0)
	}
	return pm
}

// dirInto returns +1 if edge e's canonical flow orientation points into
// cell, -1 otherwise.
func dirInto(a *grid.Array, e grid.ValveID, cell grid.CellID) float64 {
	_, w := a.EdgeCells(e)
	if w == cell {
		return 1
	}
	return -1
}

// sumEquals adds the constraint sum(vars) = rhs.
func sumEquals(m *ilp.Model, vars []ilp.VarID, rhs float64) {
	coef := make([]float64, len(vars))
	for i := range coef {
		coef[i] = 1
	}
	m.AddCons(vars, coef, lp.EQ, rhs)
}

// extract reads one path block out of an ILP solution.
func (pm *pathModel) extract(x []float64) (*Path, error) {
	a := pm.a
	var srcPort, sinkPort grid.ValveID = grid.NoValve, grid.NoValve
	for pv, id := range pm.entry {
		if x[id] > 0.5 {
			srcPort = pv
		}
	}
	for pv, id := range pm.exit {
		if x[id] > 0.5 {
			sinkPort = pv
		}
	}
	if srcPort == grid.NoValve || sinkPort == grid.NoValve {
		return nil, fmt.Errorf("flowpath: ILP solution has no active ports")
	}
	open := make(map[grid.ValveID]bool)
	for e, id := range pm.v {
		if x[id] > 0.5 {
			open[e] = true
		}
	}
	// Walk from the entry cell.
	cells := []grid.CellID{a.InteriorCell(srcPort)}
	visited := map[grid.CellID]bool{cells[0]: true}
	for {
		cur := cells[len(cells)-1]
		r, c := a.CellCoords(cur)
		moved := false
		for _, e := range a.IncidentValves(r, c) {
			if !open[e] {
				continue
			}
			u, w := a.EdgeCells(e)
			next := u
			if next == cur {
				next = w
			}
			if next == grid.NoCell || visited[next] {
				continue
			}
			visited[next] = true
			cells = append(cells, next)
			moved = true
			break
		}
		if !moved {
			break
		}
	}
	if cells[len(cells)-1] != a.InteriorCell(sinkPort) {
		return nil, fmt.Errorf("flowpath: ILP walk ended at %d, sink cell is %d",
			cells[len(cells)-1], a.InteriorCell(sinkPort))
	}
	if len(visited) != len(open)+1 {
		return nil, fmt.Errorf("flowpath: ILP solution contains a disjoint component (%d cells, %d open edges)",
			len(visited), len(open))
	}
	return Build(a, srcPort, sinkPort, cells)
}

// ilpIterativePaths covers all Normal valves path by path. The model is
// built once; each round only rewrites the coverage objective (-100 per
// newly covered valve, +1 per edge as a shorter-path tie break) on the same
// compiled relaxation and warm-starts from the previous root basis, so the
// per-round cost is the branch-and-bound search alone, not a model rebuild.
func ilpIterativePaths(ctx context.Context, a *grid.Array, opts ilp.Options) ([]*Path, ilp.Stats, error) {
	var m ilp.Model
	pm := addPathBlock(&m, a, "", func(grid.ValveID) float64 { return 1 })
	sumEquals(&m, pm.entryVars(), 1)
	sumEquals(&m, pm.exitVars(), 1)

	uncovered := make(map[grid.ValveID]bool)
	for _, e := range a.NormalValves() {
		uncovered[e] = true
	}
	var paths []*Path
	var stats ilp.Stats
	for len(uncovered) > 0 {
		for _, e := range pm.edges {
			if a.Kind(e) == grid.Normal && uncovered[e] {
				m.SetObj(pm.v[e], -100)
			} else {
				m.SetObj(pm.v[e], 1)
			}
		}
		sol := m.Solve(ctx, opts)
		stats.Observe(sol)
		if sol.Status == ilp.Canceled {
			return paths, stats, ctx.Err()
		}
		if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
			return paths, stats, fmt.Errorf("flowpath: single-path ILP %v", sol.Status)
		}
		p, err := pm.extract(sol.X)
		if err != nil {
			return paths, stats, err
		}
		opts.WarmStart = sol.WarmStart
		newCov := 0
		for _, e := range p.CoveredNormal(a) {
			if uncovered[e] {
				newCov++
			}
		}
		if newCov == 0 {
			break // remaining valves unreachable by any path
		}
		paths = append(paths, p)
		for _, e := range p.CoveredNormal(a) {
			delete(uncovered, e)
		}
	}
	return paths, stats, nil
}

// ilpMonolithicPaths implements the paper's objective (7) subject to (8):
// all np path blocks at once, coverage constraint (2), used-path indicators
// (6), minimizing the number of used paths. It increases np until feasible,
// exactly as Sec. III-B-3 prescribes, starting from lower and stopping at
// upper.
func ilpMonolithicPaths(ctx context.Context, a *grid.Array, lower, upper int, opts ilp.Options) ([]*Path, ilp.Stats, error) {
	if lower < 1 {
		lower = 1
	}
	var stats ilp.Stats
	for np := lower; np <= upper; np++ {
		paths, sol, err := tryMonolithic(ctx, a, np, opts)
		stats.Observe(sol)
		if err == nil {
			return paths, stats, nil
		}
		if ctx.Err() != nil {
			return nil, stats, ctx.Err()
		}
	}
	return nil, stats, fmt.Errorf("flowpath: no covering set with at most %d paths", upper)
}

func tryMonolithic(ctx context.Context, a *grid.Array, np int, opts ilp.Options) ([]*Path, ilp.Solution, error) {
	var m ilp.Model
	blocks := make([]*pathModel, np)
	used := make([]ilp.VarID, np)
	for i := 0; i < np; i++ {
		// Each edge costs 1 as a short-path tie-break under the dominant
		// 1000-per-used-path term of objective (7).
		blocks[i] = addPathBlock(&m, a, fmt.Sprintf("p%d", i),
			func(grid.ValveID) float64 { return 1 })
		used[i] = m.AddBinary(1000, fmt.Sprintf("used%d", i)) // objective (7)
		entries, exits := blocks[i].entryVars(), blocks[i].exitVars()
		// An unused path has no terminals and, via constraint (1)'s
		// chaining, no cells or edges.
		coef := make([]float64, len(entries))
		for k := range coef {
			coef[k] = 1
		}
		m.AddCons(append(entries, used[i]), append(coef, -1), lp.EQ, 0)
		coef2 := make([]float64, len(exits))
		for k := range coef2 {
			coef2[k] = 1
		}
		m.AddCons(append(exits, used[i]), append(coef2, -1), lp.EQ, 0)
		// Constraint (6) in tight per-edge form: v <= used.
		for _, e := range blocks[i].edges {
			m.AddCons([]ilp.VarID{blocks[i].v[e], used[i]}, []float64{1, -1}, lp.LE, 0)
		}
	}
	// Symmetry breaking: used paths first.
	for i := 0; i+1 < np; i++ {
		m.AddCons([]ilp.VarID{used[i], used[i+1]}, []float64{1, -1}, lp.GE, 0)
	}
	// Coverage (constraint (2)): every Normal valve on some path.
	for _, e := range a.NormalValves() {
		var idx []ilp.VarID
		for i := 0; i < np; i++ {
			if id, ok := blocks[i].v[e]; ok {
				idx = append(idx, id)
			}
		}
		if len(idx) == 0 {
			return nil, ilp.Solution{}, fmt.Errorf("flowpath: valve %d unreachable by any path", e)
		}
		coef := make([]float64, len(idx))
		for k := range coef {
			coef[k] = 1
		}
		m.AddCons(idx, coef, lp.GE, 1)
	}
	sol := m.Solve(ctx, opts)
	if sol.Status == ilp.Canceled {
		return nil, sol, ctx.Err()
	}
	if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
		return nil, sol, fmt.Errorf("flowpath: monolithic ILP with np=%d: %v", np, sol.Status)
	}
	var paths []*Path
	for i := 0; i < np; i++ {
		if sol.X[used[i]] < 0.5 {
			continue
		}
		p, err := blocks[i].extract(sol.X)
		if err != nil {
			return nil, sol, err
		}
		paths = append(paths, p)
	}
	if len(uncoveredAfter(a, paths, nil)) > 0 {
		return nil, sol, fmt.Errorf("flowpath: monolithic solution leaves valves uncovered")
	}
	return paths, sol, nil
}
