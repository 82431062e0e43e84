package cutset

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/grid"
	"repro/internal/ilp"
	"repro/internal/sim"
)

// Engine selects the cut-set construction algorithm.
type Engine int

const (
	// EngineAuto uses straight line cuts first (exact on full arrays,
	// matching Table I's 2n-2) and dual-path cuts for whatever they miss.
	EngineAuto Engine = iota
	// EngineDual builds every cut as a forced-through dual path.
	EngineDual
	// EngineILP solves the paper's complementary ILP over the dual graph,
	// one cut at a time, with constraint (9) rows in the model.
	EngineILP
)

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineDual:
		return "dual"
	case EngineILP:
		return "ilp"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Options configures Generate.
type Options struct {
	Engine Engine
	// ILP tunes branch-and-bound for EngineILP.
	ILP ilp.Options
	// NoRepair disables the constraint-(9) repair pass (for ablation).
	NoRepair bool
}

// Generate produces cut-sets such that every Normal valve is a testable
// member of at least one cut: closing the cut leaves the sinks dark, and
// re-opening just that valve pressurizes a sink again (so a stuck-at-1
// there is observable). Cancelling ctx (nil means context.Background())
// aborts between cuts — and, for EngineILP, between solver nodes — and
// returns ctx.Err().
func Generate(ctx context.Context, a *grid.Array, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	s, err := sim.New(a)
	if err != nil {
		return nil, err
	}
	d, err := buildDual(a)
	if err != nil {
		return nil, err
	}
	uncovered := make(map[grid.ValveID]bool)
	for _, id := range a.NormalValves() {
		uncovered[id] = true
	}
	res := &Result{}
	// One reusable command vector and repair scratch serve every candidate:
	// the accept path runs a few hundred testability probes per cut, and
	// rebuilding a full-array vector per probe was a dominant allocation
	// source on the 30x30 row.
	vec := sim.NewVector(a, sim.CutSet, "check")
	rep := newRepairScratch(a)
	var members []grid.ValveID
	accept := func(c *Cut) bool {
		if !opt.NoRepair {
			rep.repair(a, c)
		}
		cutVectorInto(a, c, vec)
		if s.VerifyCutVector(vec) != nil {
			return false
		}
		members = testableMembersVec(s, c, vec, members[:0])
		newCov := 0
		for _, id := range members {
			if uncovered[id] {
				newCov++
			}
		}
		if newCov == 0 {
			return false
		}
		for _, id := range members {
			delete(uncovered, id)
		}
		res.Cuts = append(res.Cuts, c)
		return true
	}

	if opt.Engine == EngineAuto {
		for _, c := range lineCuts(a) {
			accept(c)
		}
	}
	switch opt.Engine {
	case EngineAuto, EngineDual:
		for len(uncovered) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			target := minValve(uncovered)
			if !d.coverOne(a, s, opt, rep, target, uncovered, accept) {
				res.Uncovered = append(res.Uncovered, target)
				delete(uncovered, target)
			}
		}
	case EngineILP:
		ilpOpt := opt.ILP
		for len(uncovered) > 0 {
			target := minValve(uncovered)
			c, sol, err := d.ilpCut(ctx, target, uncovered, ilpOpt)
			res.ILP.Observe(sol)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// Every cut model shares one shape; reuse the root basis.
			if sol.WarmStart != nil {
				ilpOpt.WarmStart = sol.WarmStart
			}
			if err != nil || c == nil || !accept(c) {
				// Fall back to the combinatorial construction before
				// declaring the valve uncoverable.
				if c2 := d.cutThrough(target, uncovered); c2 == nil || !accept(c2) {
					res.Uncovered = append(res.Uncovered, target)
					delete(uncovered, target)
				}
			}
		}
	default:
		return nil, fmt.Errorf("cutset: unknown engine %v", opt.Engine)
	}
	return res, nil
}

// coverOne tries to produce an accepted cut testing the target: jittered
// reroutes first, then corner bans steering the curve away from U-turns
// whose constraint-(9) repair would seal the target in.
func (d *dual) coverOne(a *grid.Array, s *sim.Simulator, opt Options, rep *repairScratch,
	target grid.ValveID, uncovered map[grid.ValveID]bool, accept func(*Cut) bool) bool {
	bans := map[int]bool{}
	tc1, tc2 := valveCorners(a, target)
	for attempt := 0; attempt <= 6; attempt++ {
		jitter := attempt
		var c *Cut
		if len(bans) == 0 {
			c = d.cutThroughJittered(target, uncovered, jitter)
		} else {
			c = d.cutThroughBanned(target, uncovered, jitter, bans)
		}
		if c == nil {
			continue
		}
		if stillTests(a, s, opt, rep, c, target, uncovered) {
			return accept(c)
		}
		// Ban the far corners of whatever valves the repair would add.
		probe := &Cut{Valves: append([]grid.ValveID(nil), c.Valves...),
			Walls: append([]grid.ValveID(nil), c.Walls...)}
		before := make(map[grid.ValveID]bool, len(probe.Valves))
		for _, id := range probe.Valves {
			before[id] = true
		}
		rep.repair(a, probe)
		for _, id := range probe.Valves {
			if before[id] {
				continue
			}
			c1, c2 := valveCorners(a, id)
			for _, n := range []int{c1, c2} {
				if n != tc1 && n != tc2 {
					bans[n] = true
				}
			}
		}
	}
	return false
}

// stillTests reports whether the cut, after the constraint-(9) repair it
// will undergo, still exposes a stuck-at-1 on the target valve. Used to
// decide whether a candidate curve is worth accepting or a reroute is
// needed.
func stillTests(a *grid.Array, s *sim.Simulator, opt Options, rep *repairScratch, c *Cut,
	target grid.ValveID, uncovered map[grid.ValveID]bool) bool {
	if !uncovered[target] {
		return true
	}
	probe := &Cut{
		Valves: append([]grid.ValveID(nil), c.Valves...),
		Walls:  append([]grid.ValveID(nil), c.Walls...),
	}
	if !opt.NoRepair {
		rep.repair(a, probe)
	}
	return Validate(a, s, probe) == nil && Testable(a, s, probe, target)
}

func minValve(set map[grid.ValveID]bool) grid.ValveID {
	var best grid.ValveID = -1
	for id := range set {
		if best == -1 || id < best {
			best = id
		}
	}
	return best
}

// lineCuts enumerates straight column and row cuts. Lines crossing a
// Channel edge cannot separate and are skipped.
func lineCuts(a *grid.Array) []*Cut {
	var out []*Cut
	for c := 1; c < a.NC(); c++ {
		cut := &Cut{}
		ok := true
		for r := 0; r < a.NR(); r++ {
			id := a.HValve(r, c)
			switch a.Kind(id) {
			case grid.Normal:
				cut.Valves = append(cut.Valves, id)
			case grid.Wall:
				cut.Walls = append(cut.Walls, id)
			default:
				ok = false
			}
		}
		if ok && len(cut.Valves) > 0 {
			out = append(out, cut)
		}
	}
	for r := 1; r < a.NR(); r++ {
		cut := &Cut{}
		ok := true
		for c := 0; c < a.NC(); c++ {
			id := a.VValve(r, c)
			switch a.Kind(id) {
			case grid.Normal:
				cut.Valves = append(cut.Valves, id)
			case grid.Wall:
				cut.Walls = append(cut.Walls, id)
			default:
				ok = false
			}
		}
		if ok && len(cut.Valves) > 0 {
			out = append(out, cut)
		}
	}
	return out
}

// repairScratch holds the dense marker arrays of the constraint (9)
// repair, reusable across the many repair probes of one Generate run.
type repairScratch struct {
	visited []bool // corner index space
	member  []bool // valve ID space
	vlist   []int  // touched corners, for O(touched) reset
	mlist   []grid.ValveID
}

func newRepairScratch(a *grid.Array) *repairScratch {
	return &repairScratch{
		visited: make([]bool, (a.NR()+1)*(a.NC()+1)),
		member:  make([]bool, a.NumValves()),
	}
}

// repair applies the paper's constraint (9): if both lattice corners of a
// Normal valve lie on the cut's separating curve, the valve joins the cut.
// This removes the Fig. 5(c)/(d) two-fault masking pattern, where a single
// stuck-at-1 valve bridging the curve could be shielded by a stuck-at-0
// valve elsewhere.
func (rs *repairScratch) repair(a *grid.Array, c *Cut) {
	mark := func(id grid.ValveID) {
		c1, c2 := valveCorners(a, id)
		if !rs.visited[c1] {
			rs.visited[c1] = true
			rs.vlist = append(rs.vlist, c1)
		}
		if !rs.visited[c2] {
			rs.visited[c2] = true
			rs.vlist = append(rs.vlist, c2)
		}
		if !rs.member[id] {
			rs.member[id] = true
			rs.mlist = append(rs.mlist, id)
		}
	}
	for _, id := range c.Valves {
		mark(id)
	}
	for _, id := range c.Walls {
		mark(id)
	}
	// A single pass suffices: an added valve's corners are already visited.
	for _, id := range a.NormalValves() {
		if rs.member[id] {
			continue
		}
		c1, c2 := valveCorners(a, id)
		if rs.visited[c1] && rs.visited[c2] {
			c.Valves = append(c.Valves, id)
			rs.member[id] = true
			rs.mlist = append(rs.mlist, id)
		}
	}
	sort.Slice(c.Valves, func(i, j int) bool { return c.Valves[i] < c.Valves[j] })
	for _, ci := range rs.vlist {
		rs.visited[ci] = false
	}
	for _, id := range rs.mlist {
		rs.member[id] = false
	}
	rs.vlist = rs.vlist[:0]
	rs.mlist = rs.mlist[:0]
}

// cutVectorInto writes the cut's command vector (members closed, every
// other Normal valve open) into an existing vector, avoiding the per-probe
// vector allocation of Cut.Vector.
func cutVectorInto(a *grid.Array, c *Cut, vec *sim.Vector) {
	for _, id := range a.NormalValves() {
		vec.SetOpen(id, true)
	}
	for _, id := range c.Valves {
		vec.SetOpen(id, false)
	}
}

// Validate checks that closing the cut separates every source from every
// sink (with all other valves open).
func Validate(a *grid.Array, s *sim.Simulator, c *Cut) error {
	return s.VerifyCutVector(c.Vector(a, "check"))
}

// Testable reports whether a stuck-at-1 fault on member x of the cut is
// observable: re-opening x alone must pressurize a sink.
func Testable(a *grid.Array, s *sim.Simulator, c *Cut, x grid.ValveID) bool {
	vec := c.Vector(a, "check")
	vec.SetOpen(x, true)
	return s.SinkPressured(vec)
}

// testableMembersVec appends the cut's testable valves to out, probing over
// a caller-owned vector that already holds the cut's command state (see
// cutVectorInto); the vector is restored between probes.
func testableMembersVec(s *sim.Simulator, c *Cut, vec *sim.Vector, out []grid.ValveID) []grid.ValveID {
	for _, id := range c.Valves {
		vec.SetOpen(id, true)
		if s.SinkPressured(vec) {
			out = append(out, id)
		}
		vec.SetOpen(id, false)
	}
	return out
}
