// Package sim is the pressure-propagation fault simulator for FPVAs.
//
// The test method of the paper observes, per test vector, whether air
// pressure applied at the source ports reaches each pressure meter. At
// steady state this is exactly graph reachability from the source cells
// through the open valves — which is the model used here, and also the
// model the paper's own fault-injection study uses ("we randomly introduced
// ... faults and applied the generated test vectors").
//
// Faults follow Sec. II of the paper:
//
//   - StuckAt0: the valve cannot be opened (broken flow channel);
//   - StuckAt1: the valve cannot be closed (leaking flow channel or broken
//     control channel);
//   - ControlLeak: pressure shared between two control channels closes both
//     valves whenever either one is actuated (leaking control channel).
package sim

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/grid"
)

// VectorKind labels the generator that produced a test vector.
type VectorKind uint8

const (
	// FlowPath vectors open a single simple source-to-sink path.
	FlowPath VectorKind = iota
	// CutSet vectors close a separating valve set and open everything else.
	CutSet
	// Leakage vectors target control-layer leakage pairs.
	Leakage
	// Custom marks hand-built vectors.
	Custom
)

func (k VectorKind) String() string {
	switch k {
	case FlowPath:
		return "flow-path"
	case CutSet:
		return "cut-set"
	case Leakage:
		return "leakage"
	default:
		return "custom"
	}
}

// Vector is one test vector: a commanded open/closed state for every Normal
// valve of an array. Channel and PortOpen edges are always open; Walls are
// always closed, regardless of the command.
type Vector struct {
	Name string
	Kind VectorKind
	open []bool // indexed by ValveID; meaningful for Normal valves
}

// NewVector returns a vector with every Normal valve commanded closed.
func NewVector(a *grid.Array, kind VectorKind, name string) *Vector {
	return &Vector{Name: name, Kind: kind, open: make([]bool, a.NumValves())}
}

// SetOpen commands valve id open (true) or closed (false).
func (v *Vector) SetOpen(id grid.ValveID, open bool) { v.open[id] = open }

// Open reports the commanded state of valve id.
func (v *Vector) Open(id grid.ValveID) bool { return v.open[id] }

// OpenValves returns the IDs commanded open, ascending.
func (v *Vector) OpenValves() []grid.ValveID {
	var out []grid.ValveID
	for id, o := range v.open {
		if o {
			out = append(out, grid.ValveID(id))
		}
	}
	return out
}

// FaultKind enumerates the component-level fault models.
type FaultKind uint8

const (
	// StuckAt0 means the valve cannot be opened.
	StuckAt0 FaultKind = iota
	// StuckAt1 means the valve cannot be closed.
	StuckAt1
	// ControlLeak couples two control channels: actuating either valve
	// closes both.
	ControlLeak
)

func (k FaultKind) String() string {
	switch k {
	case StuckAt0:
		return "stuck-at-0"
	case StuckAt1:
		return "stuck-at-1"
	default:
		return "control-leak"
	}
}

// Fault is a single injected defect. A and B are valve IDs; B is used only
// by ControlLeak.
type Fault struct {
	Kind FaultKind
	A, B grid.ValveID
}

func (f Fault) String() string {
	if f.Kind == ControlLeak {
		return fmt.Sprintf("control-leak(%d,%d)", f.A, f.B)
	}
	return fmt.Sprintf("%v(%d)", f.Kind, f.A)
}

// Simulator evaluates test vectors on one array, with or without faults.
// It precomputes the cell/port graph once; Readings is then a single
// multi-source BFS. Steady-state evaluation reuses pooled scratch buffers,
// so the inner loop of a campaign allocates nothing; all methods are safe
// for concurrent use.
type Simulator struct {
	arr        *grid.Array
	g          *graph.Graph
	srcNodes   []int
	sinkNodes  []int
	sinkNames  []string
	edgeValve  []int   // graph edge index -> valve ID
	valveEdges [][]int // valve ID -> graph edge indices (word-engine seeding)
	valveEnds  [][]int // valve ID -> its edges' endpoint nodes, flattened
	effBase    []bool
	normalIDs  []int
	isNormal   []bool // valve ID -> Kind == Normal (hot-path kind guard)
	scratches  sync.Pool
}

// New builds a simulator for the array. The array must Validate.
func New(a *grid.Array) (*Simulator, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	// Nodes: one per cell, plus one per port.
	n := a.NumCells()
	ports := a.Ports()
	g := graph.New(n + len(ports))
	portNode := make(map[grid.ValveID]int, len(ports))
	for i, p := range ports {
		portNode[p.Valve] = n + i
	}
	for id := 0; id < a.NumValves(); id++ {
		vid := grid.ValveID(id)
		if !a.Passable(vid) {
			continue
		}
		u, w := a.EdgeCells(vid)
		switch {
		case u != grid.NoCell && w != grid.NoCell:
			g.AddEdge(int(u), int(w), id)
		case a.Kind(vid) == grid.PortOpen:
			cell := int(a.InteriorCell(vid))
			g.AddEdge(portNode[vid], cell, id)
		}
		// Passable boundary edges without ports cannot exist (boundary
		// edges are Wall or PortOpen), so no other case arises.
	}
	s := &Simulator{arr: a, g: g}
	for i, p := range ports {
		if p.Source {
			s.srcNodes = append(s.srcNodes, n+i)
		} else {
			s.sinkNodes = append(s.sinkNodes, n+i)
			s.sinkNames = append(s.sinkNames, p.Name)
		}
	}
	s.edgeValve = make([]int, g.M())
	s.valveEdges = make([][]int, a.NumValves())
	s.valveEnds = make([][]int, a.NumValves())
	for e, ed := range g.Edges() {
		s.edgeValve[e] = ed.Label
		s.valveEdges[ed.Label] = append(s.valveEdges[ed.Label], e)
		s.valveEnds[ed.Label] = append(s.valveEnds[ed.Label], ed.U, ed.V)
	}
	// Template for effIntoBase: the physical state with every Normal valve
	// commanded closed. Overlaying a command vector is then one copy plus a
	// sweep over the Normal IDs, instead of a per-valve kind switch.
	s.effBase = make([]bool, a.NumValves())
	for id := range s.effBase {
		switch a.Kind(grid.ValveID(id)) {
		case grid.Channel, grid.PortOpen:
			s.effBase[id] = true
		}
	}
	s.normalIDs = make([]int, 0, a.NumNormal())
	s.isNormal = make([]bool, a.NumValves())
	for _, v := range a.NormalValves() {
		s.normalIDs = append(s.normalIDs, int(v))
		s.isNormal[v] = true
	}
	s.scratches.New = func() any { return s.newScratch() }
	return s, nil
}

// scratch holds the per-evaluation working set of one goroutine: effective
// valve states, BFS via/queue buffers, and a sink-reading buffer. Scratches
// cycle through Simulator.scratches so steady-state evaluation is
// allocation-free.
type scratch struct {
	eff     []bool
	via     []int
	queue   []int
	out     []bool
	enabled func(e int) bool
}

func (s *Simulator) newScratch() *scratch {
	sc := &scratch{
		eff:   make([]bool, s.arr.NumValves()),
		via:   make([]int, s.g.N()),
		queue: make([]int, 0, s.g.N()),
		out:   make([]bool, len(s.sinkNodes)),
	}
	sc.enabled = func(e int) bool { return sc.eff[s.edgeValve[e]] }
	return sc
}

func (s *Simulator) getScratch() *scratch   { return s.scratches.Get().(*scratch) }
func (s *Simulator) putScratch(sc *scratch) { s.scratches.Put(sc) }

// MustNew is New but panics on error.
func MustNew(a *grid.Array) *Simulator {
	s, err := New(a)
	if err != nil {
		panic(err)
	}
	return s
}

// Array returns the array under simulation.
func (s *Simulator) Array() *grid.Array { return s.arr }

// effIntoBase writes the fault-free physical state of every edge under a
// command vector into eff (len = NumValves).
//
//fpva:allocfree
func (s *Simulator) effIntoBase(eff []bool, vec *Vector) {
	copy(eff, s.effBase)
	for _, id := range s.normalIDs {
		if vec.open[id] {
			eff[id] = true
		}
	}
}

// applyFaults overlays a fault list on a fault-free effective state and
// reports whether any edge actually changed — when it didn't, the readings
// are guaranteed to equal the fault-free ones and the BFS can be skipped.
//
//fpva:allocfree
func (s *Simulator) applyFaults(eff []bool, vec *Vector, faults []Fault) bool {
	changed := false
	// Control leakage first: commanded closure propagates to the partner.
	// Like the stuck-at branches below, the fault is meaningful only on
	// Normal valves: Channel/PortOpen edges have no control channel to leak
	// (and Walls no flow), so a malformed fault naming one must not force an
	// always-open edge closed.
	for _, f := range faults {
		if f.Kind != ControlLeak {
			continue
		}
		if s.arr.Kind(f.A) != grid.Normal || s.arr.Kind(f.B) != grid.Normal {
			continue
		}
		if !vec.open[f.A] || !vec.open[f.B] {
			if eff[f.A] || eff[f.B] {
				changed = true
			}
			eff[f.A] = false
			eff[f.B] = false
		}
	}
	// Stuck-at faults override everything, including leakage: a valve that
	// physically cannot close stays open no matter which control channel is
	// pressurized, and vice versa.
	for _, f := range faults {
		switch f.Kind {
		case StuckAt0:
			if s.arr.Kind(f.A) == grid.Normal && eff[f.A] {
				eff[f.A] = false
				changed = true
			}
		case StuckAt1:
			if s.arr.Kind(f.A) == grid.Normal && !eff[f.A] {
				eff[f.A] = true
				changed = true
			}
		}
	}
	return changed
}

// readingsInto runs one multi-source BFS over the effective state held in
// sc.eff and writes per-sink pressure into out (len = number of sinks).
//
//fpva:allocfree
func (s *Simulator) readingsInto(sc *scratch, out []bool) []bool {
	via := s.g.BFSInto(sc.via, sc.queue, s.srcNodes, sc.enabled)
	for i, snk := range s.sinkNodes {
		out[i] = via[snk] != -1
	}
	return out
}

// SinkPressured reports whether any sink sees pressure under vec on a
// fault-free chip. Unlike Readings it allocates nothing, which makes it the
// inner loop of cut-set testability scans.
//
//fpva:allocfree
func (s *Simulator) SinkPressured(vec *Vector) bool {
	sc := s.getScratch()
	defer s.putScratch(sc)
	s.effIntoBase(sc.eff, vec)
	s.readingsInto(sc, sc.out)
	for _, r := range sc.out {
		if r {
			return true
		}
	}
	return false
}

// Readings returns the pressure observed at each sink (order of
// Array().Sinks()) when vec is applied under the given faults (nil for a
// fault-free chip).
func (s *Simulator) Readings(vec *Vector, faults []Fault) []bool {
	sc := s.getScratch()
	defer s.putScratch(sc)
	s.effIntoBase(sc.eff, vec)
	s.applyFaults(sc.eff, vec, faults)
	return s.readingsInto(sc, make([]bool, len(s.sinkNodes)))
}

// AllSingleFaults enumerates every stuck-at fault on the array's Normal
// valves, for exhaustive guarantee checks.
func AllSingleFaults(a *grid.Array) []Fault {
	var out []Fault
	for _, v := range a.NormalValves() {
		out = append(out, Fault{Kind: StuckAt0, A: v}, Fault{Kind: StuckAt1, A: v})
	}
	return out
}

// VerifyPathVector checks the structural invariants of a flow-path vector:
// the open valves form one simple source-to-sink path (no loops, no
// branches — the paper's Fig. 5(a) condition) and pressure reaches the
// path's sink. It returns a descriptive error otherwise.
//
// Degree invariant: every cell touches 0 or 2 commanded-open valves. A cell
// touching exactly 1 must be a path terminus — a port cell, or a cell of an
// always-open transportation channel the path continues through. Anything
// above 2 is a branch. Open valves unreachable from every source reveal a
// detached loop or a second disjoint segment.
func (s *Simulator) VerifyPathVector(vec *Vector) error {
	a := s.arr
	deg := make(map[grid.CellID]int)
	openEdges := 0
	for id := 0; id < a.NumValves(); id++ {
		vid := grid.ValveID(id)
		if a.Kind(vid) != grid.Normal || !vec.open[id] {
			continue // channels are always open but not path members per se
		}
		openEdges++
		u, w := a.EdgeCells(vid)
		for _, cell := range []grid.CellID{u, w} {
			if cell != grid.NoCell {
				deg[cell]++
			}
		}
	}
	if openEdges == 0 {
		return fmt.Errorf("sim: path vector %q opens no valves", vec.Name)
	}
	// Cells where a path segment may legally end with degree 1.
	term := make(map[grid.CellID]bool)
	for _, p := range a.Ports() {
		term[a.InteriorCell(p.Valve)] = true
	}
	for id := 0; id < a.NumValves(); id++ {
		vid := grid.ValveID(id)
		if a.Kind(vid) != grid.Channel {
			continue
		}
		u, w := a.EdgeCells(vid)
		for _, cell := range []grid.CellID{u, w} {
			if cell != grid.NoCell {
				term[cell] = true
			}
		}
	}
	// Check cells in sorted order so a vector with several defects always
	// reports the same one (errors here reach goldens and user logs).
	cells := make([]grid.CellID, 0, len(deg))
	for cell := range deg {
		cells = append(cells, cell)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	for _, cell := range cells {
		d := deg[cell]
		r, c := a.CellCoords(cell)
		if d > 2 {
			return fmt.Errorf("sim: path vector %q branches: cell (%d,%d) touches %d open valves", vec.Name, r, c, d)
		}
		if d == 1 && !term[cell] {
			return fmt.Errorf("sim: path vector %q dangles: cell (%d,%d) ends a segment away from any port or channel", vec.Name, r, c)
		}
	}
	// One BFS answers both remaining checks: every open valve must be
	// pressurized (no detached loops or disjoint segments), and some sink
	// must see pressure.
	sc := s.getScratch()
	defer s.putScratch(sc)
	s.effIntoBase(sc.eff, vec)
	via := s.g.BFSInto(sc.via, sc.queue, s.srcNodes, sc.enabled)
	for id := 0; id < a.NumValves(); id++ {
		vid := grid.ValveID(id)
		if a.Kind(vid) != grid.Normal || !vec.open[id] {
			continue
		}
		// An open valve conducts, so its two endpoints are pressurized
		// together; check whichever cells exist (NoCell marks the chip
		// exterior on boundary-adjacent edges) so the scan stays safe if a
		// boundary Normal valve ever appears.
		u, w := a.EdgeCells(vid)
		pressurized := u == grid.NoCell && w == grid.NoCell
		if u != grid.NoCell && via[int(u)] != -1 {
			pressurized = true
		}
		if w != grid.NoCell && via[int(w)] != -1 {
			pressurized = true
		}
		if !pressurized {
			return fmt.Errorf("sim: path vector %q loops or is split: open valve %d is not pressurized from any source", vec.Name, id)
		}
	}
	for _, snk := range s.sinkNodes {
		if via[snk] != -1 {
			return nil
		}
	}
	return fmt.Errorf("sim: path vector %q: no sink sees pressure", vec.Name)
}

// VerifyCutVector checks that the closed valves of a cut-set vector indeed
// separate all sources from all sinks: no sink may see pressure.
func (s *Simulator) VerifyCutVector(vec *Vector) error {
	for i, r := range s.Readings(vec, nil) {
		if r {
			return fmt.Errorf("sim: cut vector %q: sink %s sees pressure", vec.Name, s.sinkNames[i])
		}
	}
	return nil
}
