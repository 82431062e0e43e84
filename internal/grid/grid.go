// Package grid models a Fully Programmable Valve Array (FPVA): a regular
// lattice of fluid cells separated by micro-valves, with pressure ports on
// the chip boundary.
//
// Geometry. Cells are indexed (r, c) with 0 <= r < NR and 0 <= c < NC.
// Valves sit on lattice edges:
//
//   - a horizontal-flow valve H(r, c) separates cell (r, c-1) from cell
//     (r, c) for 1 <= c <= NC-1; H(r, 0) and H(r, NC) separate the row's
//     first/last cell from the chip exterior;
//   - a vertical-flow valve V(r, c) separates cell (r-1, c) from cell
//     (r, c) for 1 <= r <= NR-1; V(0, c) and V(NR, c) face the exterior.
//
// Every boundary edge is a Wall (permanently closed) unless a pressure Port
// is attached to it, in which case it is a permanent opening. Interior edges
// are Normal valves by default; they may be declared Channel (no valve is
// built there, fluid always passes — the paper's "fluidic seas" / long
// transportation channels) or become Walls because an adjacent cell is an
// Obstacle. Only Normal valves are units under test.
package grid

import (
	"fmt"
	"sync/atomic"
)

// Orient distinguishes the two valve orientations on the lattice.
type Orient uint8

const (
	// Horizontal marks a valve crossed by horizontal (left-right) flow.
	Horizontal Orient = iota
	// Vertical marks a valve crossed by vertical (top-bottom) flow.
	Vertical
)

func (o Orient) String() string {
	if o == Horizontal {
		return "H"
	}
	return "V"
}

// Kind classifies a lattice edge.
type Kind uint8

const (
	// Normal is a real, controllable valve — a unit under test.
	Normal Kind = iota
	// Channel is an interior edge where no valve is built; fluid always
	// passes. The paper calls these transportation channels.
	Channel
	// Wall is a permanently closed edge: the chip boundary, or an edge
	// adjacent to an obstacle area.
	Wall
	// PortOpen is a boundary edge holding a pressure port; it is a
	// permanent opening between the exterior and the adjacent cell.
	PortOpen
)

func (k Kind) String() string {
	switch k {
	case Normal:
		return "normal"
	case Channel:
		return "channel"
	case Wall:
		return "wall"
	case PortOpen:
		return "port"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ValveID is a dense index over all lattice edges of an Array, including
// boundary edges. IDs are stable for a given array dimension.
type ValveID int

// NoValve is returned by lookups that fall outside the lattice.
const NoValve ValveID = -1

// CellID is a dense index over lattice cells: r*NC + c.
type CellID int

// NoCell marks the chip exterior in edge-endpoint queries.
const NoCell CellID = -1

// Valve describes one lattice edge.
type Valve struct {
	ID     ValveID
	Orient Orient
	// R, C are the lattice coordinates as defined in the package comment.
	R, C int
	Kind Kind
}

// Port is a pressure connection on the chip boundary: either a pressure
// source or a pressure meter (sink).
type Port struct {
	Name   string
	Valve  ValveID // the boundary edge the port occupies
	Source bool    // true: pressure source; false: pressure meter (sink)
}

// Array is an FPVA instance: dimensions, per-edge kinds, obstacle cells and
// boundary ports. The zero value is not usable; construct with New.
type Array struct {
	nr, nc   int
	kinds    []Kind
	obstacle []bool
	ports    []Port

	// normal caches NormalValves; mutators invalidate it. The pointer is
	// atomic so concurrent readers (campaign workers, verify sweeps sharing
	// one array) may trigger the lazy fill without a data race.
	normal atomic.Pointer[[]ValveID]
}

// New returns a full nr x nc array: all interior edges are Normal valves,
// all boundary edges are Walls, and there are no ports yet.
func New(nr, nc int) (*Array, error) {
	if nr < 1 || nc < 1 {
		return nil, fmt.Errorf("grid: dimensions %dx%d out of range", nr, nc)
	}
	a := &Array{
		nr:       nr,
		nc:       nc,
		kinds:    make([]Kind, nr*(nc+1)+(nr+1)*nc),
		obstacle: make([]bool, nr*nc),
	}
	for id := range a.kinds {
		if a.isBoundary(ValveID(id)) {
			a.kinds[id] = Wall
		}
	}
	return a, nil
}

// MustNew is New but panics on error; intended for tests and literals.
func MustNew(nr, nc int) *Array {
	a, err := New(nr, nc)
	if err != nil {
		panic(err)
	}
	return a
}

// NR returns the number of cell rows.
func (a *Array) NR() int { return a.nr }

// NC returns the number of cell columns.
func (a *Array) NC() int { return a.nc }

// NumCells returns NR*NC, the cell-index space (obstacle cells included).
func (a *Array) NumCells() int { return a.nr * a.nc }

// NumValves returns the number of lattice edges, boundary edges included.
func (a *Array) NumValves() int { return len(a.kinds) }

func (a *Array) numH() int { return a.nr * (a.nc + 1) }

// HValve returns the ID of horizontal-flow valve H(r, c), or NoValve if the
// coordinates fall outside the lattice.
func (a *Array) HValve(r, c int) ValveID {
	if r < 0 || r >= a.nr || c < 0 || c > a.nc {
		return NoValve
	}
	return ValveID(r*(a.nc+1) + c)
}

// VValve returns the ID of vertical-flow valve V(r, c), or NoValve if the
// coordinates fall outside the lattice.
func (a *Array) VValve(r, c int) ValveID {
	if r < 0 || r > a.nr || c < 0 || c >= a.nc {
		return NoValve
	}
	return ValveID(a.numH() + r*a.nc + c)
}

// Valve returns the full description of edge id. It panics if id is out of
// range.
func (a *Array) Valve(id ValveID) Valve {
	o, r, c := a.locate(id)
	return Valve{ID: id, Orient: o, R: r, C: c, Kind: a.kinds[id]}
}

// Kind returns the kind of edge id.
//
//fpva:allocfree
func (a *Array) Kind(id ValveID) Kind { return a.kinds[id] }

func (a *Array) locate(id ValveID) (Orient, int, int) {
	i := int(id)
	if i < 0 || i >= len(a.kinds) {
		panic(fmt.Sprintf("grid: valve id %d out of range [0,%d)", i, len(a.kinds)))
	}
	if i < a.numH() {
		return Horizontal, i / (a.nc + 1), i % (a.nc + 1)
	}
	i -= a.numH()
	return Vertical, i / a.nc, i % a.nc
}

func (a *Array) isBoundary(id ValveID) bool {
	o, r, c := a.locate(id)
	if o == Horizontal {
		return c == 0 || c == a.nc
	}
	return r == 0 || r == a.nr
}

// CellIndex returns the dense index of cell (r, c), or NoCell if out of
// range.
func (a *Array) CellIndex(r, c int) CellID {
	if r < 0 || r >= a.nr || c < 0 || c >= a.nc {
		return NoCell
	}
	return CellID(r*a.nc + c)
}

// CellCoords is the inverse of CellIndex.
func (a *Array) CellCoords(id CellID) (r, c int) {
	return int(id) / a.nc, int(id) % a.nc
}

// IsObstacle reports whether cell (r, c) is an obstacle area (no fluid).
func (a *Array) IsObstacle(r, c int) bool {
	id := a.CellIndex(r, c)
	return id != NoCell && a.obstacle[id]
}

// EdgeCells returns the two cells an edge separates, in (left,right) or
// (top,bottom) order. The exterior side of a boundary edge is NoCell.
func (a *Array) EdgeCells(id ValveID) (CellID, CellID) {
	o, r, c := a.locate(id)
	if o == Horizontal {
		return a.CellIndex(r, c-1), a.CellIndex(r, c)
	}
	return a.CellIndex(r-1, c), a.CellIndex(r, c)
}

// IncidentValves returns the four edges around cell (r, c) in the order
// left, right, up, down.
func (a *Array) IncidentValves(r, c int) [4]ValveID {
	return [4]ValveID{
		a.HValve(r, c),
		a.HValve(r, c+1),
		a.VValve(r, c),
		a.VValve(r+1, c),
	}
}

// SetChannelH declares the horizontal edges connecting cells
// (r, c0) .. (r, c1) as a transportation channel: the valves H(r, c0+1) ..
// H(r, c1) are removed (kind Channel). It returns the number of edges that
// changed from Normal to Channel.
func (a *Array) SetChannelH(r, c0, c1 int) (int, error) {
	if c0 >= c1 {
		return 0, fmt.Errorf("grid: channel needs c0 < c1, got %d..%d", c0, c1)
	}
	n := 0
	for c := c0 + 1; c <= c1; c++ {
		id := a.HValve(r, c)
		if id == NoValve || a.isBoundary(id) {
			return n, fmt.Errorf("grid: channel edge H(%d,%d) outside interior", r, c)
		}
		if a.kinds[id] == Normal {
			n++
		}
		a.kinds[id] = Channel
	}
	a.normal.Store(nil)
	return n, nil
}

// SetChannelV declares the vertical edges connecting cells (r0, c) ..
// (r1, c) as a transportation channel, analogously to SetChannelH.
func (a *Array) SetChannelV(c, r0, r1 int) (int, error) {
	if r0 >= r1 {
		return 0, fmt.Errorf("grid: channel needs r0 < r1, got %d..%d", r0, r1)
	}
	n := 0
	for r := r0 + 1; r <= r1; r++ {
		id := a.VValve(r, c)
		if id == NoValve || a.isBoundary(id) {
			return n, fmt.Errorf("grid: channel edge V(%d,%d) outside interior", r, c)
		}
		if a.kinds[id] == Normal {
			n++
		}
		a.kinds[id] = Channel
	}
	a.normal.Store(nil)
	return n, nil
}

// SetObstacle marks cell (r, c) as an obstacle area. All four incident
// edges become Walls. It returns the number of edges that changed from
// Normal to Wall.
func (a *Array) SetObstacle(r, c int) (int, error) {
	id := a.CellIndex(r, c)
	if id == NoCell {
		return 0, fmt.Errorf("grid: obstacle cell (%d,%d) out of range", r, c)
	}
	a.obstacle[id] = true
	n := 0
	for _, v := range a.IncidentValves(r, c) {
		if a.kinds[v] == Normal || a.kinds[v] == Channel {
			if a.kinds[v] == Normal {
				n++
			}
			a.kinds[v] = Wall
		}
	}
	a.normal.Store(nil)
	return n, nil
}

// AddSource attaches a pressure source to boundary edge id.
func (a *Array) AddSource(name string, id ValveID) error {
	return a.addPort(name, id, true)
}

// AddSink attaches a pressure meter to boundary edge id.
func (a *Array) AddSink(name string, id ValveID) error {
	return a.addPort(name, id, false)
}

func (a *Array) addPort(name string, id ValveID, source bool) error {
	if int(id) < 0 || int(id) >= len(a.kinds) {
		return fmt.Errorf("grid: port %q: valve id %d out of range", name, id)
	}
	if !a.isBoundary(id) {
		return fmt.Errorf("grid: port %q: valve %d is not on the boundary", name, id)
	}
	if a.kinds[id] == PortOpen {
		return fmt.Errorf("grid: port %q: boundary edge %d already holds a port", name, id)
	}
	in := a.interiorCell(id)
	if in == NoCell || a.obstacle[in] {
		return fmt.Errorf("grid: port %q: interior cell behind edge %d is an obstacle", name, id)
	}
	a.kinds[id] = PortOpen
	a.ports = append(a.ports, Port{Name: name, Valve: id, Source: source})
	return nil
}

// interiorCell returns the non-exterior endpoint of a boundary edge.
func (a *Array) interiorCell(id ValveID) CellID {
	u, w := a.EdgeCells(id)
	if u == NoCell {
		return w
	}
	return u
}

// InteriorCell exposes the interior endpoint of a boundary edge; it returns
// NoCell if the edge is not on the boundary.
func (a *Array) InteriorCell(id ValveID) CellID {
	if !a.isBoundary(id) {
		return NoCell
	}
	return a.interiorCell(id)
}

// Ports returns the attached ports in attachment order. The returned slice
// must not be modified.
func (a *Array) Ports() []Port { return a.ports }

// Sources returns the pressure-source ports.
func (a *Array) Sources() []Port { return a.filterPorts(true) }

// Sinks returns the pressure-meter ports.
func (a *Array) Sinks() []Port { return a.filterPorts(false) }

func (a *Array) filterPorts(source bool) []Port {
	var out []Port
	for _, p := range a.ports {
		if p.Source == source {
			out = append(out, p)
		}
	}
	return out
}

// NormalValves returns the IDs of all Normal valves — the units under test —
// in increasing ID order. The slice is cached (rebuilt after mutations) and
// must not be modified by the caller; coverage bookkeeping all over the
// generators leans on this being allocation-free.
func (a *Array) NormalValves() []ValveID {
	if p := a.normal.Load(); p != nil {
		return *p
	}
	out := make([]ValveID, 0, len(a.kinds))
	for id, k := range a.kinds {
		if k == Normal {
			out = append(out, ValveID(id))
		}
	}
	a.normal.Store(&out)
	return out
}

// NumNormal returns the count of Normal valves (the paper's nv column).
func (a *Array) NumNormal() int {
	n := 0
	for _, k := range a.kinds {
		if k == Normal {
			n++
		}
	}
	return n
}

// Passable reports whether fluid can ever traverse edge id under some valve
// command: true for Normal, Channel and PortOpen edges, false for Walls.
func (a *Array) Passable(id ValveID) bool { return a.kinds[id] != Wall }

// Validate checks structural invariants: every port sits on a boundary edge,
// obstacle cells have only Wall edges, and at least one source and one sink
// exist. Generators call this before working on an array.
func (a *Array) Validate() error {
	nsrc, nsink := 0, 0
	for _, p := range a.ports {
		if !a.isBoundary(p.Valve) {
			return fmt.Errorf("grid: port %q on non-boundary edge %d", p.Name, p.Valve)
		}
		if a.kinds[p.Valve] != PortOpen {
			return fmt.Errorf("grid: port %q edge %d has kind %v", p.Name, p.Valve, a.kinds[p.Valve])
		}
		if p.Source {
			nsrc++
		} else {
			nsink++
		}
	}
	if nsrc == 0 {
		return fmt.Errorf("grid: array has no pressure source")
	}
	if nsink == 0 {
		return fmt.Errorf("grid: array has no pressure meter")
	}
	for r := 0; r < a.nr; r++ {
		for c := 0; c < a.nc; c++ {
			if !a.obstacle[a.CellIndex(r, c)] {
				continue
			}
			for _, v := range a.IncidentValves(r, c) {
				if a.kinds[v] != Wall {
					return fmt.Errorf("grid: obstacle cell (%d,%d) has non-wall edge %d (%v)",
						r, c, v, a.kinds[v])
				}
			}
		}
	}
	return nil
}

// String renders a compact one-line summary.
func (a *Array) String() string {
	return fmt.Sprintf("FPVA %dx%d (nv=%d, ports=%d)", a.nr, a.nc, a.NumNormal(), len(a.ports))
}
