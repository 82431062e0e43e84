package grid

import "fmt"

// StandardPorts attaches the canonical test fixture used throughout the
// paper's evaluation: one pressure source at the top-left boundary
// (edge H(0,0)) and one pressure meter at the bottom-right boundary
// (edge H(NR-1, NC)). With the ports at opposite corners, every straight
// row cut and every straight column cut separates source from sink, which
// is what makes the straight-line cut-set family complete (Sec. III-C).
func (a *Array) StandardPorts() error {
	if err := a.AddSource("src", a.HValve(0, 0)); err != nil {
		return err
	}
	return a.AddSink("meter", a.HValve(a.nr-1, a.nc))
}

// NewStandard builds a full nr x nc array with StandardPorts attached.
func NewStandard(nr, nc int) (*Array, error) {
	a, err := New(nr, nc)
	if err != nil {
		return nil, err
	}
	if err := a.StandardPorts(); err != nil {
		return nil, err
	}
	return a, nil
}

// MustNewStandard is NewStandard but panics on error.
func MustNewStandard(nr, nc int) *Array {
	a, err := NewStandard(nr, nc)
	if err != nil {
		panic(err)
	}
	return a
}

// MixerSpec describes a dynamic mixer footprint on the array (Fig. 2(b)/(c)
// of the paper): a ring of cells of the given height x width whose interior
// channel forms the mixing loop. Height and width are in cells and must be
// at least 2.
type MixerSpec struct {
	R, C          int // top-left cell of the ring
	Height, Width int
}

// RingCells returns the cells of the mixer loop in cycle order: top row
// left-to-right, right column downwards, bottom row right-to-left, left
// column upwards.
func (m MixerSpec) RingCells() [][2]int {
	var out [][2]int
	for c := m.C; c < m.C+m.Width; c++ {
		out = append(out, [2]int{m.R, c})
	}
	for r := m.R + 1; r < m.R+m.Height; r++ {
		out = append(out, [2]int{r, m.C + m.Width - 1})
	}
	if m.Height > 1 {
		for c := m.C + m.Width - 2; c >= m.C; c-- {
			out = append(out, [2]int{m.R + m.Height - 1, c})
		}
	}
	for r := m.R + m.Height - 2; r > m.R; r-- {
		out = append(out, [2]int{r, m.C})
	}
	return out
}

// MixerValves returns the valve sets that realize the mixer: ring holds the
// valves along the mixing loop in cycle order (kept open while mixing; a
// subset acts as pump valves), and boundary holds every other valve incident
// to a loop cell — the valves sealing the loop from the rest of the array
// and the chord valves crossing its interior, all kept closed while mixing
// (the paper's "closed valve/wall" in Fig. 2). An error is returned if the
// footprint leaves the array or touches an obstacle.
func (a *Array) MixerValves(m MixerSpec) (ring, boundary []ValveID, err error) {
	if m.Height < 2 || m.Width < 2 {
		return nil, nil, fmt.Errorf("grid: mixer %dx%d too small", m.Height, m.Width)
	}
	if m.R < 0 || m.C < 0 || m.R+m.Height > a.nr || m.C+m.Width > a.nc {
		return nil, nil, fmt.Errorf("grid: mixer at (%d,%d) size %dx%d leaves the array",
			m.R, m.C, m.Height, m.Width)
	}
	cells := m.RingCells()
	for _, rc := range cells {
		if a.IsObstacle(rc[0], rc[1]) {
			return nil, nil, fmt.Errorf("grid: mixer ring cell (%d,%d) is an obstacle", rc[0], rc[1])
		}
	}
	onRing := make(map[ValveID]bool)
	for i, rc := range cells {
		next := cells[(i+1)%len(cells)]
		v := a.edgeBetween(rc[0], rc[1], next[0], next[1])
		if v == NoValve {
			return nil, nil, fmt.Errorf("grid: ring cells (%v)-(%v) not adjacent", rc, next)
		}
		ring = append(ring, v)
		onRing[v] = true
	}
	seen := make(map[ValveID]bool)
	for _, rc := range cells {
		for _, v := range a.IncidentValves(rc[0], rc[1]) {
			if seen[v] || onRing[v] {
				continue
			}
			seen[v] = true
			boundary = append(boundary, v)
		}
	}
	return ring, boundary, nil
}

// edgeBetween returns the valve separating two adjacent cells, or NoValve.
func (a *Array) edgeBetween(r1, c1, r2, c2 int) ValveID {
	switch {
	case r1 == r2 && c2 == c1+1:
		return a.HValve(r1, c2)
	case r1 == r2 && c1 == c2+1:
		return a.HValve(r1, c1)
	case c1 == c2 && r2 == r1+1:
		return a.VValve(r2, c1)
	case c1 == c2 && r1 == r2+1:
		return a.VValve(r1, c1)
	}
	return NoValve
}

// EdgeBetween returns the valve separating two adjacent cells, or NoValve if
// the cells are not lattice neighbours.
func (a *Array) EdgeBetween(r1, c1, r2, c2 int) ValveID {
	return a.edgeBetween(r1, c1, r2, c2)
}
