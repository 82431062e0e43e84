package grid

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Text format. An array is written as a header line "fpva NR NC" followed by
// a (2*NR+1) x (2*NC+1) character matrix:
//
//	odd row, odd col   — cell:   '.' fluid cell, '#' obstacle
//	odd row, even col  — H edge: see edge characters below
//	even row, odd col  — V edge: see edge characters below
//	even row, even col — lattice corner, always '+'
//
// Edge characters:
//
//	'o'  Normal valve
//	'='  Channel (always open, no valve built)
//	'X'  Wall (always closed)
//	'S'  PortOpen with a pressure source attached
//	'M'  PortOpen with a pressure meter attached
//
// The format round-trips through Marshal / Parse and is accepted by the
// command-line tools.

const (
	chCell     = '.'
	chObstacle = '#'
	chNormal   = 'o'
	chChannel  = '='
	chWall     = 'X'
	chSource   = 'S'
	chMeter    = 'M'
	chCorner   = '+'
)

// Marshal renders the array in the package text format.
func Marshal(a *Array) string {
	portKind := make(map[ValveID]bool) // true = source
	for _, p := range a.ports {
		portKind[p.Valve] = p.Source
	}
	edgeChar := func(id ValveID) byte {
		switch a.kinds[id] {
		case Normal:
			return chNormal
		case Channel:
			return chChannel
		case PortOpen:
			if portKind[id] {
				return chSource
			}
			return chMeter
		default:
			return chWall
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fpva %d %d\n", a.nr, a.nc)
	for gr := 0; gr <= 2*a.nr; gr++ {
		for gc := 0; gc <= 2*a.nc; gc++ {
			switch {
			case gr%2 == 1 && gc%2 == 1: // cell
				if a.obstacle[a.CellIndex(gr/2, gc/2)] {
					b.WriteByte(chObstacle)
				} else {
					b.WriteByte(chCell)
				}
			case gr%2 == 1 && gc%2 == 0: // H edge
				b.WriteByte(edgeChar(a.HValve(gr/2, gc/2)))
			case gr%2 == 0 && gc%2 == 1: // V edge
				b.WriteByte(edgeChar(a.VValve(gr/2, gc/2)))
			default:
				b.WriteByte(chCorner)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Parse reads an array in the package text format. Port names are
// synthesized as src0, src1, ... and meter0, meter1, ... in row-major edge
// order.
func Parse(r io.Reader) (*Array, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("grid: empty input")
	}
	var nr, nc int
	if _, err := fmt.Sscanf(strings.TrimSpace(sc.Text()), "fpva %d %d", &nr, &nc); err != nil {
		return nil, fmt.Errorf("grid: bad header %q: %v", sc.Text(), err)
	}
	if nr < 1 || nc < 1 {
		return nil, fmt.Errorf("grid: dimensions %dx%d out of range", nr, nc)
	}
	var rows []string
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " \t\r")
		if line == "" && len(rows) == 2*nr+1 {
			break
		}
		rows = append(rows, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Check the matrix against the header before allocating the array, so
	// the allocation is bounded by the input: a header alone must not
	// allocate (or, past int range, panic on) an arbitrarily large array.
	// The widths are the ones the passes below read: an edge row needs its
	// last vertical valve, a cell row its last horizontal one.
	if nr > (len(rows)-1)/2 {
		return nil, fmt.Errorf("grid: want %d matrix rows, got %d", 2*nr+1, len(rows))
	}
	for gr, row := range rows[:2*nr+1] {
		if gr%2 == 0 && nc > len(row)/2 || gr%2 == 1 && nc > (len(row)-1)/2 {
			return nil, fmt.Errorf("grid: matrix row %d too short", gr)
		}
	}
	a, err := New(nr, nc)
	if err != nil {
		return nil, err
	}
	nsrc, nsink := 0, 0
	setEdge := func(id ValveID, ch byte, gr, gc int) error {
		onB := a.isBoundary(id)
		switch ch {
		case chNormal:
			if onB {
				return fmt.Errorf("grid: row %d col %d: normal valve on boundary", gr, gc)
			}
			a.kinds[id] = Normal
		case chChannel:
			if onB {
				return fmt.Errorf("grid: row %d col %d: channel on boundary", gr, gc)
			}
			a.kinds[id] = Channel
		case chWall:
			a.kinds[id] = Wall
		case chSource:
			if err := a.AddSource(fmt.Sprintf("src%d", nsrc), id); err != nil {
				return err
			}
			nsrc++
		case chMeter:
			if err := a.AddSink(fmt.Sprintf("meter%d", nsink), id); err != nil {
				return err
			}
			nsink++
		default:
			return fmt.Errorf("grid: row %d col %d: bad edge char %q", gr, gc, ch)
		}
		return nil
	}
	// First pass: cells, so that AddSource can validate interior cells.
	for gr := 1; gr <= 2*nr; gr += 2 {
		row := rows[gr]
		for gc := 1; gc <= 2*nc; gc += 2 {
			if gc >= len(row) {
				return nil, fmt.Errorf("grid: matrix row %d too short", gr)
			}
			switch row[gc] {
			case chObstacle:
				a.obstacle[a.CellIndex(gr/2, gc/2)] = true
			case chCell:
			default:
				return nil, fmt.Errorf("grid: row %d col %d: bad cell char %q", gr, gc, row[gc])
			}
		}
	}
	for gr := 0; gr <= 2*nr; gr++ {
		row := rows[gr]
		for gc := 0; gc <= 2*nc; gc++ {
			if gr%2 == 1 && gc%2 == 1 || gr%2 == 0 && gc%2 == 0 {
				continue
			}
			if gc >= len(row) {
				return nil, fmt.Errorf("grid: matrix row %d too short", gr)
			}
			var id ValveID
			if gr%2 == 1 {
				id = a.HValve(gr/2, gc/2)
			} else {
				id = a.VValve(gr/2, gc/2)
			}
			if err := setEdge(id, row[gc], gr, gc); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}
