package grid

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	for _, tc := range []struct {
		nr, nc       int
		valves, h, v int
	}{
		{1, 1, 4, 2, 2},
		{2, 2, 12, 6, 6},
		{5, 5, 60, 30, 30},
		{3, 7, 52, 24, 28},
	} {
		a := MustNew(tc.nr, tc.nc)
		if got := a.NumValves(); got != tc.valves {
			t.Errorf("%dx%d: NumValves=%d, want %d", tc.nr, tc.nc, got, tc.valves)
		}
		if got := a.numH(); got != tc.h {
			t.Errorf("%dx%d: numH=%d, want %d", tc.nr, tc.nc, got, tc.h)
		}
	}
	if _, err := New(0, 3); err == nil {
		t.Error("New(0,3): want error")
	}
}

func TestInternalNormalCount(t *testing.T) {
	// A full nr x nc array has nr*(nc-1) + nc*(nr-1) interior Normal valves.
	for _, tc := range []struct{ nr, nc, want int }{
		{5, 5, 40}, {10, 10, 180}, {15, 15, 420}, {20, 20, 760}, {30, 30, 1740},
		{2, 3, 7},
	} {
		a := MustNew(tc.nr, tc.nc)
		if got := a.NumNormal(); got != tc.want {
			t.Errorf("%dx%d: NumNormal=%d, want %d", tc.nr, tc.nc, got, tc.want)
		}
	}
}

func TestValveRoundTrip(t *testing.T) {
	a := MustNew(4, 6)
	for id := 0; id < a.NumValves(); id++ {
		v := a.Valve(ValveID(id))
		var back ValveID
		if v.Orient == Horizontal {
			back = a.HValve(v.R, v.C)
		} else {
			back = a.VValve(v.R, v.C)
		}
		if back != v.ID {
			t.Fatalf("valve %d: round-trip gives %d (orient %v r=%d c=%d)", id, back, v.Orient, v.R, v.C)
		}
	}
}

func TestValveLookupOutOfRange(t *testing.T) {
	a := MustNew(3, 3)
	cases := []ValveID{
		a.HValve(-1, 0), a.HValve(3, 0), a.HValve(0, 4),
		a.VValve(0, -1), a.VValve(4, 0), a.VValve(0, 3),
	}
	for i, id := range cases {
		if id != NoValve {
			t.Errorf("case %d: got %d, want NoValve", i, id)
		}
	}
}

func TestEdgeCells(t *testing.T) {
	a := MustNew(3, 3)
	u, w := a.EdgeCells(a.HValve(1, 1))
	if u != a.CellIndex(1, 0) || w != a.CellIndex(1, 1) {
		t.Errorf("H(1,1): cells %d,%d", u, w)
	}
	u, w = a.EdgeCells(a.HValve(1, 0))
	if u != NoCell || w != a.CellIndex(1, 0) {
		t.Errorf("H(1,0): cells %d,%d, want exterior,cell", u, w)
	}
	u, w = a.EdgeCells(a.VValve(3, 2))
	if u != a.CellIndex(2, 2) || w != NoCell {
		t.Errorf("V(3,2): cells %d,%d, want cell,exterior", u, w)
	}
}

func TestIncidentValvesConsistent(t *testing.T) {
	a := MustNew(4, 5)
	for r := 0; r < a.NR(); r++ {
		for c := 0; c < a.NC(); c++ {
			cell := a.CellIndex(r, c)
			for _, v := range a.IncidentValves(r, c) {
				u, w := a.EdgeCells(v)
				if u != cell && w != cell {
					t.Fatalf("cell (%d,%d): incident valve %d has endpoints %d,%d", r, c, v, u, w)
				}
			}
		}
	}
}

func TestEdgeBetween(t *testing.T) {
	a := MustNew(4, 4)
	if got := a.EdgeBetween(1, 1, 1, 2); got != a.HValve(1, 2) {
		t.Errorf("right neighbour: %d", got)
	}
	if got := a.EdgeBetween(1, 2, 1, 1); got != a.HValve(1, 2) {
		t.Errorf("left neighbour: %d", got)
	}
	if got := a.EdgeBetween(2, 3, 3, 3); got != a.VValve(3, 3) {
		t.Errorf("down neighbour: %d", got)
	}
	if got := a.EdgeBetween(0, 0, 2, 0); got != NoValve {
		t.Errorf("non-adjacent: %d, want NoValve", got)
	}
	if got := a.EdgeBetween(0, 0, 1, 1); got != NoValve {
		t.Errorf("diagonal: %d, want NoValve", got)
	}
}

func TestBoundaryWallsByDefault(t *testing.T) {
	a := MustNew(3, 4)
	for id := 0; id < a.NumValves(); id++ {
		v := ValveID(id)
		if a.IsBoundary(v) && a.Kind(v) != Wall {
			t.Errorf("boundary valve %d has kind %v", id, a.Kind(v))
		}
		if !a.IsBoundary(v) && a.Kind(v) != Normal {
			t.Errorf("interior valve %d has kind %v", id, a.Kind(v))
		}
	}
}

func TestChannels(t *testing.T) {
	a := MustNew(5, 5)
	n, err := a.SetChannelH(2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("SetChannelH removed %d valves, want 2", n)
	}
	if a.Kind(a.HValve(2, 2)) != Channel || a.Kind(a.HValve(2, 3)) != Channel {
		t.Error("channel edges not marked")
	}
	if a.NumNormal() != 38 {
		t.Errorf("NumNormal=%d, want 38", a.NumNormal())
	}
	// Idempotent: re-declaring removes nothing further.
	n, err = a.SetChannelH(2, 1, 3)
	if err != nil || n != 0 {
		t.Errorf("re-declare: n=%d err=%v", n, err)
	}
	// Vertical channel.
	n, err = a.SetChannelV(4, 0, 2)
	if err != nil || n != 2 {
		t.Fatalf("SetChannelV: n=%d err=%v", n, err)
	}
	// Errors.
	if _, err := a.SetChannelH(2, 3, 3); err == nil {
		t.Error("empty channel: want error")
	}
	if _, err := a.SetChannelH(0, -1, 1); err == nil {
		t.Error("channel through boundary: want error")
	}
}

func TestObstacle(t *testing.T) {
	a := MustNew(5, 5)
	n, err := a.SetObstacle(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("interior obstacle removed %d valves, want 4", n)
	}
	if !a.IsObstacle(2, 2) {
		t.Error("cell not marked obstacle")
	}
	for _, v := range a.IncidentValves(2, 2) {
		if a.Kind(v) != Wall {
			t.Errorf("incident valve %d kind %v, want Wall", v, a.Kind(v))
		}
	}
	// Corner obstacle: two incident edges were already boundary walls.
	b := MustNew(5, 5)
	n, err = b.SetObstacle(0, 0)
	if err != nil || n != 2 {
		t.Errorf("corner obstacle: n=%d err=%v, want 2", n, err)
	}
	if _, err := b.SetObstacle(9, 9); err == nil {
		t.Error("out-of-range obstacle: want error")
	}
}

func TestPorts(t *testing.T) {
	a := MustNew(4, 4)
	if err := a.AddSource("s", a.HValve(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := a.AddSink("m", a.HValve(3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := a.AddSink("dup", a.HValve(0, 0)); err == nil {
		t.Error("duplicate port edge: want error")
	}
	if err := a.AddSink("interior", a.HValve(1, 2)); err == nil {
		t.Error("interior port: want error")
	}
	if got := len(a.Sources()); got != 1 {
		t.Errorf("Sources: %d", got)
	}
	if got := len(a.Sinks()); got != 1 {
		t.Errorf("Sinks: %d", got)
	}
	if got := a.InteriorCell(a.HValve(0, 0)); got != a.CellIndex(0, 0) {
		t.Errorf("InteriorCell: %d", got)
	}
	if got := a.InteriorCell(a.HValve(1, 2)); got != NoCell {
		t.Errorf("InteriorCell of interior edge: %d, want NoCell", got)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPortBehindObstacleRejected(t *testing.T) {
	a := MustNew(3, 3)
	if _, err := a.SetObstacle(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.AddSource("s", a.HValve(0, 0)); err == nil {
		t.Error("port behind obstacle: want error")
	}
}

func TestValidateRequiresPorts(t *testing.T) {
	a := MustNew(3, 3)
	if err := a.Validate(); err == nil {
		t.Error("no ports: want error")
	}
	if err := a.AddSource("s", a.HValve(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err == nil {
		t.Error("no sink: want error")
	}
}

func TestStandardPorts(t *testing.T) {
	a := MustNewStandard(5, 5)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	src := a.Sources()
	if len(src) != 1 || src[0].Valve != a.HValve(0, 0) {
		t.Errorf("source: %+v", src)
	}
	snk := a.Sinks()
	if len(snk) != 1 || snk[0].Valve != a.HValve(4, 5) {
		t.Errorf("sink: %+v", snk)
	}
}

func TestClone(t *testing.T) {
	a := MustNewStandard(4, 4)
	if _, err := a.SetObstacle(1, 1); err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	if _, err := b.SetObstacle(2, 2); err != nil {
		t.Fatal(err)
	}
	if a.IsObstacle(2, 2) {
		t.Error("Clone shares obstacle storage")
	}
	if b.NumNormal() == a.NumNormal() {
		t.Error("Clone did not diverge")
	}
}

func TestPartition(t *testing.T) {
	a := MustNew(10, 10)
	blocks, err := a.Partition(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 || len(blocks[0]) != 2 {
		t.Fatalf("blocks: %dx%d", len(blocks), len(blocks[0]))
	}
	if blocks[1][1] != (Region{5, 5, 10, 10}) {
		t.Errorf("block[1][1] = %v", blocks[1][1])
	}
	// Ragged partition.
	b := MustNew(7, 12)
	blocks, err = b.Partition(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 || len(blocks[0]) != 3 {
		t.Fatalf("ragged blocks: %dx%d", len(blocks), len(blocks[0]))
	}
	last := blocks[1][2]
	if last.Rows() != 2 || last.Cols() != 2 {
		t.Errorf("ragged last block %v", last)
	}
	if _, err := b.Partition(0, 5); err == nil {
		t.Error("zero block size: want error")
	}
}

func TestInteriorValves(t *testing.T) {
	a := MustNew(10, 10)
	g := Region{0, 0, 5, 5}
	got := a.InteriorValves(g)
	// A 5x5 block has 5*4 + 4*5 = 40 strictly interior valves.
	if len(got) != 40 {
		t.Errorf("interior valves: %d, want 40", len(got))
	}
	for _, id := range got {
		u, w := a.EdgeCells(id)
		ur, uc := a.CellCoords(u)
		wr, wc := a.CellCoords(w)
		if !g.Contains(ur, uc) || !g.Contains(wr, wc) {
			t.Fatalf("valve %d leaks out of region", id)
		}
	}
}

func TestMixerValves(t *testing.T) {
	a := MustNewStandard(6, 6)
	for _, spec := range []MixerSpec{
		{R: 1, C: 1, Height: 2, Width: 4}, // Fig. 2(c) 2x4 mixer
		{R: 1, C: 1, Height: 4, Width: 2}, // Fig. 2(b) 4x2 mixer
		{R: 1, C: 1, Height: 3, Width: 3},
	} {
		ring, boundary, err := a.MixerValves(spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		ncells := 2*spec.Width + 2*(spec.Height-2)
		if len(ring) != ncells {
			t.Errorf("%+v: ring has %d valves, want %d", spec, len(ring), ncells)
		}
		// Ring and boundary must be disjoint.
		seen := make(map[ValveID]bool)
		for _, v := range ring {
			seen[v] = true
		}
		for _, v := range boundary {
			if seen[v] {
				t.Errorf("%+v: valve %d in both ring and boundary", spec, v)
			}
		}
		// The eight pump valves of the paper's 4x2/2x4 mixers are a subset
		// of the ring; just check the ring is a closed cycle of adjacent
		// cells.
		cells := spec.RingCells()
		for i, rc := range cells {
			next := cells[(i+1)%len(cells)]
			if a.EdgeBetween(rc[0], rc[1], next[0], next[1]) != ring[i] {
				t.Fatalf("%+v: ring[%d] mismatch", spec, i)
			}
		}
	}
	if _, _, err := a.MixerValves(MixerSpec{R: 4, C: 4, Height: 4, Width: 4}); err == nil {
		t.Error("mixer off the edge: want error")
	}
	if _, _, err := a.MixerValves(MixerSpec{R: 0, C: 0, Height: 1, Width: 4}); err == nil {
		t.Error("1-high mixer: want error")
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	a := MustNewStandard(5, 6)
	if _, err := a.SetObstacle(2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SetChannelH(4, 0, 3); err != nil {
		t.Fatal(err)
	}
	text := Marshal(a)
	b, err := ParseString(text)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, text)
	}
	if Marshal(b) != text {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", text, Marshal(b))
	}
	if b.NumNormal() != a.NumNormal() {
		t.Errorf("NumNormal %d vs %d", b.NumNormal(), a.NumNormal())
	}
	if len(b.Sources()) != 1 || len(b.Sinks()) != 1 {
		t.Error("ports lost in round trip")
	}
}

func TestParseErrors(t *testing.T) {
	for name, text := range map[string]string{
		"empty":           "",
		"bad header":      "hello\n",
		"short matrix":    "fpva 2 2\n+X+X+\n",
		"bad cell char":   "fpva 1 1\n+X+\nXqX\n+X+\n",
		"bad edge char":   "fpva 1 1\n+X+\nX.?\n+X+\n",
		"normal on bound": "fpva 1 1\n+X+\no.X\n+X+\n",
	} {
		if _, err := ParseString(text); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestParseHeaderBoundsAllocation: the header cannot make Parse allocate
// more than the matrix that follows it; dimensions past int range are an
// error, not a panic.
func TestParseHeaderBoundsAllocation(t *testing.T) {
	for _, text := range []string{
		"fpva 20000 20000\n",
		"fpva 2 2000000\n+X+X+\nS.o.X\n+o+o+\nX.o.M\n+X+X+\n",
		"fpva 4611686018427387904 1\n",
		"fpva 1 9223372036854775807\n+X+\nS.M\n+X+\n",
		"fpva 3037000500 3037000500\n",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseString(text)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%q: want error", text)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%q: allocated %d bytes", text, n)
		}
	}
}

func TestQuickValveIDBijection(t *testing.T) {
	a := MustNew(9, 13)
	f := func(raw uint32) bool {
		id := ValveID(int(raw) % a.NumValves())
		v := a.Valve(id)
		u, w := a.EdgeCells(id)
		// Each edge touches at least one real cell, and its endpoints agree
		// with the incident-valve table of those cells.
		ok := false
		for _, cell := range []CellID{u, w} {
			if cell == NoCell {
				continue
			}
			r, c := a.CellCoords(cell)
			for _, inc := range a.IncidentValves(r, c) {
				if inc == id {
					ok = true
				}
			}
		}
		_ = v
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(nrRaw, ncRaw uint8, obR, obC uint8) bool {
		nr := int(nrRaw)%6 + 3
		nc := int(ncRaw)%6 + 3
		a := MustNewStandard(nr, nc)
		// Obstacle somewhere not under a port's interior cell.
		r, c := int(obR)%nr, int(obC)%nc
		if !(r == 0 && c == 0) && !(r == nr-1 && c == nc-1) {
			if _, err := a.SetObstacle(r, c); err != nil {
				return false
			}
		}
		b, err := ParseString(Marshal(a))
		if err != nil {
			return false
		}
		return Marshal(b) == Marshal(a) && b.NumNormal() == a.NumNormal()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 60}
}
