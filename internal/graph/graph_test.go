package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// ladder builds a 2 x k grid graph and returns it with the node indexer.
func ladder(k int) (*Graph, func(r, c int) int) {
	g := New(2 * k)
	at := func(r, c int) int { return r*k + c }
	for r := 0; r < 2; r++ {
		for c := 0; c+1 < k; c++ {
			g.AddEdge(at(r, c), at(r, c+1), -1)
		}
	}
	for c := 0; c < k; c++ {
		g.AddEdge(at(0, c), at(1, c), -1)
	}
	return g, at
}

// bfs searches from src into fresh buffers.
func bfs(g *Graph, src int, enabled func(e int) bool) []int {
	return g.BFSInto(make([]int, g.N()), make([]int, 0, g.N()), []int{src}, enabled)
}

// walkBack follows the via edges of a search from dst back to a source and
// returns them in walk order, failing if a via edge does not touch the node
// it was recorded for or the walk does not end.
func walkBack(t *testing.T, g *Graph, via []int, dst int) []int {
	t.Helper()
	var edges []int
	for u := dst; via[u] != -2; {
		if via[u] == -1 {
			t.Fatalf("node %d unreached", u)
		}
		edges = append(edges, via[u])
		switch e := g.EdgeAt(via[u]); u {
		case e.U:
			u = e.V
		case e.V:
			u = e.U
		default:
			t.Fatalf("via edge %d of node %d does not touch it", via[u], u)
		}
		if len(edges) > g.N() {
			t.Fatalf("via walk from %d does not reach a source", dst)
		}
	}
	return edges
}

func TestBFSAndPath(t *testing.T) {
	g, at := ladder(5)
	via := bfs(g, at(0, 0), nil)
	for n := 0; n < g.N(); n++ {
		if via[n] == -1 {
			t.Fatalf("node %d unreachable in connected graph", n)
		}
	}
	if got := len(walkBack(t, g, via, at(1, 4))); got != 5 {
		t.Errorf("via walk from the far corner has %d edges, want the shortest 5", got)
	}
}

func TestBFSFiltered(t *testing.T) {
	g, at := ladder(3)
	// Disable all vertical edges: rows become separate components.
	vertical := make(map[int]bool)
	for i, e := range g.Edges() {
		if (e.U < 3) != (e.V < 3) {
			vertical[i] = true
		}
	}
	via := bfs(g, at(0, 0), func(e int) bool { return !vertical[e] })
	if via[at(1, 0)] != -1 || via[at(1, 2)] != -1 {
		t.Error("rows connected despite disabled rungs")
	}
	if via[at(0, 2)] == -1 {
		t.Error("top row should stay connected")
	}
}

func TestSelfLoopAndParallelEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0, 7)
	g.AddEdge(0, 1, 8)
	g.AddEdge(0, 1, 9)
	if g.M() != 3 {
		t.Fatalf("M=%d", g.M())
	}
	if len(g.Adj(0)) != 3 { // self-loop appears once
		t.Errorf("adj(0)=%d arcs", len(g.Adj(0)))
	}
	if bfs(g, 0, nil)[1] == -1 {
		t.Error("unreachable across parallel edges")
	}
}

func TestDijkstra(t *testing.T) {
	// Weighted triangle plus a shortcut: 0-1 (1), 1-2 (1), 0-2 (5).
	g := New(3)
	e01 := g.AddEdge(0, 1, -1)
	e12 := g.AddEdge(1, 2, -1)
	e02 := g.AddEdge(0, 2, -1)
	w := map[int]float64{e01: 1, e12: 1, e02: 5}
	weight := func(e int) float64 { return w[e] }
	// One scratch serves every query below: each must reset its state.
	sc := g.NewDijkstraScratch()
	dist, _ := g.DijkstraInto(sc, 0, weight)
	if dist[2] != 2 {
		t.Errorf("dist[2]=%v, want 2", dist[2])
	}
	edges := g.DijkstraPathEdgesInto(sc, 0, 2, weight, nil)
	if len(edges) != 2 || edges[0] != e01 || edges[1] != e12 {
		t.Errorf("path edges %v", edges)
	}
	// The path is appended after an existing prefix of buf.
	if got := g.DijkstraPathEdgesInto(sc, 0, 2, weight, []int{-7}); len(got) != 3 || got[0] != -7 || got[1] != e01 || got[2] != e12 {
		t.Errorf("path edges after prefix %v", got)
	}
	// Disabled edge via +Inf.
	w[e12] = math.Inf(1)
	dist, _ = g.DijkstraInto(sc, 0, weight)
	if dist[2] != 5 {
		t.Errorf("dist[2]=%v with e12 disabled, want 5", dist[2])
	}
	if p := g.DijkstraPathEdgesInto(sc, 1, 2, func(e int) float64 { return math.Inf(1) }, nil); p != nil {
		t.Errorf("all-disabled path: %v, want nil", p)
	}
}

func TestDijkstraAgreesWithBFSOnUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 15
		g := New(n)
		for i := 0; i < 30; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), -1)
		}
		dist, _ := g.DijkstraInto(g.NewDijkstraScratch(), 0, func(int) float64 { return 1 })
		via := bfs(g, 0, nil)
		for v := 0; v < n; v++ {
			bfsDepth := -1
			if via[v] != -1 {
				bfsDepth = len(walkBack(t, g, via, v))
			}
			switch {
			case bfsDepth == -1 && !math.IsInf(dist[v], 1):
				t.Fatalf("trial %d node %d: BFS unreachable, Dijkstra %v", trial, v, dist[v])
			case bfsDepth != -1 && dist[v] != float64(bfsDepth):
				t.Fatalf("trial %d node %d: BFS %d vs Dijkstra %v", trial, v, bfsDepth, dist[v])
			}
		}
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	New(2).AddEdge(0, 5, -1)
}

// TestBFSIntoMatchesBFS pins buffer reuse: a search into buffers dirtied
// by earlier searches from other sources and filters gives exactly the
// result of the same search into fresh buffers.
func TestBFSIntoMatchesBFS(t *testing.T) {
	g, at := ladder(6)
	sparse := func(e int) bool { return e%3 != 0 }
	via := make([]int, g.N())
	queue := make([]int, 0, g.N())
	for _, src := range []int{at(0, 0), at(1, 5), at(0, 3)} {
		for _, enabled := range []func(int) bool{sparse, nil} {
			got := g.BFSInto(via, queue, []int{src}, enabled)
			if want := bfs(g, src, enabled); !slices.Equal(got, want) {
				t.Fatalf("source %d: reused buffers gave %v, fresh ones %v", src, got, want)
			}
		}
	}
}

func TestBFSIntoMultiSource(t *testing.T) {
	// Two disjoint paths: 0-1-2 and 3-4-5.
	g := New(6)
	g.AddEdge(0, 1, -1)
	g.AddEdge(1, 2, -1)
	g.AddEdge(3, 4, -1)
	g.AddEdge(4, 5, -1)
	via := g.BFSInto(make([]int, g.N()), make([]int, 0, g.N()), []int{0, 3}, nil)
	for n := 0; n < g.N(); n++ {
		if via[n] == -1 {
			t.Errorf("node %d unreachable from source set {0,3}", n)
		}
	}
	if via[0] != -2 || via[3] != -2 {
		t.Errorf("sources not marked: via[0]=%d via[3]=%d", via[0], via[3])
	}
	// Duplicate sources must be harmless.
	via = g.BFSInto(via, make([]int, 0, g.N()), []int{0, 0, 0}, nil)
	if via[2] == -1 || via[3] != -1 {
		t.Errorf("duplicate-source search gave %v", via)
	}
}

func TestBFSIntoEmptySources(t *testing.T) {
	g, _ := ladder(3)
	via := g.BFSInto(make([]int, g.N()), make([]int, 0, g.N()), nil, nil)
	for n, v := range via {
		if v != -1 {
			t.Errorf("node %d reached with no sources (via %d)", n, v)
		}
	}
}

// TestBFSWordsMatchesPerLaneBFS pins the word-parallel BFS against 64
// independent boolean BFS runs on random graphs with random per-edge enable
// masks: bit k of every node's reach word must equal lane k's scalar
// reachability.
func TestBFSWordsMatchesPerLaneBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(12)
		g := New(n)
		m := rng.Intn(3 * n)
		for e := 0; e < m; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), e)
		}
		masks := make([]uint64, g.M())
		for e := range masks {
			masks[e] = rng.Uint64()
		}
		srcs := []int{rng.Intn(n)}
		if rng.Intn(2) == 1 {
			srcs = append(srcs, rng.Intn(n))
		}
		seed := rng.Uint64() | 1 // at least one active lane
		reach := g.BFSWordsInto(make([]uint64, n), make([]int, n), make([]bool, n),
			srcs, seed, masks)
		for lane := 0; lane < 64; lane++ {
			bit := uint64(1) << lane
			if seed&bit == 0 {
				// Lanes outside the seed mask must not propagate at all.
				for v := 0; v < n; v++ {
					if reach[v]&bit != 0 {
						t.Fatalf("trial %d lane %d node %d reached outside seed", trial, lane, v)
					}
				}
				continue
			}
			via := g.BFSInto(make([]int, n), make([]int, 0, n), srcs,
				func(e int) bool { return masks[e]&bit != 0 })
			for v := 0; v < n; v++ {
				if (reach[v]&bit != 0) != (via[v] != -1) {
					t.Fatalf("trial %d lane %d node %d: word %v, scalar %v",
						trial, lane, v, reach[v]&bit != 0, via[v] != -1)
				}
			}
		}
	}
}

// TestBFSWordsRequeue forces the fixpoint path: a cycle where each lane
// enables a different prefix of the ring, so nodes are reached by later
// frontiers in additional universes and must re-enter the queue.
func TestBFSWordsRequeue(t *testing.T) {
	const n = 8
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, i)
	}
	// Edge i conducts in lanes i..63: lane k pressurizes nodes 0..? Edge i
	// enabled in lane k iff k >= i, so lane k reaches node v iff all edges
	// 0..v-1 are enabled, i.e. k >= v-1.
	enabled := make([]uint64, g.M())
	for e := range enabled {
		enabled[e] = ^uint64(0) << e
	}
	reach := g.BFSWordsInto(make([]uint64, n), make([]int, n), make([]bool, n),
		[]int{0}, ^uint64(0), enabled)
	for v := 1; v < n; v++ {
		want := ^uint64(0) << (v - 1)
		if reach[v] != want {
			t.Fatalf("node %d reach %#x, want %#x", v, reach[v], want)
		}
	}
}

// TestBFSWordsEmptyAndSources covers the degenerate shapes: no sources, an
// empty seed mask, all-zero enable masks, and duplicate sources.
func TestBFSWordsEmptyAndSources(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 0)
	open := []uint64{^uint64(0)}
	reach := g.BFSWordsInto(make([]uint64, 3), make([]int, 3), make([]bool, 3),
		nil, ^uint64(0), open)
	for v, r := range reach {
		if r != 0 {
			t.Fatalf("no sources: node %d reach %#x", v, r)
		}
	}
	reach = g.BFSWordsInto(reach, make([]int, 3), make([]bool, 3),
		[]int{0}, 0, open)
	for v, r := range reach {
		if r != 0 {
			t.Fatalf("zero seed: node %d reach %#x", v, r)
		}
	}
	reach = g.BFSWordsInto(reach, make([]int, 3), make([]bool, 3),
		[]int{2, 2}, ^uint64(0), []uint64{0})
	if reach[2] != ^uint64(0) || reach[0] != 0 || reach[1] != 0 {
		t.Fatalf("isolated source: reach %v", reach)
	}
}
