// Package graph provides the graph algorithms the test-generation framework
// relies on: breadth-first reachability (scalar and 64 lanes to a word) and
// Dijkstra shortest paths with path recovery. Go's standard library has no
// graph support, so this package is the substrate equivalent of the
// scientific graph libraries the paper's C++ implementation could lean on.
package graph

import (
	"fmt"
	"math"
)

// Graph is an undirected multigraph over dense node indices 0..N-1. Each
// edge has a dense edge index and an optional caller-supplied label (for the
// FPVA use case the label is the valve ID the edge represents).
type Graph struct {
	n     int
	adj   [][]Arc
	edges []Edge

	// Flat CSR mirror of adj for the word-parallel relax loop: the arcs out
	// of node u are csrTo/csrEdge[csrHead[u]:csrHead[u+1]]. int32 entries
	// halve the memory traffic of the hottest loop in the repo and drop the
	// per-node slice-header chase. Rebuilt lazily after AddEdge.
	csrOK   bool
	csrHead []int32
	csrTo   []int32
	csrEdge []int32
}

// Edge is one undirected edge.
type Edge struct {
	U, V  int
	Label int
}

// Arc is an edge as seen from one endpoint.
type Arc struct {
	To   int // neighbour node
	Edge int // edge index into Edges()
}

// New creates a graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{n: n, adj: make([][]Arc, n)}
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// M returns the edge count.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge inserts an undirected edge u-v with the given label and returns
// its edge index. Self-loops and parallel edges are allowed.
func (g *Graph) AddEdge(u, v, label int) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge %d-%d out of range [0,%d)", u, v, g.n))
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, Label: label})
	g.adj[u] = append(g.adj[u], Arc{To: v, Edge: id})
	if u != v {
		g.adj[v] = append(g.adj[v], Arc{To: u, Edge: id})
	}
	g.csrOK = false
	return id
}

// ensureCSR (re)builds the flat adjacency mirror. Graphs here are built once
// and then queried, so in the steady state this is a cheap flag check and the
// word-parallel hot path stays allocation-free.
func (g *Graph) ensureCSR() {
	if g.csrOK {
		return
	}
	arcs := 0
	for _, a := range g.adj {
		arcs += len(a)
	}
	if g.n > math.MaxInt32 || arcs > math.MaxInt32 {
		panic("graph: node or arc count overflows the CSR index width")
	}
	if cap(g.csrHead) < g.n+1 {
		//lint:ignore fpva/allocfree rebuilt only after graph mutation, then reused
		g.csrHead = make([]int32, g.n+1)
	}
	g.csrHead = g.csrHead[:g.n+1]
	if cap(g.csrTo) < arcs {
		//lint:ignore fpva/allocfree rebuilt only after graph mutation, then reused
		g.csrTo = make([]int32, arcs)
		//lint:ignore fpva/allocfree rebuilt only after graph mutation, then reused
		g.csrEdge = make([]int32, arcs)
	}
	g.csrTo = g.csrTo[:arcs]
	g.csrEdge = g.csrEdge[:arcs]
	pos := 0
	for u, as := range g.adj {
		g.csrHead[u] = int32(pos)
		for _, a := range as {
			g.csrTo[pos] = int32(a.To)
			g.csrEdge[pos] = int32(a.Edge)
			pos++
		}
	}
	g.csrHead[g.n] = int32(pos)
	g.csrOK = true
}

// Adj returns the arcs out of node u. The slice must not be modified.
func (g *Graph) Adj(u int) []Arc { return g.adj[u] }

// EdgeAt returns edge e.
func (g *Graph) EdgeAt(e int) Edge { return g.edges[e] }

// Edges returns all edges. The slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// BFSInto runs a multi-source breadth-first search with edges filtered by
// enabled (nil means all edges usable). It writes, for each node, the edge
// index used to first reach it (-1 if unreached, -2 for a source) into the
// caller-provided via slice (len(via) must be at least N()) and uses
// queue's backing array as frontier scratch (cap(queue) should be at least
// N() to stay allocation-free). Every node in srcs is seeded with via = -2;
// reachability is therefore computed from the source set as a whole. It
// returns via, resliced to length N().
//
//fpva:allocfree
func (g *Graph) BFSInto(via, queue []int, srcs []int, enabled func(e int) bool) []int {
	via = via[:g.n]
	for i := range via {
		via[i] = -1
	}
	queue = queue[:0]
	for _, s := range srcs {
		if via[s] == -1 {
			via[s] = -2
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, a := range g.adj[u] {
			if via[a.To] != -1 || (enabled != nil && !enabled(a.Edge)) {
				continue
			}
			via[a.To] = a.Edge
			queue = append(queue, a.To)
		}
	}
	return via
}

// BFSWordsInto is the bit-parallel (PPSFP-style) variant of BFSInto: it
// propagates up to 64 independent edge-enable universes at once. reach
// holds one uint64 per node whose bit k means "node reached in universe k";
// enabled holds, per edge index, the mask of universes in which that edge
// conducts. Every source node is seeded with the seed mask, so only lanes
// set in seed propagate at all — callers pass the lanes they care about
// (a hot-path optimization: lanes whose answer is already known are not
// dragged through the traversal) and must mask results by seed.
//
// Unlike BFSInto, a node's mask can grow after it has been
// processed (a later frontier may reach it in additional universes), so
// nodes re-enter the frontier until a fixpoint; inq deduplicates queue
// membership, which bounds the queue to N() entries and lets it run as a
// ring buffer over the caller's scratch. len(reach), len(queue) and
// len(inq) must each be at least N(); len(enabled) at least M(). It
// returns reach, resliced to N().
//
//fpva:allocfree
func (g *Graph) BFSWordsInto(reach []uint64, queue []int, inq []bool, srcs []int, seed uint64, enabled []uint64) []uint64 {
	n := g.n
	reach = reach[:n]
	for i := range reach {
		reach[i] = 0
	}
	if n == 0 || seed == 0 {
		return reach
	}
	for _, s := range srcs {
		reach[s] = seed
	}
	return g.RelaxWordsInto(reach, queue, inq, srcs, enabled)
}

// RelaxWordsInto is the incremental core of BFSWordsInto: it runs the
// word-parallel reachability fixpoint from a caller-initialized state.
// reach must already hold, per node, a lane mask that is a lower bound of
// that node's reachability closed under everything except the arcs out of
// the start nodes (e.g. the exact reachability of a subgraph missing some
// of this graph's edges); starts lists the nodes whose outgoing arcs may
// now propagate further — duplicate entries are fine. On return reach is
// the closure of the initial state under all enabled arcs.
//
// This is what makes lanes that only ADD edges relative to a precomputed
// base state cheap: seed reach with the base reachability, list just the
// new edges' endpoints, and the fixpoint touches only the region those
// edges actually unlock instead of re-flooding the whole graph.
//
//fpva:allocfree
func (g *Graph) RelaxWordsInto(reach []uint64, queue []int, inq []bool, starts []int, enabled []uint64) []uint64 {
	n := g.n
	reach = reach[:n]
	if n == 0 {
		return reach
	}
	g.ensureCSR() // no-op unless the graph changed since the last call
	csrHead, csrTo, csrEdge := g.csrHead, g.csrTo, g.csrEdge
	queue = queue[:n]
	inq = inq[:n]
	for i := range inq {
		inq[i] = false
	}
	head, tail, count := 0, 0, 0
	for _, s := range starts {
		if !inq[s] {
			inq[s] = true
			queue[tail] = s
			tail++
			if tail == n {
				tail = 0
			}
			count++
		}
	}
	for count > 0 {
		u := queue[head]
		head++
		if head == n {
			head = 0
		}
		count--
		inq[u] = false
		ru := reach[u]
		for i, end := csrHead[u], csrHead[u+1]; i < end; i++ {
			to := csrTo[i]
			add := ru & enabled[csrEdge[i]] &^ reach[to]
			if add == 0 {
				continue
			}
			reach[to] |= add
			if !inq[to] {
				inq[to] = true
				queue[tail] = int(to)
				tail++
				if tail == n {
					tail = 0
				}
				count++
			}
		}
	}
	return reach
}

// DijkstraScratch holds the reusable working set of repeated Dijkstra runs
// over one graph: distance/via/done arrays and the binary heap. Routing
// loops that call Dijkstra thousands of times (path patching, leakage
// vector construction) hold one scratch and allocate nothing per query.
type DijkstraScratch struct {
	dist []float64
	via  []int
	done []bool
	h    heapF
}

// NewDijkstraScratch sizes a scratch for this graph.
func (g *Graph) NewDijkstraScratch() *DijkstraScratch {
	return &DijkstraScratch{
		dist: make([]float64, g.n),
		via:  make([]int, g.n),
		done: make([]bool, g.n),
		h:    heapF{node: make([]int, 0, g.n), prio: make([]float64, 0, g.n)},
	}
}

// DijkstraInto computes shortest path distances from src with per-edge
// weights given by weight (return math.Inf(1) to disable an edge). It
// returns the distance slice and the via-edge slice in the same convention
// as BFSInto; both alias the scratch and are valid until its next use.
//
//fpva:allocfree
func (g *Graph) DijkstraInto(sc *DijkstraScratch, src int, weight func(e int) float64) ([]float64, []int) {
	dist, via, done := sc.dist, sc.via, sc.done
	for i := range dist {
		dist[i] = math.Inf(1)
		via[i] = -1
		done[i] = false
	}
	dist[src] = 0
	via[src] = -2
	h := &sc.h
	h.node, h.prio = h.node[:0], h.prio[:0]
	h.push(src, 0)
	for h.len() > 0 {
		u, du := h.pop()
		if done[u] || du > dist[u] {
			continue
		}
		done[u] = true
		for _, a := range g.adj[u] {
			w := weight(a.Edge)
			if math.IsInf(w, 1) || w < 0 {
				if w < 0 {
					panic("graph: negative edge weight in Dijkstra")
				}
				continue
			}
			if nd := du + w; nd < dist[a.To] {
				dist[a.To] = nd
				via[a.To] = a.Edge
				h.push(a.To, nd)
			}
		}
	}
	return dist, via
}

// DijkstraPathEdgesInto appends the edge indices of a minimum-weight path
// src->dst to buf (pass buf[:0] to reuse its backing array), searching over
// caller-owned scratch. It returns nil if dst is unreachable.
func (g *Graph) DijkstraPathEdgesInto(sc *DijkstraScratch, src, dst int, weight func(e int) float64, buf []int) []int {
	dist, via := g.DijkstraInto(sc, src, weight)
	if math.IsInf(dist[dst], 1) {
		return nil
	}
	rev := buf
	u := dst
	for u != src {
		eid := via[u]
		rev = append(rev, eid)
		e := g.edges[eid]
		if e.U == u {
			u = e.V
		} else {
			u = e.U
		}
	}
	// Reverse only the appended suffix, preserving any existing prefix.
	for i, j := len(buf), len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// heapF is a minimal binary min-heap of (node, priority) pairs.
type heapF struct {
	node []int
	prio []float64
}

func (h *heapF) len() int { return len(h.node) }

func (h *heapF) push(n int, p float64) {
	h.node = append(h.node, n)
	h.prio = append(h.prio, p)
	i := len(h.node) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.prio[parent] <= h.prio[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *heapF) pop() (int, float64) {
	n, p := h.node[0], h.prio[0]
	last := len(h.node) - 1
	h.swap(0, last)
	h.node = h.node[:last]
	h.prio = h.prio[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.prio[l] < h.prio[small] {
			small = l
		}
		if r < last && h.prio[r] < h.prio[small] {
			small = r
		}
		if small == i {
			break
		}
		h.swap(i, small)
		i = small
	}
	return n, p
}

func (h *heapF) swap(i, j int) {
	h.node[i], h.node[j] = h.node[j], h.node[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
}
