package ilp

import (
	"bytes"
	"container/heap"
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/lp"
)

// Solution is the result of Solve.
type Solution struct {
	Status Status
	X      []float64 // valid for Optimal and Feasible
	Obj    float64
	Nodes  int
	// Wall is the wall-clock time the solve took (accounting only; it is
	// not part of the deterministic contract).
	Wall time.Duration
	// WarmStart is a reusable handle for solving another model of the same
	// shape (same variable and constraint counts — e.g. the next round of an
	// iterative set-cover with a different objective, or the same cut model
	// with a different target fixed). Pass it back via Options.WarmStart.
	WarmStart *WarmStart
}

// Options tunes the branch-and-bound search.
type Options struct {
	// MaxNodes bounds the number of explored nodes; <= 0 means 200000.
	MaxNodes int
	// MaxLPIters bounds simplex iterations per node; <= 0 means automatic.
	MaxLPIters int
	// Workers sets the size of the branch-and-bound worker pool; <= 1 means
	// serial. Status, Obj and X are bit-identical for any worker count
	// whenever the search completes (Status Optimal, Infeasible or
	// Unbounded); Nodes is schedule-dependent accounting, and only
	// incomplete (Feasible/Limit) results may depend on scheduling.
	Workers int
	// WarmStart seeds the root relaxation with a basis from a previous
	// solve of a same-shape model; ignored when the shape differs.
	WarmStart *WarmStart
}

// WarmStart carries an optimal root basis between solves of same-shape
// models.
type WarmStart struct {
	nvars, ncons int
	basis        *lp.Basis
}

// Stats accumulates solve-level accounting across a sequence of Solve
// calls; the generator packages embed it in their Results.
type Stats struct {
	Solves     int           // ILP solves performed
	Nodes      int           // branch-and-bound nodes across all solves
	NonOptimal int           // solves that stopped early: feasible, not proven optimal
	Wall       time.Duration // cumulative solver wall-clock time
}

// Observe folds one solve into the stats. Zero-node solutions (error paths
// that never reached the solver) are not counted.
func (s *Stats) Observe(sol Solution) {
	if sol.Nodes == 0 {
		return
	}
	s.Solves++
	s.Nodes += sol.Nodes
	s.Wall += sol.Wall
	if sol.Status == Feasible {
		s.NonOptimal++
	}
}

const objTol = 1e-9

// basisRef is a refcounted basis snapshot shared by the two children of a
// branch-and-bound node. Snapshots live in pooled slabs instead of being
// copied per child, so the steady-state search allocates no basis memory.
type basisRef struct {
	status []int8
	refs   int
}

// bbNode is one branch-and-bound node. Its relaxation is a pure function of
// (model, lb, ub, warm): warm is always the parent's optimal basis, so the
// LP result never depends on which worker processes the node or when.
// Nodes and their slices cycle through the searcher's pools.
type bbNode struct {
	lb, ub []float64
	warm   *basisRef // parent's optimal basis (nil at the root)
	bound  float64   // parent relaxation bound (objective lower bound)
	uChain float64   // best incumbent objective found along the ancestor chain
	path   []byte    // tree position; lexicographic order is the deterministic "seq"
}

// pathLess orders tree positions: the deterministic tie-break for equal
// objectives ("seq-ordered" incumbent selection).
func pathLess(a, b []byte) bool { return bytes.Compare(a, b) < 0 }

type nodePQ []*bbNode

func (q nodePQ) Len() int { return len(q) }
func (q nodePQ) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	return pathLess(q[i].path, q[j].path)
}
func (q nodePQ) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *nodePQ) Push(x any)   { *q = append(*q, x.(*bbNode)) }
func (q *nodePQ) Pop() any {
	old := *q
	n := len(old)
	nd := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return nd
}

// candidate carries an incumbent from process to commit. x and path alias
// per-worker scratch; commit copies them only when they win the incumbent
// race, so losing candidates cost nothing. process also receives the
// incumbent leaf as a candidate without x.
type candidate struct {
	x    []float64
	obj  float64
	path []byte
}

type nodeResult struct {
	children  [2]*bbNode // nil when not branching
	leaf      *candidate // integer-feasible LP optimum at this node
	heur      *candidate // rounding-heuristic incumbent (prune bound only)
	rootBasis *lp.Basis
	unbounded bool
	// lpLimited marks a node dropped because its relaxation could not be
	// solved within MaxLPIters: the search is no longer exhaustive, so the
	// final status must not claim Optimal or Infeasible.
	lpLimited bool
}

// workScratch is one worker's private buffers: candidate staging plus the
// two candidate structs themselves.
type workScratch struct {
	leafX []float64
	heurX []float64
	leaf  candidate
	heur  candidate
	sv    *lp.Solver
}

// searcher is the shared state of one branch-and-bound run.
type searcher struct {
	m      *Model
	ctx    context.Context
	opt    Options
	objInt bool

	nodePool  sync.Pool // *bbNode with capacity-retaining slices
	basisPool sync.Pool // *basisRef

	mu        sync.Mutex
	cond      *sync.Cond
	pq        nodePQ
	inflight  int
	nodes     int
	maxNodes  int
	exhausted bool
	lpLimited bool
	unbounded bool
	canceled  bool
	// leaf incumbents decide the returned solution: the (obj, path)-minimal
	// leaf W is the same for any worker count because every ancestor of W
	// is explored under every schedule. No ancestor's bound exceeds W's
	// objective, so strict pruning spares it, and no incumbent leaf sorts
	// before W, so losesTieBreak spares it. leafPath is replaced, never
	// mutated, when a leaf wins, so workers may read it outside s.mu.
	leafX    []float64
	leafObj  float64
	leafPath []byte
	// heuristic incumbents only sharpen the pruning bound (and serve as a
	// fallback when the node budget runs out before any leaf is reached).
	heurX     []float64
	heurObj   float64
	rootBasis *lp.Basis
}

func (s *searcher) newNode() *bbNode {
	nd := s.nodePool.Get().(*bbNode)
	nd.warm = nil
	return nd
}

// freeNode releases the node's basis reference and returns the node (with
// its slices) to the pool. Must not be called while the node is reachable
// from the heap or a worker.
func (s *searcher) freeNode(nd *bbNode) {
	s.releaseBasis(nd.warm)
	nd.warm = nil
	s.nodePool.Put(nd)
}

// newBasisRef copies status into a pooled slab shared by refs readers.
func (s *searcher) newBasisRef(status []int8, refs int) *basisRef {
	b := s.basisPool.Get().(*basisRef)
	b.status = append(b.status[:0], status...)
	b.refs = refs
	return b
}

// releaseBasis drops one reference; the last one returns the slab to the
// pool. Two workers can release the sibling references of one slab
// concurrently, so the refcount is protected by the searcher mutex.
func (s *searcher) releaseBasis(b *basisRef) {
	if b == nil {
		return
	}
	s.mu.Lock()
	b.refs--
	last := b.refs == 0
	s.mu.Unlock()
	if last {
		s.basisPool.Put(b)
	}
}

// Solve runs branch-and-bound and returns the best integer solution: of
// the leaves with the smallest objective, the one with the smallest tree
// position. The exploration order is best-bound with plunging: after
// branching, a worker keeps the preferred child for itself (maximizing
// warm-start locality and halving heap traffic) and publishes the sibling
// to the shared best-bound heap, where idle workers steal it. Nodes
// re-solve from their parent's simplex basis via the dual simplex instead
// of a cold start. A node is pruned when its bound strictly exceeds an
// incumbent's objective or, for integral objectives, when it can only tie
// the incumbent leaf and lose the tie-break (losesTieBreak); neither rule
// can prune an ancestor of the returned leaf, whatever the schedule.
//
// Cancelling ctx (nil means context.Background()) stops the search at the
// next node boundary on every worker and returns Status Canceled; callers
// are expected to translate that into ctx.Err().
func (m *Model) Solve(ctx context.Context, opt Options) Solution {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(m.vars) == 0 {
		return Solution{Status: Optimal, X: nil, Obj: 0}
	}
	t0 := time.Now()
	prob := m.compileLP()
	s := &searcher{
		m:        m,
		ctx:      ctx,
		opt:      opt,
		objInt:   m.objectiveIntegral(),
		maxNodes: opt.MaxNodes,
		leafObj:  math.Inf(1),
		heurObj:  math.Inf(1),
	}
	nvars := len(m.vars)
	s.nodePool.New = func() any {
		return &bbNode{lb: make([]float64, nvars), ub: make([]float64, nvars)}
	}
	s.basisPool.New = func() any { return &basisRef{} }
	if s.maxNodes <= 0 {
		s.maxNodes = 200000
	}
	s.cond = sync.NewCond(&s.mu)

	root := s.newNode()
	root.bound = math.Inf(-1)
	root.uChain = math.Inf(1)
	root.path = root.path[:0]
	for j, v := range m.vars {
		root.lb[j], root.ub[j] = v.lb, v.ub
	}
	if ws := opt.WarmStart; ws != nil && ws.nvars == len(m.vars) && ws.ncons == len(m.cons) {
		root.warm = s.newBasisRef(ws.basis.Status(), 1)
	}
	heap.Push(&s.pq, root)

	workers := opt.Workers
	if workers <= 1 {
		sv := m.getSolver(prob)
		s.work(sv)
		m.putSolver(sv)
	} else {
		var wg sync.WaitGroup
		svs := make([]*lp.Solver, workers)
		for w := 0; w < workers; w++ {
			svs[w] = m.getSolver(prob)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(sv *lp.Solver) {
				defer wg.Done()
				s.work(sv)
			}(svs[w])
		}
		wg.Wait()
		for _, sv := range svs {
			m.putSolver(sv)
		}
	}
	sol := s.assemble()
	sol.Wall = time.Since(t0)
	return sol
}

// work is one worker's loop: take the locally kept dive child or pop the
// best node from the shared heap, solve its relaxation, and commit
// incumbents and children under the lock.
func (s *searcher) work(sv *lp.Solver) {
	sc := &workScratch{
		leafX: make([]float64, len(s.m.vars)),
		heurX: make([]float64, len(s.m.vars)),
		sv:    sv,
	}
	var local *bbNode
	for {
		// The per-node cancellation probe: each node costs an LP solve, so
		// this bounds cancel latency to one relaxation per worker.
		if s.ctx.Err() != nil {
			s.mu.Lock()
			s.canceled = true
			if local != nil {
				s.inflight--
				local = nil
			}
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		s.mu.Lock()
		var nd *bbNode
		if local != nil {
			// Diving: the preferred child was claimed at commit time
			// (inflight was kept), only the node budget can stop it.
			if s.canceled || s.unbounded || s.nodes >= s.maxNodes {
				if s.nodes >= s.maxNodes {
					s.exhausted = true
				}
				s.inflight--
				s.cond.Broadcast()
				s.mu.Unlock()
				return
			}
			nd, local = local, nil
			s.nodes++
		} else {
			for {
				if s.canceled || s.unbounded || (len(s.pq) == 0 && s.inflight == 0) {
					s.cond.Broadcast()
					s.mu.Unlock()
					return
				}
				if len(s.pq) > 0 {
					if s.nodes >= s.maxNodes {
						s.exhausted = true
						s.cond.Broadcast()
						s.mu.Unlock()
						return
					}
					nd = heap.Pop(&s.pq).(*bbNode)
					s.nodes++
					s.inflight++
					break
				}
				s.cond.Wait()
			}
		}
		gub := math.Min(s.leafObj, s.heurObj)
		leaf := candidate{obj: s.leafObj, path: s.leafPath}
		s.mu.Unlock()

		res := s.process(sc, nd, gub, leaf)

		s.mu.Lock()
		s.commit(res)
		if first := res.children[0]; first != nil {
			// Bounded plunging: keep the preferred child for this worker
			// only while it is at least as good as the best node in the
			// shared heap (so exploration stays essentially best-bound and
			// node counts match the pure-heap schedule) and the sharpened
			// incumbent does not already prune it. process re-checks the
			// pruning rules, so this is a scheduling heuristic, not a
			// correctness gate.
			gub = math.Min(s.leafObj, s.heurObj)
			asGood := len(s.pq) == 0 || first.bound <= s.pq[0].bound
			if !s.canceled && !s.unbounded && asGood &&
				first.bound <= gub+objTol && first.bound <= first.uChain+objTol {
				local = first
			} else {
				heap.Push(&s.pq, first)
			}
		}
		if local == nil {
			s.inflight--
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		s.freeNode(nd)
	}
}

// losesTieBreak reports whether every leaf below a node with this bound and
// tree position sorts after the incumbent leaf in (obj, path), so that the
// node cannot hold the returned solution. Its leaves' objectives are at
// least bound >= leaf.obj. Its position sorts after leaf.path and is
// neither its ancestor (a leaf has no children) nor its descendant (the
// node has none yet), so every extension of it sorts after leaf.path too.
// The test is exact only for integral objectives, where bounds are rounded
// up and leaf objectives are exact integers; with fractional costs the LP
// bound does not bound the exactly compared leaf objectives.
func (s *searcher) losesTieBreak(bound float64, path []byte, leaf candidate) bool {
	return s.objInt && bound >= leaf.obj && pathLess(leaf.path, path)
}

// process solves one node. Its LP, children and candidates are a pure
// function of the node. The incumbents only decide whether it is pruned
// (strictly worse than gub or the chain incumbent, or losing the tie-break
// to the incumbent leaf), and a pruned node never holds the returned
// solution, so results are schedule-independent.
func (s *searcher) process(sc *workScratch, nd *bbNode, gub float64, leaf candidate) nodeResult {
	if nd.bound > gub+objTol || nd.bound > nd.uChain+objTol || s.losesTieBreak(nd.bound, nd.path, leaf) {
		return nodeResult{}
	}
	var warm []int8
	if nd.warm != nil {
		warm = nd.warm.status
	}
	sol := sc.sv.SolveView(nd.lb, nd.ub, warm, s.opt.MaxLPIters)
	if sol.Status == lp.IterLimit && warm != nil {
		// Deterministic cold retry: the warm basis may be a poor start.
		sol = sc.sv.SolveView(nd.lb, nd.ub, nil, s.opt.MaxLPIters)
	}
	var res nodeResult
	switch sol.Status {
	case lp.Infeasible:
		return res
	case lp.Unbounded:
		// A non-root unbounded relaxation is numerically impossible (the
		// parent solved to a bounded optimum over a superset region); treat
		// it like an unexplorable node rather than trusting it.
		if len(nd.path) == 0 {
			res.unbounded = true
		} else {
			res.lpLimited = true
		}
		return res
	case lp.IterLimit:
		res.lpLimited = true // unexplorable within MaxLPIters
		return res
	}
	if len(nd.path) == 0 {
		res.rootBasis = lp.BasisFromStatus(sol.Basis)
	}
	bound := sol.Obj
	if s.objInt {
		bound = math.Ceil(bound - 1e-7)
	}
	if bound > gub+objTol || bound > nd.uChain+objTol || s.losesTieBreak(bound, nd.path, leaf) {
		return res
	}
	branch := s.m.pickFractional(sol.X)
	if branch == -1 {
		copy(sc.leafX, sol.X)
		s.m.roundInPlace(sc.leafX)
		sc.leaf = candidate{x: sc.leafX, obj: s.m.Objective(sc.leafX), path: nd.path}
		res.leaf = &sc.leaf
		return res
	}
	uChain := nd.uChain
	if s.m.tryRoundInto(sc.heurX, sol.X) {
		obj := s.m.Objective(sc.heurX)
		sc.heur = candidate{x: sc.heurX, obj: obj}
		res.heur = &sc.heur
		if obj < uChain {
			uChain = obj
		}
	}
	f := sol.X[branch]
	warmRef := s.newBasisRef(sol.Basis, 2)
	down := s.newNode()
	up := s.newNode()
	for _, child := range [2]*bbNode{down, up} {
		copy(child.lb, nd.lb)
		copy(child.ub, nd.ub)
		child.warm = warmRef
		child.bound = bound
		child.uChain = uChain
	}
	s.tightenByReducedCost(nd, sol.X, sol.R, sol.Obj, uChain, down.lb, down.ub)
	copy(up.lb, down.lb)
	copy(up.ub, down.ub)
	down.ub[branch] = math.Floor(f)
	up.lb[branch] = math.Ceil(f)
	// The side nearer the fractional value is the preferred child: it gets
	// the smaller tree position (and thus pops first among equal bounds).
	first, second := up, down
	if f-math.Floor(f) < 0.5 {
		first, second = down, up
	}
	first.path = append(append(first.path[:0], nd.path...), 0)
	second.path = append(append(second.path[:0], nd.path...), 1)
	res.children[0], res.children[1] = first, second
	return res
}

// tightenByReducedCost shrinks integer bounds in both children: moving a
// nonbasic variable off its bound costs |reduced cost| per unit, and any
// move pushing the node bound past the chain incumbent cannot contain a
// solution worth returning. Only the deterministic chain incumbent uChain
// is used, never the schedule-dependent global one, so a node's children
// are the same under every schedule (which nodes get explored is not).
func (s *searcher) tightenByReducedCost(nd *bbNode, x, r []float64, lpObj, uChain float64, lb, ub []float64) {
	if math.IsInf(uChain, 1) || r == nil {
		return
	}
	budget := uChain + objTol - lpObj
	if budget < 0 {
		return
	}
	for j, v := range s.m.vars {
		if !v.integer {
			continue
		}
		rj := r[j]
		switch {
		case rj > objTol && x[j] <= nd.lb[j]+intTol:
			if nu := nd.lb[j] + math.Floor(budget/rj+1e-9); nu < ub[j] {
				ub[j] = nu
			}
		case rj < -objTol && x[j] >= nd.ub[j]-intTol:
			if nl := nd.ub[j] - math.Floor(budget/(-rj)+1e-9); nl > lb[j] {
				lb[j] = nl
			}
		}
	}
}

// commit merges one node's results into the shared state. Incumbent
// selection is a commutative minimum over (objective, tree position), so
// arrival order cannot change the outcome. Candidate payloads alias worker
// scratch and are copied only when they win.
func (s *searcher) commit(res nodeResult) {
	if res.unbounded {
		s.unbounded = true
	}
	if res.lpLimited {
		s.lpLimited = true
	}
	if res.rootBasis != nil {
		s.rootBasis = res.rootBasis
	}
	// Exact lexicographic (obj, path) comparison: a total order, so this is
	// a commutative minimum — arrival order cannot change the outcome even
	// when distinct objectives differ by less than the pruning tolerance.
	if c := res.leaf; c != nil {
		if s.leafX == nil || c.obj < s.leafObj ||
			(c.obj == s.leafObj && pathLess(c.path, s.leafPath)) {
			s.leafX = append(s.leafX[:0], c.x...)
			s.leafObj = c.obj
			// A fresh copy: workers hold the previous one outside s.mu.
			s.leafPath = bytes.Clone(c.path)
		}
	}
	if c := res.heur; c != nil && c.obj < s.heurObj {
		s.heurX = append(s.heurX[:0], c.x...)
		s.heurObj = c.obj
	}
	if second := res.children[1]; second != nil {
		heap.Push(&s.pq, second)
	}
}

func (s *searcher) assemble() Solution {
	sol := Solution{Nodes: s.nodes}
	if s.rootBasis != nil {
		sol.WarmStart = &WarmStart{nvars: len(s.m.vars), ncons: len(s.m.cons), basis: s.rootBasis}
	}
	if s.canceled {
		sol.Status = Canceled
		return sol
	}
	if s.unbounded {
		sol.Status = Unbounded
		return sol
	}
	x, obj := s.leafX, s.leafObj
	if x == nil || (s.heurX != nil && s.heurObj < obj) {
		// Only reachable when the search stopped before the best leaf.
		x, obj = s.heurX, s.heurObj
	}
	// A node dropped on its LP iteration budget means the search was not
	// exhaustive: never claim Optimal or Infeasible past one.
	incomplete := s.exhausted || s.lpLimited
	switch {
	case x == nil && incomplete:
		sol.Status = Limit
	case x == nil:
		sol.Status = Infeasible
	case incomplete:
		sol.Status, sol.X, sol.Obj = Feasible, x, obj
	default:
		sol.Status, sol.X, sol.Obj = Optimal, x, obj
	}
	return sol
}
