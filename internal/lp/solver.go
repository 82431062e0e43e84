package lp

import "math"

// Nonbasic/basic column states. A fixed variable (lb == ub) is held
// nonbasic at its lower bound and never enters the basis.
const (
	nbLower int8 = iota // nonbasic at lower bound
	nbUpper             // nonbasic at upper bound
	nbFree              // nonbasic free variable, resting at 0
	inBasis
)

// Basis is a compact snapshot of a simplex basis: one state per column
// (structural variables first, then one slack per row). It is the
// warm-start handle: a Solver can refactorize for this basis under new
// bounds and repair feasibility with the dual simplex.
type Basis struct {
	status []int8
}

// Status exposes the per-column basis states (structural columns first,
// then one slack per row). The slice must not be modified; it is the raw
// form consumed by Solver.SolveView warm starts.
func (bs *Basis) Status() []int8 {
	if bs == nil {
		return nil
	}
	return bs.status
}

// BasisFromStatus wraps a copied status snapshot (as produced by
// View.Basis or Basis.Status) back into a Basis handle.
func BasisFromStatus(status []int8) *Basis {
	if status == nil {
		return nil
	}
	return &Basis{status: append([]int8(nil), status...)}
}

// View is the allocation-free result of Solver.SolveView. Every slice
// aliases solver-owned scratch: the contents are valid only until the next
// call on the same Solver, and must be copied to outlive it. X, R and
// Basis are populated only when Status == Optimal.
type View struct {
	Status Status
	Obj    float64
	Iters  int
	X      []float64 // structural solution (solver-owned)
	R      []float64 // structural reduced costs (solver-owned)
	Basis  []int8    // basis snapshot, warm-start input (solver-owned)
}

// Solver owns the revised-simplex state for one Problem shape: a sparse
// column copy of the constraint matrix, a product-form basis factorization
// (eta file) that is updated per pivot and rebuilt only on drift, and all
// iteration work buffers. After the first few solves of a shape every
// buffer has reached steady size, so repeated SolveView calls perform no
// allocation. A Solver is reusable across solves (bounds and objective may
// differ per call) and is not safe for concurrent use; give each worker
// its own Solver.
type Solver struct {
	p    *Problem
	m    int // rows
	n    int // structural columns
	cols int // n + m (slacks)

	// Sparse column-major copy of A (structural columns; slack column n+i
	// is implicitly the unit vector e_i).
	colPtr []int32
	colIdx []int32
	colVal []float64

	// Current solve state.
	status []int8
	lb, ub []float64 // per-column bounds for the current solve
	cost   []float64 // per-column objective for the current phase
	r      []float64 // reduced costs, maintained across pivots
	basis  []int32   // column basic in each row
	xB     []float64 // value of the basic variable of each row
	z      float64   // current objective value

	// Product-form factorization B^-1 = E_k ∘ ... ∘ E_1 (applied in order
	// by ftran, in reverse by btran). The first facEtas entries come from
	// factorize; the rest are simplex pivot updates.
	etaPivRow []int32
	etaPivVal []float64
	etaPtr    []int32 // len = len(etaPivRow)+1
	etaIdx    []int32
	etaVal    []float64
	facEtas   int
	facNnz    int

	// Snapshot of the latest canonical factorization, keyed by its basic
	// set. factorize is a pure function of the basic set (the matrix is
	// fixed per Solver), so when a warm start requests a set that was just
	// factorized — the sibling of a branch-and-bound node always does —
	// restoring the snapshot is byte-identical to refactorizing and costs a
	// few copies instead of the numeric pass. Bounds and objective do not
	// enter the factorization, so the snapshot never needs invalidation.
	facValid   bool
	facBcols   []int32
	snapPivRow []int32
	snapPivVal []float64
	snapPtr    []int32
	snapIdx    []int32
	snapVal    []float64
	snapBasis  []int32

	// Scratch.
	colBuf  []float64 // m; dense FTRAN result (zeroed outside use)
	colMark []bool    // m; nonzero tracking for colBuf
	colList []int32   // rows touched in colBuf
	rhoBuf  []float64 // m; dense BTRAN result
	alpha   []float64 // cols; pivot row of B^-1 [A I]
	rhsBuf  []float64 // m
	xbuf    []float64 // n; solution view
	rbuf    []float64 // n; reduced-cost view
	// Factorization scratch (triangularity peeling).
	bcols    []int32 // m; basic columns, ascending
	rowCnt   []int32 // m; unassigned-column count per free row
	colLeft  []int32 // m; free-row count per unassigned column
	rowTaken []bool  // m
	colRow   []int32 // m; assigned pivot row per basic column (-1 = open)
	rowPtr   []int32 // m+1; row -> incident basic columns
	rowLst   []int32
	pivK     []int32 // pivot order: indices into bcols
	pivRow   []int32 // matching pivot rows (-1 = numeric choice)
	workQ    []int32
}

// NewSolver creates a solver for the problem's current shape. Rows must not
// be added to the problem afterwards.
func NewSolver(p *Problem) *Solver {
	m := len(p.rows)
	cols := p.n + m
	s := &Solver{
		p: p, m: m, n: p.n, cols: cols,
		status:   make([]int8, cols),
		lb:       make([]float64, cols),
		ub:       make([]float64, cols),
		cost:     make([]float64, cols),
		r:        make([]float64, cols),
		basis:    make([]int32, m),
		xB:       make([]float64, m),
		colBuf:   make([]float64, m),
		colMark:  make([]bool, m),
		colList:  make([]int32, 0, m),
		rhoBuf:   make([]float64, m),
		alpha:    make([]float64, cols),
		rhsBuf:   make([]float64, m),
		xbuf:     make([]float64, p.n),
		rbuf:     make([]float64, p.n),
		bcols:    make([]int32, 0, m),
		rowCnt:   make([]int32, m),
		colLeft:  make([]int32, m),
		rowTaken: make([]bool, m),
		colRow:   make([]int32, m),
		rowPtr:   make([]int32, m+1),
		pivK:     make([]int32, 0, m),
		pivRow:   make([]int32, 0, m),
		etaPtr:   []int32{0},
	}
	// Build the sparse column copy of A from the dense rows.
	nnz := 0
	for i := 0; i < m; i++ {
		for _, v := range p.rows[i] {
			if v != 0 {
				nnz++
			}
		}
	}
	s.colPtr = make([]int32, p.n+1)
	s.colIdx = make([]int32, 0, nnz)
	s.colVal = make([]float64, 0, nnz)
	for j := 0; j < p.n; j++ {
		for i := 0; i < m; i++ {
			if v := p.rows[i][j]; v != 0 {
				s.colIdx = append(s.colIdx, int32(i))
				s.colVal = append(s.colVal, v)
			}
		}
		s.colPtr[j+1] = int32(len(s.colIdx))
	}
	return s
}

// val returns the current value of nonbasic column j.
func (s *Solver) val(j int) float64 {
	switch s.status[j] {
	case nbLower:
		return s.lb[j]
	case nbUpper:
		return s.ub[j]
	default:
		return 0
	}
}

func (s *Solver) fixed(j int) bool { return s.lb[j] == s.ub[j] }

// SolveView runs the simplex without allocating: the returned slices alias
// solver scratch and are valid only until the next call. lb/ub override
// the problem's structural bounds when non-nil (one entry per variable);
// warm, when non-nil, is a per-column status snapshot (View.Basis /
// Basis.Status) of a previous same-shape solve, refactorized as the
// starting basis. maxIters <= 0 selects an automatic budget. The solve is
// deterministic: a pure function of (problem, bounds, warm, maxIters).
//
//fpva:allocfree
func (s *Solver) SolveView(lb, ub []float64, warm []int8, maxIters int) View {
	if maxIters <= 0 {
		maxIters = 200 * (s.m + s.n + 10)
	}
	if s.m != len(s.p.rows) {
		panic("lp: rows added to problem after NewSolver")
	}
	// Install column bounds: structural from the override (or problem), one
	// slack per row from its sense.
	for j := 0; j < s.n; j++ {
		l, u := s.p.lb[j], s.p.ub[j]
		if lb != nil {
			l = lb[j]
		}
		if ub != nil {
			u = ub[j]
		}
		if l > u {
			return View{Status: Infeasible}
		}
		s.lb[j], s.ub[j] = l, u
	}
	for i := 0; i < s.m; i++ {
		j := s.n + i
		switch s.p.senses[i] {
		case LE:
			s.lb[j], s.ub[j] = 0, math.Inf(1)
		case GE:
			s.lb[j], s.ub[j] = math.Inf(-1), 0
		case EQ:
			s.lb[j], s.ub[j] = 0, 0
		}
	}

	iters := 0
	if warm == nil || !s.installWarm(warm) {
		s.coldBasis()
	}

	if !s.primalFeasible() {
		// Repair primal feasibility with the bounded dual simplex. With the
		// true objective this is the warm-start fast path (bound changes
		// preserve dual feasibility); otherwise fall back to a zero
		// objective, which is trivially dual feasible — the bounded
		// equivalent of a phase-1.
		s.setCost(true)
		if !s.dualFeasible() {
			s.setCost(false)
		}
		st, used := s.dualIterate(maxIters - iters)
		iters += used
		if st != Optimal {
			return View{Status: st, Iters: iters}
		}
	}

	// Phase 2: the true objective, primal simplex.
	s.setCost(true)
	st, used := s.primalIterate(maxIters - iters)
	iters += used
	if st != Optimal {
		return View{Status: st, Iters: iters}
	}
	return s.extractView(iters)
}

// resetEtas clears the eta file.
func (s *Solver) resetEtas() {
	s.etaPivRow = s.etaPivRow[:0]
	s.etaPivVal = s.etaPivVal[:0]
	s.etaPtr = s.etaPtr[:1]
	s.etaIdx = s.etaIdx[:0]
	s.etaVal = s.etaVal[:0]
	s.facEtas = 0
	s.facNnz = 0
}

// ftranDense applies B^-1 to the dense vector x in place.
func (s *Solver) ftranDense(x []float64) {
	for k := 0; k < len(s.etaPivRow); k++ {
		r := s.etaPivRow[k]
		xr := x[r]
		if xr == 0 {
			continue
		}
		t := xr / s.etaPivVal[k]
		x[r] = t
		for q := s.etaPtr[k]; q < s.etaPtr[k+1]; q++ {
			x[s.etaIdx[q]] -= s.etaVal[q] * t
		}
	}
}

// btran applies B^-T to the dense vector y in place (equivalently computes
// the row vector y·B^-1).
func (s *Solver) btran(y []float64) {
	for k := len(s.etaPivRow) - 1; k >= 0; k-- {
		r := s.etaPivRow[k]
		t := y[r]
		for q := s.etaPtr[k]; q < s.etaPtr[k+1]; q++ {
			t -= s.etaVal[q] * y[s.etaIdx[q]]
		}
		y[r] = t / s.etaPivVal[k]
	}
}

// scatterColumn writes column j of [A I] into colBuf, tracking nonzeros.
func (s *Solver) scatterColumn(j int) {
	if j >= s.n {
		i := int32(j - s.n)
		if !s.colMark[i] {
			s.colMark[i] = true
			s.colList = append(s.colList, i)
		}
		s.colBuf[i] = 1
		return
	}
	for q := s.colPtr[j]; q < s.colPtr[j+1]; q++ {
		i := s.colIdx[q]
		if !s.colMark[i] {
			s.colMark[i] = true
			s.colList = append(s.colList, i)
		}
		s.colBuf[i] = s.colVal[q]
	}
}

// ftranCol computes colBuf = B^-1 [A I]_j with nonzero tracking in
// colList/colMark. The caller must clearCol when done.
func (s *Solver) ftranCol(j int) {
	s.scatterColumn(j)
	for k := 0; k < len(s.etaPivRow); k++ {
		r := s.etaPivRow[k]
		xr := s.colBuf[r]
		if xr == 0 {
			continue
		}
		t := xr / s.etaPivVal[k]
		s.colBuf[r] = t
		for q := s.etaPtr[k]; q < s.etaPtr[k+1]; q++ {
			i := s.etaIdx[q]
			if !s.colMark[i] {
				s.colMark[i] = true
				s.colList = append(s.colList, i)
			}
			s.colBuf[i] -= s.etaVal[q] * t
		}
	}
}

// clearCol zeroes colBuf via the touched list.
func (s *Solver) clearCol() {
	for _, i := range s.colList {
		s.colBuf[i] = 0
		s.colMark[i] = false
	}
	s.colList = s.colList[:0]
}

// appendEta records the current colBuf (a transformed pivot column) as an
// eta with the given pivot row. Returns false when the pivot element is
// numerically unusable.
func (s *Solver) appendEta(pivRow int32) bool {
	pv := s.colBuf[pivRow]
	if math.Abs(pv) < 1e-11 {
		return false
	}
	s.etaPivRow = append(s.etaPivRow, pivRow)
	s.etaPivVal = append(s.etaPivVal, pv)
	for _, i := range s.colList {
		if i == pivRow {
			continue
		}
		if v := s.colBuf[i]; v != 0 {
			s.etaIdx = append(s.etaIdx, i)
			s.etaVal = append(s.etaVal, v)
		}
	}
	s.etaPtr = append(s.etaPtr, int32(len(s.etaIdx)))
	return true
}

// pattern visits the row indices of basic column k (an index into bcols).
func (s *Solver) pattern(k int32, visit func(i int32)) {
	j := s.bcols[k]
	if int(j) >= s.n {
		visit(j - int32(s.n))
		return
	}
	for q := s.colPtr[j]; q < s.colPtr[j+1]; q++ {
		visit(s.colIdx[q])
	}
}

// factorize rebuilds the eta file for the basic columns recorded in
// s.status. The pivot order comes from triangularity peeling — column and
// row singletons first (initial scan ascending, then discovery order) — so
// the eta file stays near the matrix's own sparsity on the almost-
// triangular bases the flow models produce; whatever remains (the "bump")
// pivots by max magnitude with a lowest-row tie break. It fills s.basis and
// returns false when the basis matrix is numerically singular.
// Deterministic: a pure function of the basic set and the matrix.
func (s *Solver) factorize() bool {
	s.resetEtas()
	m := s.m
	if m == 0 {
		return true
	}
	// Gather basic columns ascending.
	s.bcols = s.bcols[:0]
	for j := 0; j < s.cols; j++ {
		if s.status[j] == inBasis {
			s.bcols = append(s.bcols, int32(j))
		}
	}
	if len(s.bcols) != m {
		return false
	}
	// Row -> incident basic columns (counting sort over the patterns).
	for i := 0; i <= m; i++ {
		s.rowPtr[i] = 0
	}
	for k := int32(0); int(k) < m; k++ {
		s.pattern(k, func(i int32) { s.rowPtr[i+1]++ })
	}
	for i := 0; i < m; i++ {
		s.rowPtr[i+1] += s.rowPtr[i]
	}
	need := int(s.rowPtr[m])
	if cap(s.rowLst) < need {
		//lint:ignore fpva/allocfree grows once to the basis pattern size, then reused; warm solves are pinned by alloc_test
		s.rowLst = make([]int32, need)
	}
	s.rowLst = s.rowLst[:need]
	fill := s.rowCnt // temporarily reuse as the fill cursor
	for i := 0; i < m; i++ {
		fill[i] = s.rowPtr[i]
	}
	for k := int32(0); int(k) < m; k++ {
		s.pattern(k, func(i int32) {
			s.rowLst[fill[i]] = k
			fill[i]++
		})
	}
	// Peeling state: free rows count unassigned incident columns; open
	// columns count free rows in their pattern.
	for i := 0; i < m; i++ {
		s.rowCnt[i] = s.rowPtr[i+1] - s.rowPtr[i]
		s.rowTaken[i] = false
	}
	for k := int32(0); int(k) < m; k++ {
		cnt := int32(0)
		s.pattern(k, func(int32) { cnt++ })
		s.colLeft[k] = cnt
		s.colRow[k] = -1
	}
	s.pivK = s.pivK[:0]
	s.pivRow = s.pivRow[:0]
	assign := func(k, row int32) {
		s.colRow[k] = row
		s.rowTaken[row] = true
		s.pivK = append(s.pivK, k)
		s.pivRow = append(s.pivRow, row)
		// The row leaves the free set: decrement its other open columns.
		for q := s.rowPtr[row]; q < s.rowPtr[row+1]; q++ {
			if kk := s.rowLst[q]; s.colRow[kk] == -1 {
				s.colLeft[kk]--
				if s.colLeft[kk] == 1 {
					s.workQ = append(s.workQ, kk)
				}
			}
		}
		// The column leaves the open set: decrement its other free rows.
		s.pattern(k, func(i int32) {
			if !s.rowTaken[i] {
				s.rowCnt[i]--
				if s.rowCnt[i] == 1 {
					s.workQ = append(s.workQ, int32(m)+i)
				}
			}
		})
	}
	// Seed queue: entries < m are column indices, >= m are rows+m.
	s.workQ = s.workQ[:0]
	for k := int32(0); int(k) < m; k++ {
		if s.colLeft[k] == 1 {
			s.workQ = append(s.workQ, k)
		}
	}
	for i := int32(0); int(i) < m; i++ {
		if s.rowCnt[i] == 1 {
			s.workQ = append(s.workQ, int32(m)+i)
		}
	}
	for head := 0; head < len(s.workQ); head++ {
		e := s.workQ[head]
		if int(e) < m {
			k := e
			if s.colRow[k] != -1 {
				continue
			}
			// Re-derive the unique free row; skip stale entries.
			var row, cnt int32 = -1, 0
			s.pattern(k, func(i int32) {
				if !s.rowTaken[i] {
					row, cnt = i, cnt+1
				}
			})
			if cnt == 1 {
				assign(k, row)
			}
		} else {
			i := e - int32(m)
			if s.rowTaken[i] {
				continue
			}
			var k, cnt int32 = -1, 0
			for q := s.rowPtr[i]; q < s.rowPtr[i+1]; q++ {
				if kk := s.rowLst[q]; s.colRow[kk] == -1 {
					k, cnt = kk, cnt+1
				}
			}
			if cnt == 1 {
				assign(k, i)
			}
		}
	}
	// Bump: every still-open column pivots numerically, ascending order.
	for k := int32(0); int(k) < m; k++ {
		if s.colRow[k] == -1 {
			s.pivK = append(s.pivK, k)
			s.pivRow = append(s.pivRow, -1)
		}
	}
	// Numeric pass in the chosen order.
	for idx := range s.pivK {
		j := int(s.bcols[s.pivK[idx]])
		s.ftranCol(j)
		row := s.pivRow[idx]
		if row == -1 {
			best := 1e-9
			for i := 0; i < m; i++ {
				if s.rowTaken[i] {
					continue
				}
				if av := math.Abs(s.colBuf[i]); av > best {
					best, row = av, int32(i)
				}
			}
			if row == -1 {
				s.clearCol()
				return false
			}
			s.rowTaken[row] = true
		}
		ok := s.appendEta(row)
		s.clearCol()
		if !ok {
			return false
		}
		s.basis[row] = int32(j)
	}
	s.facEtas = len(s.etaPivRow)
	s.facNnz = len(s.etaIdx)
	s.saveFactorization()
	return true
}

// saveFactorization snapshots the eta file and basis just produced by
// factorize, together with the basic set they belong to.
func (s *Solver) saveFactorization() {
	s.facBcols = append(s.facBcols[:0], s.bcols...)
	s.snapPivRow = append(s.snapPivRow[:0], s.etaPivRow...)
	s.snapPivVal = append(s.snapPivVal[:0], s.etaPivVal...)
	s.snapPtr = append(s.snapPtr[:0], s.etaPtr...)
	s.snapIdx = append(s.snapIdx[:0], s.etaIdx...)
	s.snapVal = append(s.snapVal[:0], s.etaVal...)
	s.snapBasis = append(s.snapBasis[:0], s.basis...)
	s.facValid = true
}

// basicSetMatchesSnapshot reports whether the basic columns currently
// flagged in s.status are exactly the snapshot's set.
func (s *Solver) basicSetMatchesSnapshot() bool {
	if !s.facValid {
		return false
	}
	k := 0
	for j := 0; j < s.cols; j++ {
		if s.status[j] != inBasis {
			continue
		}
		if k >= len(s.facBcols) || s.facBcols[k] != int32(j) {
			return false
		}
		k++
	}
	return k == len(s.facBcols)
}

// restoreFactorization reinstates the snapshot — bit-identical to calling
// factorize on the same basic set.
func (s *Solver) restoreFactorization() {
	s.etaPivRow = append(s.etaPivRow[:0], s.snapPivRow...)
	s.etaPivVal = append(s.etaPivVal[:0], s.snapPivVal...)
	s.etaPtr = append(s.etaPtr[:0], s.snapPtr...)
	s.etaIdx = append(s.etaIdx[:0], s.snapIdx...)
	s.etaVal = append(s.etaVal[:0], s.snapVal...)
	copy(s.basis, s.snapBasis)
	s.facEtas = len(s.etaPivRow)
	s.facNnz = len(s.etaIdx)
}

// computeXB recomputes the basic values from the bounds and nonbasic
// states: xB = B^-1 (b - sum over nonbasic columns of A_j x_j).
func (s *Solver) computeXB() {
	rhs := s.rhsBuf
	for i := 0; i < s.m; i++ {
		rhs[i] = s.p.b[i]
	}
	for j := 0; j < s.n; j++ {
		if s.status[j] == inBasis {
			continue
		}
		v := s.val(j)
		if v == 0 {
			continue
		}
		for q := s.colPtr[j]; q < s.colPtr[j+1]; q++ {
			rhs[s.colIdx[q]] -= s.colVal[q] * v
		}
	}
	for i := 0; i < s.m; i++ {
		j := s.n + i
		if s.status[j] == inBasis {
			continue
		}
		if v := s.val(j); v != 0 {
			rhs[i] -= v
		}
	}
	s.ftranDense(rhs)
	copy(s.xB, rhs)
}

// coldBasis installs the all-slack basis (B = I, empty eta file) with
// nonbasic structural columns at their bound nearest a finite value.
func (s *Solver) coldBasis() {
	s.resetEtas()
	for j := 0; j < s.n; j++ {
		s.status[j] = s.defaultStatus(j)
	}
	for i := 0; i < s.m; i++ {
		s.status[s.n+i] = inBasis
		s.basis[i] = int32(s.n + i)
	}
	s.computeXB()
}

func (s *Solver) defaultStatus(j int) int8 {
	switch {
	case !math.IsInf(s.lb[j], -1):
		return nbLower
	case !math.IsInf(s.ub[j], 1):
		return nbUpper
	default:
		return nbFree
	}
}

// installWarm adopts the warm basis snapshot under the current bounds:
// sanitize nonbasic states, factorize, recompute xB. Returns false (leaving
// the solver in need of coldBasis) when the snapshot does not match the
// problem shape or the basis matrix is numerically singular.
func (s *Solver) installWarm(warm []int8) bool {
	if len(warm) != s.cols {
		return false
	}
	nb := 0
	for _, st := range warm {
		if st == inBasis {
			nb++
		}
	}
	if nb != s.m {
		return false
	}
	copy(s.status, warm)
	// Sanitize nonbasic states against the current bounds.
	for j := 0; j < s.cols; j++ {
		switch s.status[j] {
		case nbLower:
			if math.IsInf(s.lb[j], -1) {
				s.status[j] = s.defaultStatus(j)
			}
		case nbUpper:
			if math.IsInf(s.ub[j], 1) {
				s.status[j] = s.defaultStatus(j)
			}
		case nbFree:
			if !math.IsInf(s.lb[j], -1) || !math.IsInf(s.ub[j], 1) {
				s.status[j] = s.defaultStatus(j)
			}
		}
	}
	if s.basicSetMatchesSnapshot() {
		s.restoreFactorization()
	} else if !s.factorize() {
		return false
	}
	s.computeXB()
	return true
}

// refresh rebuilds the factorization for the current basis and recomputes
// the basic values and reduced costs — the drift control point. Returns
// false on a numerically singular basis (callers treat it as an iteration
// failure).
func (s *Solver) refresh() bool {
	if !s.factorize() {
		return false
	}
	s.computeXB()
	s.repriceCurrent()
	return true
}

// etaOverBudget reports whether the eta file has drifted far enough from
// its factorization to warrant a rebuild. Two triggers: a cap on the
// number of simplex-update etas, and — decisive on large models, where one
// transformed column can be dense — a cap on their total fill, so the
// FTRAN/BTRAN cost per pivot stays proportional to the matrix, not to the
// pivot history.
func (s *Solver) etaOverBudget() bool {
	if len(s.etaPivRow)-s.facEtas > 48 {
		return true
	}
	return len(s.etaIdx)-s.facNnz > 2*(len(s.colIdx)+s.m+64)
}

// setCost installs the phase objective (true problem cost or all-zero) and
// prices the current basis: y = B^-T c_B, r_j = c_j - y·A_j.
func (s *Solver) setCost(true_ bool) {
	clear(s.cost)
	if true_ {
		copy(s.cost, s.p.c)
	}
	s.repriceCurrent()
}

// repriceCurrent recomputes reduced costs and the objective value for the
// current phase cost and basis.
func (s *Solver) repriceCurrent() {
	y := s.rhoBuf
	for i := 0; i < s.m; i++ {
		y[i] = s.cost[s.basis[i]]
	}
	s.btran(y)
	for j := 0; j < s.n; j++ {
		rj := s.cost[j]
		for q := s.colPtr[j]; q < s.colPtr[j+1]; q++ {
			rj -= y[s.colIdx[q]] * s.colVal[q]
		}
		s.r[j] = rj
	}
	for i := 0; i < s.m; i++ {
		s.r[s.n+i] = s.cost[s.n+i] - y[i]
	}
	for i := 0; i < s.m; i++ {
		s.r[s.basis[i]] = 0
	}
	s.z = 0
	for i := 0; i < s.m; i++ {
		if cb := s.cost[s.basis[i]]; cb != 0 {
			s.z += cb * s.xB[i]
		}
	}
	for j := 0; j < s.cols; j++ {
		if s.status[j] != inBasis && s.cost[j] != 0 {
			s.z += s.cost[j] * s.val(j)
		}
	}
}

func (s *Solver) primalFeasible() bool {
	for i := 0; i < s.m; i++ {
		k := s.basis[i]
		if s.xB[i] < s.lb[k]-feasEps || s.xB[i] > s.ub[k]+feasEps {
			return false
		}
	}
	return true
}

func (s *Solver) dualFeasible() bool {
	for j := 0; j < s.cols; j++ {
		if s.status[j] == inBasis || s.fixed(j) {
			continue
		}
		switch s.status[j] {
		case nbLower:
			if s.r[j] < -eps {
				return false
			}
		case nbUpper:
			if s.r[j] > eps {
				return false
			}
		default:
			if math.Abs(s.r[j]) > eps {
				return false
			}
		}
	}
	return true
}

// computeAlpha fills s.alpha with the pivot row of B^-1 [A I]: alpha_j =
// rho·A_j where rho = B^-T e_leave is expected in s.rhoBuf.
func (s *Solver) computeAlpha() {
	rho := s.rhoBuf
	for j := 0; j < s.n; j++ {
		a := 0.0
		for q := s.colPtr[j]; q < s.colPtr[j+1]; q++ {
			a += rho[s.colIdx[q]] * s.colVal[q]
		}
		s.alpha[j] = a
	}
	for i := 0; i < s.m; i++ {
		s.alpha[s.n+i] = rho[i]
	}
}

// btranRow computes rho = B^-T e_row into rhoBuf.
func (s *Solver) btranRow(row int) {
	rho := s.rhoBuf
	for i := range rho {
		rho[i] = 0
	}
	rho[row] = 1
	s.btran(rho)
}

// updateReducedCosts applies the standard pivot update r_j -= theta*alpha_j
// using the alpha row already in s.alpha; enter/leaveCol bookkeeping keeps
// basic entries at exact zero.
func (s *Solver) updateReducedCosts(enter int, leaveCol int32) {
	theta := s.r[enter] / s.alpha[enter]
	if theta != 0 {
		for j := 0; j < s.cols; j++ {
			if a := s.alpha[j]; a != 0 {
				s.r[j] -= theta * a
			}
		}
	}
	s.r[enter] = 0
	// s.basis still holds the pre-pivot basis (leaveCol included), so zero
	// every basic entry first, then install the leaving column's new
	// reduced cost.
	for i := 0; i < s.m; i++ {
		s.r[s.basis[i]] = 0
	}
	s.r[leaveCol] = -theta
}

// primalIterate runs the bounded primal simplex until optimality,
// unboundedness, or the budget runs out.
func (s *Solver) primalIterate(budget int) (Status, int) {
	if budget < 0 {
		budget = 0
	}
	stall := 0
	bland := false
	for it := 0; ; it++ {
		// Entering column and movement direction.
		enter, dir := -1, 1.0
		if bland {
			for j := 0; j < s.cols && enter == -1; j++ {
				if s.status[j] == inBasis || s.fixed(j) {
					continue
				}
				switch s.status[j] {
				case nbLower:
					if s.r[j] < -eps {
						enter, dir = j, 1
					}
				case nbUpper:
					if s.r[j] > eps {
						enter, dir = j, -1
					}
				default:
					if s.r[j] < -eps {
						enter, dir = j, 1
					} else if s.r[j] > eps {
						enter, dir = j, -1
					}
				}
			}
		} else {
			best := eps
			for j := 0; j < s.cols; j++ {
				if s.status[j] == inBasis || s.fixed(j) {
					continue
				}
				var viol, d float64
				switch s.status[j] {
				case nbLower:
					viol, d = -s.r[j], 1
				case nbUpper:
					viol, d = s.r[j], -1
				default:
					if s.r[j] < 0 {
						viol, d = -s.r[j], 1
					} else {
						viol, d = s.r[j], -1
					}
				}
				if viol > best {
					best, enter, dir = viol, j, d
				}
			}
		}
		if enter == -1 {
			return Optimal, it
		}
		if it >= budget {
			return IterLimit, it
		}
		// Transformed entering column.
		s.ftranCol(enter)
		abuf := s.colBuf
		// Ratio test: entering moves by dir*t; basic i changes by
		// -dir*t*abuf[i]; the entering column itself flips at its range.
		tmax := math.Inf(1)
		if !math.IsInf(s.lb[enter], -1) && !math.IsInf(s.ub[enter], 1) {
			tmax = s.ub[enter] - s.lb[enter]
		}
		leave, tmin := -1, tmax
		for i := 0; i < s.m; i++ {
			step := dir * abuf[i]
			k := s.basis[i]
			var t float64
			switch {
			case step > eps: // basic value decreases
				if math.IsInf(s.lb[k], -1) {
					continue
				}
				t = (s.xB[i] - s.lb[k]) / step
			case step < -eps: // basic value increases
				if math.IsInf(s.ub[k], 1) {
					continue
				}
				t = (s.ub[k] - s.xB[i]) / (-step)
			default:
				continue
			}
			if t < 0 {
				t = 0
			}
			if leave == -1 && t < tmin-eps {
				leave, tmin = i, t
			} else if leave != -1 && (t < tmin-eps ||
				(t <= tmin+eps && bland && s.basis[i] < s.basis[leave])) {
				leave, tmin = i, math.Min(t, tmin)
			}
		}
		if math.IsInf(tmin, 1) {
			s.clearCol()
			return Unbounded, it
		}
		if tmin <= eps {
			stall++
			if stall > 2*(s.m+s.cols) {
				bland = true
			}
		} else {
			stall = 0
		}
		s.z += s.r[enter] * dir * tmin
		if leave == -1 {
			// Bound flip: no basis change.
			for _, i := range s.colList {
				if a := abuf[i]; a != 0 {
					s.xB[i] -= dir * tmin * a
				}
			}
			if s.status[enter] == nbLower {
				s.status[enter] = nbUpper
			} else {
				s.status[enter] = nbLower
			}
			s.clearCol()
			continue
		}
		newVal := s.val(enter) + dir*tmin
		for _, i := range s.colList {
			if i == int32(leave) {
				continue
			}
			if a := abuf[i]; a != 0 {
				s.xB[i] -= dir * tmin * a
			}
		}
		k := s.basis[leave]
		leaveStatus := nbUpper
		if dir*abuf[leave] > 0 { // basic value decreased to its lower bound
			leaveStatus = nbLower
		}
		// Reduced-cost update needs the pivot row before the basis changes.
		s.btranRow(leave)
		s.computeAlpha()
		if !s.commitPivot(leave, enter, k, leaveStatus, newVal) {
			return IterLimit, it
		}
	}
}

// commitPivot finalizes a basis change after the pivot column has been
// FTRAN'd into colBuf and the alpha row computed: append the update eta,
// update the reduced costs in place (against the pre-pivot basis), and
// install the new basis/status/value. On eta failure or drift overflow the
// factorization is rebuilt instead; false means the refreshed basis was
// numerically singular and the iteration must stop.
func (s *Solver) commitPivot(leave, enter int, leaveCol int32, leaveStatus int8, newVal float64) bool {
	ok := s.appendEta(int32(leave))
	s.clearCol()
	if ok && !s.etaOverBudget() {
		s.updateReducedCosts(enter, leaveCol)
		s.xB[leave] = newVal
		s.basis[leave] = int32(enter)
		s.status[enter] = inBasis
		s.status[leaveCol] = leaveStatus
		return true
	}
	s.basis[leave] = int32(enter)
	s.status[enter] = inBasis
	s.status[leaveCol] = leaveStatus
	s.xB[leave] = newVal
	return s.refresh()
}

// dualIterate runs the bounded dual simplex until primal feasibility
// ("Optimal" here means feasible for the current cost, which the caller
// re-prices), infeasibility, or the budget runs out. Requires dual
// feasibility on entry, which bound changes preserve.
func (s *Solver) dualIterate(budget int) (Status, int) {
	if budget < 0 {
		budget = 0
	}
	stall := 0
	bland := false
	for it := 0; ; it++ {
		// Leaving row: the worst bound violation (Bland mode: the first).
		leave, below := -1, false
		worst := feasEps
		for i := 0; i < s.m; i++ {
			k := s.basis[i]
			if v := s.lb[k] - s.xB[i]; v > worst {
				leave, below, worst = i, true, v
			} else if v := s.xB[i] - s.ub[k]; v > worst {
				leave, below, worst = i, false, v
			}
			if bland && leave != -1 {
				break
			}
		}
		if leave == -1 {
			return Optimal, it
		}
		if it >= budget {
			return IterLimit, it
		}
		// The pivot row of B^-1 [A I].
		s.btranRow(leave)
		s.computeAlpha()
		// Entering column: among columns whose movement raises (below) or
		// lowers (above) the leaving value, the minimal dual ratio
		// |r_j|/|a_j| preserves dual feasibility; ties break to the lowest
		// index.
		enter := -1
		var bestRatio float64
		for j := 0; j < s.cols; j++ {
			if s.status[j] == inBasis || s.fixed(j) {
				continue
			}
			aj := s.alpha[j]
			var ok bool
			switch s.status[j] {
			case nbLower: // can only increase
				ok = (below && aj < -eps) || (!below && aj > eps)
			case nbUpper: // can only decrease
				ok = (below && aj > eps) || (!below && aj < -eps)
			default: // free: either direction
				ok = aj > eps || aj < -eps
			}
			if !ok {
				continue
			}
			ratio := math.Abs(s.r[j]) / math.Abs(aj)
			if enter == -1 || ratio < bestRatio-eps {
				enter, bestRatio = j, ratio
			}
		}
		if enter == -1 {
			return Infeasible, it
		}
		k := s.basis[leave]
		target := s.ub[k]
		leaveStatus := nbUpper
		if below {
			target = s.lb[k]
			leaveStatus = nbLower
		}
		// Note: the step is not capped at the entering column's own opposite
		// bound. The entering variable may become basic outside its range,
		// which the next iterations repair — deliberately so: in-place bound
		// flips with degenerate reduced costs can cycle across rows without
		// touching the stall/Bland safeguards (observed under fuzzing), while
		// the uncapped pivot is the plain terminating dual method.
		delta := (s.xB[leave] - target) / s.alpha[enter]
		if math.Abs(delta) <= eps {
			stall++
			if stall > 2*(s.m+s.cols) {
				bland = true
			}
		} else {
			stall = 0
		}
		s.ftranCol(enter)
		abuf := s.colBuf
		newVal := s.val(enter) + delta
		for _, i := range s.colList {
			if i == int32(leave) {
				continue
			}
			if a := abuf[i]; a != 0 {
				s.xB[i] -= a * delta
			}
		}
		s.z += s.r[enter] * delta
		if !s.commitPivot(leave, enter, k, leaveStatus, newVal) {
			return IterLimit, it
		}
	}
}

// extractView assembles the Optimal result over solver-owned buffers.
func (s *Solver) extractView(iters int) View {
	x := s.xbuf
	for j := 0; j < s.n; j++ {
		if s.status[j] != inBasis {
			x[j] = s.val(j)
		}
	}
	for i := 0; i < s.m; i++ {
		if int(s.basis[i]) < s.n {
			x[s.basis[i]] = s.xB[i]
		}
	}
	obj := 0.0
	for j := 0; j < s.n; j++ {
		obj += s.p.c[j] * x[j]
	}
	copy(s.rbuf, s.r[:s.n])
	return View{
		Status: Optimal,
		Obj:    obj,
		Iters:  iters,
		X:      x,
		R:      s.rbuf,
		Basis:  s.status,
	}
}
