// Campaign engine: compiled vector sets with cached fault-free behaviour,
// and the parallel random fault-injection campaign of the paper's Sec. IV.
//
// The two ideas that make campaigns fast:
//
//   - Compile once. A CompiledVectors caches, per vector, the fault-free
//     effective valve state and the golden sink readings, so a campaign of
//     t trials over n vectors runs n BFS passes for the golden side instead
//     of t*n.
//   - Shard trials. Every trial derives its fault draw from an RNG seeded
//     purely by (Seed, trial index), and trial t always lands in block
//     t/1024 of the block sweep (ppsfp.go), so trials are independent of
//     scheduling and the result — flood count included — is bit-identical
//     for any worker count.
package sim

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/grid"
)

// DefaultMaxEscapes is the CampaignResult.Escapes cap applied when
// CampaignConfig.MaxEscapes is zero.
const DefaultMaxEscapes = 16

// CampaignConfig parameterizes a random fault-injection campaign, mirroring
// the paper's Sec. IV study (1..5 random faults, 10 000 trials per setting).
type CampaignConfig struct {
	Trials    int
	NumFaults int
	Seed      int64
	// Workers shards trials across goroutines; <= 0 means runtime.NumCPU().
	// The result is bit-identical for any worker count: each trial's faults
	// depend only on (Seed, trial index).
	Workers int
	// MaxEscapes caps CampaignResult.Escapes; <= 0 means DefaultMaxEscapes.
	MaxEscapes int
	// LeakPairs, when non-empty, lets the campaign inject ControlLeak
	// faults drawn from these candidate pairs alongside stuck-at faults.
	LeakPairs [][2]grid.ValveID
	// OnTrials, when non-nil, observes campaign progress: it receives
	// strictly increasing completed-trial counts, once per completed
	// 1,024-trial block. A campaign that completes — any worker count — always
	// ends with a final call at (Trials, Trials); a cancelled campaign
	// reports only the trials actually evaluated. It is invoked from worker
	// goroutines under an internal lock, so it must not call back into the
	// campaign and should return quickly.
	OnTrials func(done, total int)
}

// CampaignResult summarizes a campaign.
type CampaignResult struct {
	Trials   int
	Detected int
	// Sims counts vector evaluations performed across all trials (a trial
	// stops at its first detecting vector). For a fixed seed and a completed
	// campaign it is identical for any worker count, like the rest of the
	// result.
	Sims int
	// Escapes holds up to MaxEscapes undetected fault sets (lowest trial
	// indices first) for diagnosis.
	Escapes [][]Fault
	// Floods counts the propagation passes (packed 64-lane word floods) the
	// campaign ran: the lanes no lookup or mask rule could settle. Block
	// boundaries are fixed, so a completed campaign's count is identical
	// for any worker count.
	Floods int
}

// DetectionRate returns Detected/Trials.
func (r CampaignResult) DetectionRate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Trials)
}

// CompiledVectors is a vector set bound to its simulator with the fault-free
// behaviour precomputed: per-vector effective valve states and golden sink
// readings. Compile once, then query Detects / RunCampaign / DetectsBatch
// any number of times — the golden readings are computed exactly once per
// vector instead of once per (vector, trial). Safe for concurrent use.
type CompiledVectors struct {
	s      *Simulator
	vecs   []*Vector
	base   [][]bool // fault-free effective state per vector
	golden [][]bool // fault-free sink readings per vector
	// baseWords is base broadcast to 64 bit lanes (0 or ^0 per valve), the
	// starting state of every bit-parallel sweep; baseReach is the matching
	// broadcast of the fault-free node reachability: the region the mask
	// rules test faulted valves against, and the starting point of
	// incremental propagation for lanes that close no valve touching it.
	baseWords [][]uint64
	baseReach [][]uint64
	// edgeWords[i][e] is baseWords[i] read through the edge->valve map: the
	// fault-free conductance of every graph edge, broadcast to 64 lanes.
	// A sweep copies it and patches only the faulted valves' edges instead
	// of re-gathering all of eff per vector.
	edgeWords [][]uint64
	// detClosure[i][v/64] bit v%64: closing valve v alone (leaving every
	// other valve in vector i's fault-free state) changes vector i's
	// readings; detOpen is the mirror table for opening valve v alone.
	// Closing valves only ever removes reachability and opening only ever
	// adds it, so these single-fault tables settle most fault universes
	// without any propagation — see classify for the monotonicity
	// argument. A single-stuck-at universe always resolves by lookup.
	detClosure [][]uint64
	detOpen    [][]uint64
}

// Compile precomputes the fault-free effective states and sink readings of
// the vector set. The vectors must not be mutated afterwards.
func (s *Simulator) Compile(vectors []*Vector) *CompiledVectors {
	cv := &CompiledVectors{
		s:      s,
		vecs:   vectors,
		base:   make([][]bool, len(vectors)),
		golden: make([][]bool, len(vectors)),

		baseWords:  make([][]uint64, len(vectors)),
		baseReach:  make([][]uint64, len(vectors)),
		edgeWords:  make([][]uint64, len(vectors)),
		detClosure: make([][]uint64, len(vectors)),
		detOpen:    make([][]uint64, len(vectors)),
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	for i, vec := range vectors {
		base := make([]bool, s.arr.NumValves())
		s.effIntoBase(base, vec)
		copy(sc.eff, base)
		cv.base[i] = base
		cv.golden[i] = s.readingsInto(sc, make([]bool, len(s.sinkNodes)))
		words := make([]uint64, len(base))
		for id, open := range base {
			if open {
				words[id] = ^uint64(0)
			}
		}
		cv.baseWords[i] = words
		ew := make([]uint64, s.g.M())
		for e, v := range s.edgeValve {
			ew[e] = words[v]
		}
		cv.edgeWords[i] = ew
		// readingsInto leaves the fault-free BFS tree in sc.via.
		reach := make([]uint64, s.g.N())
		for n, v := range sc.via {
			if v != -1 {
				reach[n] = ^uint64(0)
			}
		}
		cv.baseReach[i] = reach
	}
	cv.compileSingleFaultTables()
	return cv
}

// compileSingleFaultTables fills detClosure and detOpen by evaluating, for
// every vector, the single-valve-flip universes bit-parallel: lane j of
// chunk c is the universe in which only valve c*64+j is forced closed
// (resp. open). One word flood per (vector, 64 valves, polarity) answers 64
// "does this single flip matter?" questions.
func (cv *CompiledVectors) compileSingleFaultTables() {
	s := cv.s
	nv := s.arr.NumValves()
	chunks := (nv + 63) / 64
	bs := s.getBlockScratch()
	defer s.putBlockScratch(bs)
	for i := range cv.vecs {
		detC := make([]uint64, chunks)
		detO := make([]uint64, chunks)
		words := cv.baseWords[i]
		for c := 0; c < chunks; c++ {
			lo := c * 64
			hi := lo + 64
			if hi > nv {
				hi = nv
			}
			// Closure universes: clear lane v-lo on valve v's edges where
			// the valve is base-open (a closed valve's closure is the
			// fault-free universe and its lane diff stays zero).
			copy(bs.edgeEff, cv.edgeWords[i])
			for v := lo; v < hi; v++ {
				if words[v] == 0 {
					continue
				}
				bit := uint64(1) << uint(v-lo)
				for _, e := range s.valveEdges[v] {
					bs.edgeEff[e] &^= bit
				}
			}
			detC[c] = cv.singleFlipDiff(bs, i)
			// Open universes: the mirror image on base-closed valves.
			copy(bs.edgeEff, cv.edgeWords[i])
			for v := lo; v < hi; v++ {
				if words[v] != 0 {
					continue
				}
				bit := uint64(1) << uint(v-lo)
				for _, e := range s.valveEdges[v] {
					bs.edgeEff[e] |= bit
				}
			}
			detO[c] = cv.singleFlipDiff(bs, i)
		}
		cv.detClosure[i] = detC
		cv.detOpen[i] = detO
	}
}

// singleFlipDiff floods bs.edgeEff and returns, per lane, whether the sink
// readings differ from vector i's golden ones.
func (cv *CompiledVectors) singleFlipDiff(bs *blockScratch, i int) uint64 {
	s := cv.s
	s.g.BFSWordsInto(bs.reach, bs.queue, bs.inq, s.srcNodes, ^uint64(0), bs.edgeEff)
	return cv.packDiff(bs, i)
}

// Simulator returns the simulator the vectors were compiled against.
func (cv *CompiledVectors) Simulator() *Simulator { return cv.s }

// Len returns the number of compiled vectors.
func (cv *CompiledVectors) Len() int { return len(cv.vecs) }

// Golden returns the cached fault-free sink readings of vector i. The slice
// must not be modified.
func (cv *CompiledVectors) Golden(i int) []bool { return cv.golden[i] }

// detectingVector is the allocation-free inner loop: it overlays faults on
// the cached fault-free state of each vector and compares readings against
// the cached golden ones, skipping the BFS entirely when the faults do not
// change the vector's physical state.
//
//fpva:allocfree
func (cv *CompiledVectors) detectingVector(sc *scratch, faults []Fault) int {
	s := cv.s
	for i, vec := range cv.vecs {
		copy(sc.eff, cv.base[i])
		if !s.applyFaults(sc.eff, vec, faults) {
			continue
		}
		s.readingsInto(sc, sc.out)
		golden := cv.golden[i]
		for j := range golden {
			if golden[j] != sc.out[j] {
				return i
			}
		}
	}
	return -1
}

// Detects reports whether the compiled vector set distinguishes the faulty
// chip from a fault-free one.
func (cv *CompiledVectors) Detects(faults []Fault) bool {
	return cv.DetectingVector(faults) >= 0
}

// DetectingVector returns the index of the first vector that exposes the
// fault set, or -1.
func (cv *CompiledVectors) DetectingVector(faults []Fault) int {
	sc := cv.s.getScratch()
	defer cv.s.putScratch(sc)
	return cv.detectingVector(sc, faults)
}

// DetectsBatch evaluates many fault sets against the compiled vectors and
// reports per set whether it is detected. Fault set k is universe k of the
// block sweep (lane k%64 of word k/64 of block k/1024); blocks are sharded
// across workers (<= 0 means runtime.NumCPU()). Results are
// position-stable regardless of worker count. This is the engine behind
// the exhaustive single- and double-fault sweeps.
//
// Cancelling ctx stops the sweep promptly. The returned slice is then
// trimmed to the longest fully-evaluated prefix of whole blocks (possibly
// empty) and returned together with ctx.Err(), so callers can tell
// evaluated entries from never-evaluated ones; on a nil error it always
// has len(faultSets) entries.
func (cv *CompiledVectors) DetectsBatch(ctx context.Context, faultSets [][]Fault, workers int) ([]bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]bool, len(faultSets))
	if len(faultSets) == 0 {
		return out, ctx.Err()
	}
	nBlocks := (len(faultSets) + blockLanes - 1) / blockLanes
	// done is indexed by block; each entry is written by the single worker
	// that claimed the block, and read only after the workers have joined.
	done := make([]bool, nBlocks)
	var next atomic.Int64
	parallel(workerCount(workers, nBlocks), func() {
		bs := cv.s.getBlockScratch()
		defer cv.s.putBlockScratch(bs)
		for ctx.Err() == nil {
			b := int(next.Add(1)) - 1
			if b >= nBlocks {
				return
			}
			start := b * blockLanes
			sets := faultSets[start:min(start+blockLanes, len(faultSets))]
			cv.s.loadBlock(bs, sets)
			cv.sweepBlock(bs)
			for k := range sets {
				out[start+k] = bs.firstIdx[k] >= 0
			}
			done[b] = true
		}
	})
	if err := ctx.Err(); err != nil {
		evaluated := 0
		for b := 0; b < nBlocks && done[b]; b++ {
			evaluated = min((b+1)*blockLanes, len(faultSets))
		}
		return out[:evaluated], err
	}
	return out, nil
}

// loadBlock loads up to blockLanes fault sets as one block, set k in lane
// k%64 of word k/64.
//
//fpva:allocfree
func (s *Simulator) loadBlock(bs *blockScratch, sets [][]Fault) {
	bs.reset()
	for start := 0; start < len(sets); start += 64 {
		s.loadWord(bs, sets[start:min(start+64, len(sets))])
	}
}

// RunCampaign injects cfg.NumFaults random faults per trial (stuck-at-0 or
// stuck-at-1 on distinct Normal valves, plus control leaks if configured)
// and counts how many trials the compiled vector set detects. Workers
// claim 1,024-trial blocks (block b is always trials [1024b, 1024b+1024))
// across cfg.Workers goroutines.
//
// Cancelling ctx stops the campaign between blocks: all workers drain, and
// the partial result (Trials reflecting only the trials actually
// evaluated) is returned together with ctx.Err(). A completed campaign is
// bit-identical for any worker count: every trial's fault draw depends
// only on (Seed, trial index), the block sweep reproduces the scalar
// simulator's per-trial first-detecting vector exactly, and which trials
// share a flood depends only on the fixed block boundaries.
func (cv *CompiledVectors) RunCampaign(ctx context.Context, cfg CampaignConfig) (CampaignResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Trials <= 0 {
		return CampaignResult{Trials: cfg.Trials}, ctx.Err()
	}
	st := newCampaignState(cfg)
	normal := cv.s.arr.NormalValves()
	nBlocks := (cfg.Trials + blockLanes - 1) / blockLanes
	worker := func() {
		bs := cv.s.getBlockScratch()
		defer cv.s.putBlockScratch(bs)
		rng := rand.New(&splitmix64{})
		fb := newWordFaultScratch(normal, cfg)
		var det, sims, floods int64
		var local []escape
		for ctx.Err() == nil {
			b := int(st.next.Add(1)) - 1
			if b >= nBlocks {
				break
			}
			start := b * blockLanes
			n := min(blockLanes, cfg.Trials-start)
			bs.reset()
			for w := 0; w*64 < n; w++ {
				lanes := min(64, n-w*64)
				for lane := 0; lane < lanes; lane++ {
					rng.Seed(trialSeed(cfg.Seed, start+w*64+lane))
					drawn := randomFaultsInto(rng, normal, cfg, fb.fs)
					fb.lanes[lane] = append(fb.lanes[lane][:0], drawn...)
				}
				cv.s.loadWord(bs, fb.lanes[:lanes])
			}
			floods += int64(cv.sweepBlock(bs))
			for k := 0; k < n; k++ {
				if idx := bs.firstIdx[k]; idx >= 0 {
					det++
					sims += int64(idx) + 1
					continue
				}
				sims += int64(len(cv.vecs))
				if len(local) < st.maxEscapes {
					// Trials ascend within a block and a worker's blocks
					// ascend, so like the scalar reference its first
					// maxEscapes escapes cover its share of the global
					// cap. The lane draws were overwritten word by word;
					// the trial's seed redraws its faults exactly.
					rng.Seed(trialSeed(cfg.Seed, start+k))
					drawn := randomFaultsInto(rng, normal, cfg, fb.fs)
					local = append(local, escape{start + k, append([]Fault(nil), drawn...)})
				}
			}
			st.completed.Add(int64(n))
			st.report()
		}
		st.merge(det, sims, floods, local)
	}
	return st.run(ctx, workerCount(cfg.Workers, nBlocks), worker)
}

// escape is one undetected trial, recorded for the Escapes cap.
type escape struct {
	trial  int
	faults []Fault
}

// campaignState is the cross-worker bookkeeping a campaign engine shares:
// atomic tallies, the escape merge lock, and the serialized OnTrials
// progress stream.
type campaignState struct {
	cfg        CampaignConfig
	maxEscapes int
	next       atomic.Int64 // block claim counter
	detected   atomic.Int64
	sims       atomic.Int64
	floods     atomic.Int64
	completed  atomic.Int64
	mu         sync.Mutex
	escapes    []escape
	progMu     sync.Mutex
	progLast   int
}

func newCampaignState(cfg CampaignConfig) *campaignState {
	maxEscapes := cfg.MaxEscapes
	if maxEscapes <= 0 {
		maxEscapes = DefaultMaxEscapes
	}
	return &campaignState{cfg: cfg, maxEscapes: maxEscapes}
}

// report delivers a progress callback if the completed count advanced;
// counts are strictly increasing under progMu.
func (st *campaignState) report() {
	if st.cfg.OnTrials == nil {
		return
	}
	done := int(st.completed.Load())
	st.progMu.Lock()
	if done > st.progLast {
		st.progLast = done
		st.cfg.OnTrials(done, st.cfg.Trials)
	}
	st.progMu.Unlock()
}

// merge folds one worker's tallies and escape list into the shared state.
func (st *campaignState) merge(det, sims, floods int64, local []escape) {
	st.detected.Add(det)
	st.sims.Add(sims)
	st.floods.Add(floods)
	if len(local) > 0 {
		st.mu.Lock()
		st.escapes = append(st.escapes, local...)
		st.mu.Unlock()
	}
}

// run shards the worker function, then pins the documented final OnTrials
// call at (Trials, Trials): completion does not depend on which worker
// happened to win the progress race. It assembles the deterministic result
// (escapes sorted by trial index, truncated to the cap).
func (st *campaignState) run(ctx context.Context, workers int, worker func()) (CampaignResult, error) {
	parallel(workers, worker)
	res := CampaignResult{
		Trials:   st.cfg.Trials,
		Detected: int(st.detected.Load()),
		Sims:     int(st.sims.Load()),
		Floods:   int(st.floods.Load()),
	}
	sort.Slice(st.escapes, func(i, j int) bool { return st.escapes[i].trial < st.escapes[j].trial })
	if len(st.escapes) > st.maxEscapes {
		st.escapes = st.escapes[:st.maxEscapes]
	}
	for _, e := range st.escapes {
		res.Escapes = append(res.Escapes, e.faults)
	}
	if err := ctx.Err(); err != nil {
		res.Trials = int(st.completed.Load())
		return res, err
	}
	st.report() // the guaranteed final (Trials, Trials) call
	return res, nil
}

// workerCount resolves a requested worker count (<= 0 means
// runtime.NumCPU()) against the number of schedulable units.
func workerCount(workers, units int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return min(workers, units)
}

// parallel runs fn on the given number of goroutines (inline for one) and
// returns when every copy has returned.
func parallel(workers int, fn func()) {
	if workers == 1 {
		fn()
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
}

// trialSeed mixes the campaign seed and a trial index into an RNG seed
// (splitmix64 finalizer), so each trial owns an independent, deterministic
// fault draw no matter which worker executes it.
func trialSeed(seed int64, trial int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(trial+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// splitmix64 is Vigna's SplitMix64 as a rand.Source64. Reseeding is a single
// store — the stdlib rngSource pays ~1800 multiplies per Seed, which would
// dominate a campaign that reseeds once per trial.
type splitmix64 struct{ x uint64 }

func (s *splitmix64) Seed(seed int64) { s.x = uint64(seed) }

func (s *splitmix64) Uint64() uint64 {
	s.x += 0x9E3779B97F4A7C15
	z := s.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// faultScratch is one worker's reusable draw state: the shrinking free
// list, the used set (a small linear-scan slice — at most 2*NumFaults
// entries), and the fault output buffer. With it, a trial's fault draw
// performs no allocation.
type faultScratch struct {
	free   []grid.ValveID
	used   []grid.ValveID
	faults []Fault
}

func newFaultScratch(normal []grid.ValveID, cfg CampaignConfig) *faultScratch {
	n := cfg.NumFaults
	if n > len(normal) {
		n = len(normal)
	}
	return &faultScratch{
		free:   make([]grid.ValveID, len(normal)),
		used:   make([]grid.ValveID, 0, 2*n),
		faults: make([]Fault, 0, n),
	}
}

// wordFaultScratch holds one worker's 64 per-lane fault draws, backed by a
// single slab so a word's draws perform no allocation after construction.
type wordFaultScratch struct {
	fs    *faultScratch
	lanes [64][]Fault
}

func newWordFaultScratch(normal []grid.ValveID, cfg CampaignConfig) *wordFaultScratch {
	n := cfg.NumFaults
	if n > len(normal) {
		n = len(normal)
	}
	if n < 0 {
		n = 0
	}
	w := &wordFaultScratch{fs: newFaultScratch(normal, cfg)}
	backing := make([]Fault, 64*n)
	for k := range w.lanes {
		w.lanes[k] = backing[k*n : k*n : (k+1)*n]
	}
	return w
}

func (fs *faultScratch) isUsed(v grid.ValveID) bool {
	for _, u := range fs.used {
		if u == v {
			return true
		}
	}
	return false
}

// randomFaultsInto draws up to cfg.NumFaults faults on distinct valves into
// the scratch's fault buffer (valid until the next draw). Stuck-at faults
// are drawn without replacement from a shrinking free list, so the draw can
// never spin; when a control-leak draw finds every candidate pair blocked
// by already-used valves it falls back to a stuck-at draw. If leak pairs
// consume so many valves that no free valve remains, the trial proceeds
// with fewer faults rather than retrying forever.
//
//fpva:allocfree
func randomFaultsInto(rng *rand.Rand, normal []grid.ValveID, cfg CampaignConfig, fs *faultScratch) []Fault {
	n := cfg.NumFaults
	if n > len(normal) {
		n = len(normal)
	}
	free := fs.free[:len(normal)]
	copy(free, normal)
	fs.used = fs.used[:0]
	faults := fs.faults[:0]
	remove := func(v grid.ValveID) {
		for i, f := range free {
			if f == v {
				free[i] = free[len(free)-1]
				free = free[:len(free)-1]
				return
			}
		}
	}
	for len(faults) < n && len(free) > 0 {
		if len(cfg.LeakPairs) > 0 && rng.Intn(5) == 0 {
			if p, ok := pickLeakPair(rng, cfg.LeakPairs, fs); ok {
				fs.used = append(fs.used, p[0], p[1])
				remove(p[0])
				remove(p[1])
				faults = append(faults, Fault{Kind: ControlLeak, A: p[0], B: p[1]})
				continue
			}
			// All leak pairs exhausted: fall through to a stuck-at draw.
		}
		i := rng.Intn(len(free))
		v := free[i]
		free[i] = free[len(free)-1]
		free = free[:len(free)-1]
		fs.used = append(fs.used, v)
		kind := StuckAt0
		if rng.Intn(2) == 1 {
			kind = StuckAt1
		}
		faults = append(faults, Fault{Kind: kind, A: v})
	}
	fs.faults = faults
	return faults
}

// pickLeakPair returns a uniformly random candidate pair whose valves are
// both unused, or ok=false when no such pair remains. The common case — the
// first probe hits a viable pair — costs one draw; only collisions pay for
// the viability scan.
//
//fpva:allocfree
func pickLeakPair(rng *rand.Rand, pairs [][2]grid.ValveID, fs *faultScratch) ([2]grid.ValveID, bool) {
	p := pairs[rng.Intn(len(pairs))]
	if !fs.isUsed(p[0]) && !fs.isUsed(p[1]) {
		return p, true
	}
	viable := 0
	for _, q := range pairs {
		if !fs.isUsed(q[0]) && !fs.isUsed(q[1]) {
			viable++
		}
	}
	if viable == 0 {
		return [2]grid.ValveID{}, false
	}
	k := rng.Intn(viable)
	for _, q := range pairs {
		if !fs.isUsed(q[0]) && !fs.isUsed(q[1]) {
			if k == 0 {
				return q, true
			}
			k--
		}
	}
	panic("sim: unreachable leak-pair draw")
}
