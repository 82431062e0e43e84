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
//     purely by (Seed, trial index), so trials are independent of scheduling
//     and the result is bit-identical for any worker count.
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
	// strictly increasing completed-trial counts (roughly once per scheduled
	// trial block). A campaign that completes — any worker count — always
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
	// broadcast of the fault-free node reachability, the starting point of
	// incremental propagation for lanes whose faults only open extra valves.
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
	// without any propagation — see sweepWord for the monotonicity
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
	ws := s.getWordScratch()
	defer s.putWordScratch(ws)
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
			copy(ws.edgeEff, cv.edgeWords[i])
			for v := lo; v < hi; v++ {
				if words[v] == 0 {
					continue
				}
				bit := uint64(1) << uint(v-lo)
				for _, e := range s.valveEdges[v] {
					ws.edgeEff[e] &^= bit
				}
			}
			detC[c] = cv.singleFlipDiff(ws, i)
			// Open universes: the mirror image on base-closed valves.
			copy(ws.edgeEff, cv.edgeWords[i])
			for v := lo; v < hi; v++ {
				if words[v] != 0 {
					continue
				}
				bit := uint64(1) << uint(v-lo)
				for _, e := range s.valveEdges[v] {
					ws.edgeEff[e] |= bit
				}
			}
			detO[c] = cv.singleFlipDiff(ws, i)
		}
		cv.detClosure[i] = detC
		cv.detOpen[i] = detO
	}
}

// singleFlipDiff floods ws.edgeEff and returns, per lane, whether the sink
// readings differ from vector i's golden ones.
func (cv *CompiledVectors) singleFlipDiff(ws *wordScratch, i int) uint64 {
	s := cv.s
	reach := s.g.BFSWordsInto(ws.reach, ws.queue, ws.inq, s.srcNodes, ^uint64(0), ws.edgeEff)
	diff := uint64(0)
	golden := cv.golden[i]
	for j, snk := range s.sinkNodes {
		g := uint64(0)
		if golden[j] {
			g = ^uint64(0)
		}
		diff |= reach[snk] ^ g
	}
	return diff
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
// reports per set whether it is detected. Fault sets are packed 64 to a
// word and evaluated bit-parallel (PPSFP); words are sharded across workers
// (<= 0 means runtime.NumCPU()). Results are position-stable regardless of
// worker count. This is the engine behind the exhaustive single- and
// double-fault sweeps.
//
// Cancelling ctx stops the sweep promptly. The returned slice is then
// trimmed to the longest fully-evaluated prefix (possibly empty) and
// returned together with ctx.Err(), so callers can tell evaluated entries
// from never-evaluated ones; on a nil error it always has len(faultSets)
// entries.
func (cv *CompiledVectors) DetectsBatch(ctx context.Context, faultSets [][]Fault, workers int) ([]bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]bool, len(faultSets))
	if len(faultSets) == 0 {
		return out, ctx.Err()
	}
	nWords := (len(faultSets) + 63) / 64
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > nWords {
		workers = nWords
	}
	// done is indexed by word; each entry is written by the single worker
	// that claimed the word, and read only after the WaitGroup barrier.
	done := make([]bool, nWords)
	var next atomic.Int64
	run := func() {
		ws := cv.s.getWordScratch()
		defer cv.s.putWordScratch(ws)
		for ctx.Err() == nil {
			w := int(next.Add(1)) - 1
			if w >= nWords {
				return
			}
			start := w * 64
			n := len(faultSets) - start
			if n > 64 {
				n = 64
			}
			cv.sweepWord(ws, faultSets[start:start+n], laneMask(n))
			for lane := 0; lane < n; lane++ {
				out[start+lane] = ws.firstIdx[lane] >= 0
			}
			done[w] = true
		}
	}
	if workers == 1 {
		run()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		evaluated := 0
		for w := 0; w < nWords && done[w]; w++ {
			evaluated = (w + 1) * 64
		}
		if evaluated > len(faultSets) {
			evaluated = len(faultSets)
		}
		return out[:evaluated], err
	}
	return out, nil
}

// RunCampaign injects cfg.NumFaults random faults per trial (stuck-at-0 or
// stuck-at-1 on distinct Normal valves, plus control leaks if configured)
// and counts how many trials the compiled vector set detects. Trials are
// sharded across cfg.Workers goroutines.
//
// Cancelling ctx stops the campaign promptly: all workers drain, and the
// partial result (Trials reflecting only the trials actually evaluated) is
// returned together with ctx.Err(). A completed campaign is bit-identical
// for any worker count: every trial's fault draw depends only on
// (Seed, trial index), and the bit-parallel engine reproduces the scalar
// simulator's per-trial first-detecting vector exactly.
func (cv *CompiledVectors) RunCampaign(ctx context.Context, cfg CampaignConfig) (CampaignResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Trials <= 0 {
		return CampaignResult{Trials: cfg.Trials}, ctx.Err()
	}
	return cv.runCampaignWords(ctx, cfg)
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
	next       atomic.Int64 // block / word claim counter
	detected   atomic.Int64
	sims       atomic.Int64
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
func (st *campaignState) merge(det, sims int64, local []escape) {
	st.detected.Add(det)
	st.sims.Add(sims)
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
	if workers == 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}
	res := CampaignResult{
		Trials:   st.cfg.Trials,
		Detected: int(st.detected.Load()),
		Sims:     int(st.sims.Load()),
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

// campaignWorkerCount resolves cfg.Workers against the number of
// schedulable units (trials or 64-trial words).
func campaignWorkerCount(cfg CampaignConfig, units int) int {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > units {
		workers = units
	}
	return workers
}

// runCampaignWords is the bit-parallel (PPSFP) engine: workers claim whole
// 64-trial words, draw the word's fault universes with the same
// (Seed, trial) SplitMix64 seeding as the scalar reference, and evaluate all
// 64 in one sweep per vector. The final partial word is the remainder
// block; its unused lanes are masked out of the sweep.
func (cv *CompiledVectors) runCampaignWords(ctx context.Context, cfg CampaignConfig) (CampaignResult, error) {
	st := newCampaignState(cfg)
	normal := cv.s.arr.NormalValves()
	nWords := (cfg.Trials + 63) / 64
	worker := func() {
		ws := cv.s.getWordScratch()
		defer cv.s.putWordScratch(ws)
		rng := rand.New(&splitmix64{})
		fb := newWordFaultScratch(normal, cfg)
		var det, sims int64
		var local []escape
		for ctx.Err() == nil {
			w := int(st.next.Add(1)) - 1
			if w >= nWords {
				break
			}
			start := w * 64
			n := cfg.Trials - start
			if n > 64 {
				n = 64
			}
			for lane := 0; lane < n; lane++ {
				rng.Seed(trialSeed(cfg.Seed, start+lane))
				drawn := randomFaultsInto(rng, normal, cfg, fb.fs)
				fb.lanes[lane] = append(fb.lanes[lane][:0], drawn...)
			}
			cv.sweepWord(ws, fb.lanes[:n], laneMask(n))
			for lane := 0; lane < n; lane++ {
				if idx := ws.firstIdx[lane]; idx >= 0 {
					det++
					sims += int64(idx) + 1
				} else {
					sims += int64(len(cv.vecs))
					if len(local) < st.maxEscapes {
						// Lanes ascend within a word and a worker's words
						// ascend, so like the scalar reference its first
						// maxEscapes escapes cover its share of the global
						// cap. Escapes outlive the lane scratch: copy.
						local = append(local, escape{start + lane, append([]Fault(nil), fb.lanes[lane]...)})
					}
				}
			}
			st.completed.Add(int64(n))
			st.report()
		}
		st.merge(det, sims, local)
	}
	return st.run(ctx, campaignWorkerCount(cfg, nWords), worker)
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

// randomFaults is the standalone (allocating) form of randomFaultsInto,
// kept for one-off draws and tests.
func randomFaults(rng *rand.Rand, normal []grid.ValveID, cfg CampaignConfig) []Fault {
	fs := newFaultScratch(normal, cfg)
	return append([]Fault(nil), randomFaultsInto(rng, normal, cfg, fs)...)
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
