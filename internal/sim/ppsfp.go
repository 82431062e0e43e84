// Bit-parallel (PPSFP) fault evaluation: the classic parallel-pattern
// single-fault-propagation trick from the ATPG literature, adapted to the
// FPVA pressure model. Valve open/closed state for 64 independent fault
// universes is packed into one uint64 per valve (bit k = universe k), and a
// masked multi-source BFS (graph.BFSWordsInto) propagates pressure for all
// 64 universes in a single pass. A campaign or batch sweep therefore pays
// one graph traversal per (vector, 64 universes) instead of per
// (vector, universe).
//
// Determinism: the word engine evaluates exactly the same per-universe
// physics as the scalar simulator — loadWord precomputes, per lane, the
// same kind-guarded leak-then-stuck-at overlay applyFaults performs, and
// lane k of the BFS word fixpoint equals the boolean BFS under lane k's
// edge set — so first-detecting vector indices, and with them Detected,
// Sims and the escape list, are bit-identical to evaluating one universe
// at a time. The one-at-a-time campaign, batch and response references
// live in this package's test files as the differential oracle. Trials map
// to (word, lane) as trial = word*64 + lane; the final partial word is the
// remainder block, its unused lanes masked out.
package sim

import (
	"math/bits"

	"repro/internal/grid"
)

// laneMask returns the mask of the first n lanes (n in [0, 64]).
//
//fpva:allocfree
func laneMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<n - 1
}

// wordScratch is the per-goroutine working set of bit-parallel evaluation:
// the word-packed effective valve state, BFS reach/ring-queue buffers, the
// per-lane first-detecting-vector result, and the word's precomputed fault
// overlay (loadWord). Scratches cycle through Simulator.wordScratches so
// the steady state allocates nothing.
type wordScratch struct {
	eff      []uint64 // per valve: mask of universes in which it is open
	edgeEff  []uint64 // per graph edge: eff of its valve, fed to the BFS
	reach    []uint64 // per graph node: mask of universes with pressure
	queue    []int
	inq      []bool
	starts   []int // propagation start nodes for the reachability fixpoint
	firstIdx [64]int32

	// The word's fault overlay, rebuilt once per 64-universe word: per
	// valve, the lanes in which it is stuck at 0 / stuck at 1, the lanes
	// in which it is faulted at all (laneBits — lets the sweep skip valves
	// whose lanes have all detected), plus the lane-tagged leak couplings.
	// touched lists the valves with any overlay bits (mark deduplicates it)
	// so resets touch only what was used.
	sa0, sa1 []uint64
	laneBits []uint64
	mark     []bool
	touched  []int32
	leaks    []wordLeak
	// alive is the subset of touched with at least one still-pending faulty
	// lane; the sweep compacts it after each detection so the per-vector
	// overlay work shrinks as lanes resolve.
	alive []int32
}

// wordLeak is one ControlLeak fault of one lane: actuating either valve
// closes both in that lane.
type wordLeak struct {
	a, b grid.ValveID
	mask uint64
}

func (s *Simulator) newWordScratch() *wordScratch {
	nv := s.arr.NumValves()
	return &wordScratch{
		eff:      make([]uint64, nv),
		edgeEff:  make([]uint64, s.g.M()),
		reach:    make([]uint64, s.g.N()),
		queue:    make([]int, s.g.N()),
		inq:      make([]bool, s.g.N()),
		sa0:      make([]uint64, nv),
		sa1:      make([]uint64, nv),
		laneBits: make([]uint64, nv),
		mark:     make([]bool, nv),
	}
}

func (s *Simulator) getWordScratch() *wordScratch   { return s.wordScratches.Get().(*wordScratch) }
func (s *Simulator) putWordScratch(ws *wordScratch) { s.wordScratches.Put(ws) }

// touch records valve v in the overlay reset list exactly once.
//
//fpva:allocfree
func (ws *wordScratch) touch(v grid.ValveID) {
	if !ws.mark[v] {
		ws.mark[v] = true
		ws.touched = append(ws.touched, int32(v))
	}
}

// loadWord precomputes the word's fault overlay from up to 64 per-lane
// fault lists. The per-fault kind guards run here once per word instead of
// once per (vector, lane, fault); the per-vector application in sweepWord
// is then pure word arithmetic. The overlay encodes the scalar applyFaults
// semantics — leakage first, stuck-at overriding leakage — keep the two in
// lockstep. (For the contradictory input of stuck-at-0 and stuck-at-1 on
// one valve in one set, which no generator produces, stuck-at-1 wins.)
//
//fpva:allocfree
func (s *Simulator) loadWord(ws *wordScratch, faultsPerLane [][]Fault) {
	for _, v := range ws.touched {
		ws.sa0[v], ws.sa1[v], ws.laneBits[v] = 0, 0, 0
		ws.mark[v] = false
	}
	ws.touched = ws.touched[:0]
	ws.leaks = ws.leaks[:0]
	for k, faults := range faultsPerLane {
		bit := uint64(1) << k
		for _, f := range faults {
			switch f.Kind {
			case StuckAt0:
				if s.isNormal[f.A] {
					ws.sa0[f.A] |= bit
					ws.laneBits[f.A] |= bit
					ws.touch(f.A)
				}
			case StuckAt1:
				if s.isNormal[f.A] {
					ws.sa1[f.A] |= bit
					ws.laneBits[f.A] |= bit
					ws.touch(f.A)
				}
			case ControlLeak:
				// Channel and PortOpen edges have no control channel to
				// couple; the scalar branch skips them identically.
				if s.isNormal[f.A] && s.isNormal[f.B] {
					ws.leaks = append(ws.leaks, wordLeak{f.A, f.B, bit})
					ws.laneBits[f.A] |= bit
					ws.laneBits[f.B] |= bit
					ws.touch(f.A)
					ws.touch(f.B)
				}
			}
		}
	}
}

// sweepWord evaluates up to 64 fault universes (one per lane of
// faultsPerLane, lane k active when bit k of active is set) against the
// compiled vectors and writes, per lane, the index of the first detecting
// vector into ws.firstIdx (-1 when no vector detects). The sweep stops as
// soon as every active lane has detected, so per-lane work matches the
// first-detection early exit of the scalar detectingVector.
//
//fpva:allocfree
func (cv *CompiledVectors) sweepWord(ws *wordScratch, faultsPerLane [][]Fault, active uint64) {
	s := cv.s
	s.loadWord(ws, faultsPerLane)
	for k := range ws.firstIdx {
		ws.firstIdx[k] = -1
	}
	pending := active
	ws.alive = append(ws.alive[:0], ws.touched...)
	for i, vec := range cv.vecs {
		if pending == 0 {
			return
		}
		// Overlay the word's fault masks on the faulty valves of vector i's
		// cached fault-free state. Only valves on the alive list — those
		// with a pending faulty lane — participate (a valve's effect is
		// confined to its laneBits), so the per-vector work shrinks as
		// lanes detect. Without leak couplings the overlay is computed
		// straight from the cached base words; leak faults first restore
		// and adjust eff per valve, never wholesale — stale words on dead
		// valves are not read for pending lanes.
		base := cv.baseWords[i]
		eff := ws.eff
		detC := cv.detClosure[i]
		detO := cv.detOpen[i]
		leaky := len(ws.leaks) > 0
		if leaky {
			for _, v := range ws.alive {
				eff[v] = base[v]
			}
			for _, lk := range ws.leaks {
				if lk.mask&pending != 0 && (!vec.open[lk.a] || !vec.open[lk.b]) {
					eff[lk.a] &^= lk.mask
					eff[lk.b] &^= lk.mask
				}
			}
		}
		var changed, closedAny, closedMulti, addAny, addMulti, sureC, sureA uint64
		for _, v := range ws.alive {
			src := base[v]
			if leaky {
				src = eff[v]
			}
			w := (src &^ ws.sa0[v]) | ws.sa1[v]
			eff[v] = w
			clo := base[v] &^ w
			add := w &^ base[v]
			changed |= clo | add
			closedMulti |= closedAny & clo
			closedAny |= clo
			addMulti |= addAny & add
			addAny |= add
			if clo != 0 && (detC[v>>6]>>(uint(v)&63))&1 != 0 {
				sureC |= clo
			}
			if add != 0 && (detO[v>>6]>>(uint(v)&63))&1 != 0 {
				sureA |= add
			}
		}
		// Lanes whose physical state equals the fault-free one reproduce
		// the golden readings by construction, and lanes that already
		// detected need no answer.
		m := changed & pending
		if m == 0 {
			continue
		}
		// Closing a valve only ever removes reachability and opening one
		// only ever adds it, so the single-flip tables settle most lanes
		// without propagation: a lane that only closes valves is certainly
		// detected if any one of its closures alone changes the readings
		// (closing more can only lose further pressure), and certainly
		// missed if its single closure is unmarked; the same holds,
		// mirrored, for lanes that only open valves. A lane that closes
		// one unmarked valve AND opens one unmarked valve is also certainly
		// missed: its sink readings are sandwiched between the closure-only
		// and open-only universes, both of which equal the golden ones.
		// Only the remaining lanes genuinely need pressure propagation.
		cOnly := closedAny &^ addAny
		aOnly := addAny &^ closedAny
		singleC := closedAny &^ closedMulti &^ sureC
		singleA := addAny &^ addMulti &^ sureA
		sure := (sureC&cOnly | sureA&aOnly) & m
		undet := (singleC&^addAny | singleA&^closedAny | singleC&singleA) & m
		diff := sure
		mProp := m &^ sure &^ undet
		if mProp != 0 {
			// Split the residual lanes by how their network differs from
			// the fault-free one. Lanes that only OPEN extra valves (mAdd)
			// start from the exact base reachability and grow incrementally
			// from the newly opened edges — usually the fixpoint doesn't
			// spread at all. Lanes that close any open valve (mRem) can
			// lose reachability and recompute from the sources.
			mRem := closedAny & mProp
			mAdd := mProp &^ mRem
			reach := ws.reach
			if mAdd != 0 {
				br := cv.baseReach[i]
				for n := range reach {
					reach[n] = br[n] & mAdd
				}
			} else {
				for n := range reach {
					reach[n] = 0
				}
			}
			ws.starts = ws.starts[:0]
			if mRem != 0 {
				for _, sn := range s.srcNodes {
					reach[sn] |= mRem
					ws.starts = append(ws.starts, sn)
				}
			}
			if mAdd != 0 {
				for _, v := range ws.alive {
					if (eff[v]&^base[v])&mAdd != 0 {
						ws.starts = append(ws.starts, s.valveEnds[v]...)
					}
				}
			}
			// Patch only the faulted valves with a propagating lane over the
			// cached fault-free edge words: a dead valve is fault-free in
			// every mProp lane, and lanes outside mProp never propagate
			// (their reach seeds are zero), so stale bits there are harmless.
			copy(ws.edgeEff, cv.edgeWords[i])
			for _, v := range ws.alive {
				if ws.laneBits[v]&mProp == 0 {
					continue
				}
				w := eff[v]
				for _, e := range s.valveEdges[v] {
					ws.edgeEff[e] = w
				}
			}
			reach = s.g.RelaxWordsInto(reach, ws.queue, ws.inq, ws.starts, ws.edgeEff)
			golden := cv.golden[i]
			for j, snk := range s.sinkNodes {
				g := uint64(0)
				if golden[j] {
					g = ^uint64(0)
				}
				diff |= (reach[snk] ^ g) & mProp
			}
		}
		if diff != 0 {
			for t := diff; t != 0; t &= t - 1 {
				ws.firstIdx[bits.TrailingZeros64(t)] = int32(i)
			}
			pending &^= diff
			na := ws.alive[:0]
			for _, v := range ws.alive {
				if ws.laneBits[v]&pending != 0 {
					na = append(na, v)
				}
			}
			ws.alive = na
		}
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
