// Bit-parallel (PPSFP) fault evaluation: the classic parallel-pattern
// single-fault-propagation trick from the ATPG literature, adapted to the
// FPVA pressure model. Valve open/closed state for 64 independent fault
// universes is packed into one uint64 per valve (bit k = universe k), and a
// masked multi-source BFS (graph.RelaxWordsInto) propagates pressure for
// all 64 universes in a single pass.
//
// A sweep evaluates a block of blockWords words (1,024 universes). For each
// vector it first settles every pending lane of the block it can without
// propagation — by the single-flip lookup tables and the mask rules in
// classify — and then floods only the lanes still open, packed 64 to a
// word across the whole block (floodPack). A campaign therefore pays one
// graph traversal per 64 unsettled (vector, universe) pairs, not one per
// (vector, word) with any unsettled lane.
//
// Determinism: the block sweep evaluates exactly the same per-universe
// physics as the scalar simulator — loadWord precomputes, per lane, the
// same kind-guarded leak-then-stuck-at overlay applyFaults performs, every
// mask rule is exact, and lane j of a packed flood equals the boolean BFS
// under its universe's edge set — so first-detecting vector indices, and
// with them Detected, Sims and the escape list, are bit-identical to
// evaluating one universe at a time. The one-at-a-time campaign, batch and
// response references live in this package's test files as the
// differential oracle. Universe t of a sweep is lane t%64 of word t/64 of
// block t/1024; block boundaries are fixed, so which lanes share a flood
// never depends on scheduling. The final block is the remainder block;
// the unused lanes of its last word are masked out.
package sim

import (
	"math/bits"
	"sync"

	"repro/internal/grid"
)

// blockWords is the number of 64-lane words one sweep block holds, and
// blockLanes the number of universes: the unit a worker claims and the
// span across which a vector's unsettled lanes are packed into floods.
const (
	blockWords = 16
	blockLanes = blockWords * 64
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

// overlayRec is one faulted valve of one word: the lanes in which it is
// stuck at 0 / stuck at 1. A valve named only by control leaks has a
// record with no stuck-at lanes.
type overlayRec struct {
	v        int32
	sa0, sa1 uint64
}

// overlayLeak is one ControlLeak fault of the lanes in mask: actuating
// either valve closes both. a and b index the block's records.
type overlayLeak struct {
	a, b int32
	mask uint64
}

// blockWord is one word of a block: its active and still-undetected lanes,
// its range of the block's records (recs[recLo:recHi]) and leaks, and the
// lanes classify queued for a flood under the current vector (prop), of
// which rem must flood from the sources.
type blockWord struct {
	active, pending uint64
	seen            uint64 // pending when the records were last compacted
	recLo, recHi    int32
	leakLo, leakHi  int32
	prop, rem       uint64
}

// packSeg is the run of one word's lanes that a packed flood carries, at
// bits [off, off+popcount(lanes)) of the flood word.
type packSeg struct {
	w     int
	lanes uint64
	off   int
}

// blockScratch is the per-goroutine working set of a block sweep: the
// block's compact fault overlay (records and leaks per word), the flood
// buffers, and the per-lane first-detecting-vector result. Scratches cycle
// through blockScratches so the steady state allocates nothing.
type blockScratch struct {
	edgeEff []uint64 // per graph edge: conductance mask fed to the flood
	reach   []uint64 // per graph node: mask of lanes with pressure
	queue   []int
	inq     []bool
	starts  []int // propagation start nodes for the reachability fixpoint

	slot  []int32 // per valve: its record in the word being loaded, or -1
	recs  []overlayRec
	leaks []overlayLeak
	// leakEff holds, per record of a word with leaks, the record's faulty
	// state under the vector being classified (see eff).
	leakEff []uint64
	words   [blockWords]blockWord
	nWords  int
	live    [blockWords]int // words with pending lanes, ascending

	// The current packed flood: its segments and, per flood bit, the
	// block lane it carries (word*64 + lane).
	segs     [blockWords + 1]packSeg
	nSegs    int
	nPack    int // lanes the pack carries, at flood bits [0, nPack)
	packLane [64]int32
	cursor   int // index into the live words where the next pack starts

	firstIdx [blockLanes]int32
	floods   int
}

// blockScratches is shared by every simulator. A scratch's overlay is
// sized by the faults of a block rather than by the array, so one pool
// keeps about as many as there are sweeps running at once, however many
// arrays are compiled; getBlockScratch fits the array-sized buffers.
var blockScratches = sync.Pool{New: func() any { return new(blockScratch) }}

func (s *Simulator) getBlockScratch() *blockScratch {
	bs := blockScratches.Get().(*blockScratch)
	bs.edgeEff = fitLen(bs.edgeEff, s.g.M())
	bs.reach = fitLen(bs.reach, s.g.N())
	bs.queue = fitLen(bs.queue, s.g.N())
	bs.inq = fitLen(bs.inq, s.g.N())
	// slot is -1 outside loadWord, spare capacity included.
	if nv := s.arr.NumValves(); cap(bs.slot) < nv {
		bs.slot = make([]int32, nv)
		for v := range bs.slot {
			bs.slot[v] = -1
		}
	} else {
		bs.slot = bs.slot[:nv]
	}
	return bs
}

func (s *Simulator) putBlockScratch(bs *blockScratch) { blockScratches.Put(bs) }

// fitLen returns b resized to n, reallocated only when its capacity is
// short; callers initialize the contents they read.
func fitLen[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// reset empties the block overlay before a new block is loaded.
//
//fpva:allocfree
func (bs *blockScratch) reset() {
	bs.recs = bs.recs[:0]
	bs.leaks = bs.leaks[:0]
	bs.nWords = 0
	bs.floods = 0
}

// rec returns the index of valve v's record in the word being loaded,
// appending an empty one on first use.
//
//fpva:allocfree
func (bs *blockScratch) rec(v grid.ValveID) int32 {
	if r := bs.slot[v]; r >= 0 {
		return r
	}
	r := int32(len(bs.recs))
	bs.recs = append(bs.recs, overlayRec{v: int32(v)})
	bs.slot[v] = r
	return r
}

// loadWord appends one word to the block overlay: lane k carries the fault
// universe faultsPerLane[k] (at most 64 lanes). The per-fault kind guards
// run here once instead of once per (vector, lane, fault); classify is
// then pure word arithmetic. The overlay encodes the scalar applyFaults
// semantics — leakage first, stuck-at overriding leakage — keep the two in
// lockstep. (For the contradictory input of stuck-at-0 and stuck-at-1 on
// one valve in one set, which no generator produces, stuck-at-1 wins.)
//
//fpva:allocfree
func (s *Simulator) loadWord(bs *blockScratch, faultsPerLane [][]Fault) {
	bw := &bs.words[bs.nWords]
	bs.nWords++
	bw.recLo, bw.leakLo = int32(len(bs.recs)), int32(len(bs.leaks))
	for k, faults := range faultsPerLane {
		bit := uint64(1) << k
		for _, f := range faults {
			switch f.Kind {
			case StuckAt0:
				if s.isNormal[f.A] {
					r := bs.rec(f.A)
					bs.recs[r].sa0 |= bit
				}
			case StuckAt1:
				if s.isNormal[f.A] {
					r := bs.rec(f.A)
					bs.recs[r].sa1 |= bit
				}
			case ControlLeak:
				// Channel and PortOpen edges have no control channel to
				// couple; the scalar branch skips them identically.
				if s.isNormal[f.A] && s.isNormal[f.B] {
					a, b := bs.rec(f.A), bs.rec(f.B)
					bs.leaks = append(bs.leaks, overlayLeak{a, b, bit})
				}
			}
		}
	}
	bw.recHi, bw.leakHi = int32(len(bs.recs)), int32(len(bs.leaks))
	for _, rec := range bs.recs[bw.recLo:bw.recHi] {
		bs.slot[rec.v] = -1
	}
	for bw.leakHi > bw.leakLo && len(bs.leakEff) < len(bs.recs) {
		bs.leakEff = append(bs.leakEff, 0)
	}
	bw.active = laneMask(len(faultsPerLane))
	bw.pending, bw.seen = bw.active, bw.active
}

// eff returns record r's faulty state under the vector being classified,
// whose fault-free state is b: straight from the stuck-at masks, or, in a
// word with leaks, as classify left it in leakEff.
//
//fpva:allocfree
func (bs *blockScratch) eff(bw *blockWord, r int32, b uint64) uint64 {
	if bw.leakHi > bw.leakLo {
		return bs.leakEff[r]
	}
	return (b &^ bs.recs[r].sa0) | bs.recs[r].sa1
}

// classify overlays word bw's faults on vector i for the lanes in `lanes`
// and sorts those lanes without propagation where it can. It returns the
// lanes certain to be detected, and queues in bw.prop the lanes that need
// a flood (bw.rem: those of them that must flood from the sources).
// Lanes in neither read exactly the golden readings. With floodSure, the
// certainly detected lanes are queued too, for callers that need every
// reading rather than the verdict.
//
// Closing a valve only ever removes reachability and opening one only ever
// adds it, so the single-flip tables settle most lanes: a lane that only
// closes valves is certainly detected if any one of its closures alone
// changes the readings (closing more can only lose further pressure), and
// certainly missed if its single closure is unmarked; the same holds,
// mirrored, for lanes that only open valves. A lane that closes one
// unmarked valve AND opens one unmarked valve is also certainly missed:
// its sink readings are sandwiched between the closure-only and open-only
// universes, both of which equal the golden ones. Lanes these rules leave
// open go to widerRules before they are queued.
//
//fpva:allocfree
func (cv *CompiledVectors) classify(bs *blockScratch, bw *blockWord, i int, lanes uint64, floodSure bool) uint64 {
	vec := cv.vecs[i]
	base := cv.baseWords[i]
	detC, detO := cv.detClosure[i], cv.detOpen[i]
	recs := bs.recs[bw.recLo:bw.recHi]
	// Without leak couplings the overlay is computed straight from the
	// cached base words; leak faults first restore and adjust leakEff.
	leaky := bw.leakHi > bw.leakLo
	var leakEff []uint64
	if leaky {
		leakEff = bs.leakEff[bw.recLo:bw.recHi]
		for r := range recs {
			leakEff[r] = base[recs[r].v]
		}
		for _, lk := range bs.leaks[bw.leakLo:bw.leakHi] {
			if lk.mask&lanes != 0 && (!vec.open[bs.recs[lk.a].v] || !vec.open[bs.recs[lk.b].v]) {
				bs.leakEff[lk.a] &^= lk.mask
				bs.leakEff[lk.b] &^= lk.mask
			}
		}
	}
	var changed, closedAny, closedMulti, addAny, addMulti, sureC, sureA uint64
	for r := range recs {
		rec := &recs[r]
		b := base[rec.v]
		src := b
		if leaky {
			src = leakEff[r]
		}
		w := (src &^ rec.sa0) | rec.sa1
		if leaky {
			leakEff[r] = w
		}
		clo := b &^ w
		add := w &^ b
		changed |= clo | add
		closedMulti |= closedAny & clo
		closedAny |= clo
		addMulti |= addAny & add
		addAny |= add
		// -bit is all ones for a marked valve: no data-dependent branch.
		v := uint(rec.v)
		sureC |= clo & -(detC[v>>6] >> (v & 63) & 1)
		sureA |= add & -(detO[v>>6] >> (v & 63) & 1)
	}
	bw.prop, bw.rem = 0, 0
	// Lanes whose physical state equals the fault-free one reproduce the
	// golden readings by construction.
	m := changed & lanes
	if m == 0 {
		return 0
	}
	cOnly := closedAny &^ addAny
	aOnly := addAny &^ closedAny
	singleC := closedAny &^ closedMulti &^ sureC
	singleA := addAny &^ addMulti &^ sureA
	sure := (sureC&cOnly | sureA&aOnly) & m
	undet := (singleC&^addAny | singleA&^closedAny | singleC&singleA) & m
	open := m &^ undet
	if !floodSure {
		open &^= sure
	}
	if open != 0 {
		cv.widerRules(bs, bw, i, open, sureC, sureA)
	}
	return sure
}

// widerRules settles more of the open lanes by per-lane mask tests against
// vector i's fault-free pressurized region R (baseReach) and queues the
// rest in bw.prop / bw.rem. Each rule is exact, by the same monotonicity:
//
//   - Closures alone change nothing when none of the lane's closures has
//     an end in R: R stays closed and pressurized. (An open valve with one
//     end in R has both ends in it.)
//   - Openings alone change nothing when none of the lane's openings has
//     exactly one end in R: leaving R needs an enabled edge with exactly
//     one end in it, and the fault-free ones are all closed.
//   - On a vector whose sinks all read dark, closures alone change
//     nothing; on one whose sinks all read lit, openings alone change
//     nothing.
//   - Closures alone change nothing when exactly one closure has an end in
//     R and detClosure leaves it unmarked: the closures outside R touch
//     nothing that closure leaves pressurized. Mirrored, openings alone
//     change nothing when exactly one opening has fewer than two ends in R
//     and detOpen leaves it unmarked: openings with both ends in R add
//     nothing to a region that already holds R.
//   - If closures alone and openings alone each change nothing, the whole
//     lane changes nothing: its readings are sandwiched between the two.
//
// A queued lane floods incrementally from R (bw.rem clear) when none of its
// closures has an end in R — R is then pressurized in the faulty universe
// too, and only the opened valves' ends can spread it — and from the
// sources otherwise.
//
//fpva:allocfree
func (cv *CompiledVectors) widerRules(bs *blockScratch, bw *blockWord, i int, open, sureC, sureA uint64) {
	s := cv.s
	base := cv.baseWords[i]
	br := cv.baseReach[i]
	var cloR, cloRMulti, addNB, addNBMulti, addOne uint64
	for r := bw.recLo; r < bw.recHi; r++ {
		rec := &bs.recs[r]
		b := base[rec.v]
		eff := bs.eff(bw, r, b)
		clo := b &^ eff & open
		add := eff &^ b & open
		if clo|add == 0 {
			continue
		}
		anyEnd, bothEnds := uint64(0), ^uint64(0)
		for _, n := range s.valveEnds[rec.v] {
			anyEnd |= br[n]
			bothEnds &= br[n]
		}
		c := clo & anyEnd
		cloRMulti |= cloR & c
		cloR |= c
		nb := add &^ bothEnds
		addNBMulti |= addNB & nb
		addNB |= nb
		addOne |= nb & anyEnd
	}
	// Marked closures all have an end in R and marked openings exactly
	// one, so a lane with a single such valve and no mark has an unmarked
	// one.
	cNothing := ^cloR | cloR&^cloRMulti&^sureC
	aNothing := ^addOne | addNB&^addNBMulti&^sureA
	allDark, allLit := true, true
	for _, lit := range cv.golden[i] {
		allDark = allDark && !lit
		allLit = allLit && lit
	}
	if allDark {
		cNothing = ^uint64(0)
	}
	if allLit {
		aNothing = ^uint64(0)
	}
	bw.prop = open &^ (cNothing & aNothing)
	bw.rem = bw.prop & cloR
}

// floodPack gathers up to 64 queued lanes (bw.prop of the live words, from
// bs.cursor on) into one flood word, propagates it under vector i, and
// leaves the flood's reach in bs.reach, its segments in bs.segs and its
// lanes in bs.packLane. It consumes the lanes it packs from bw.prop and
// reports false, flooding nothing, when no lane is queued.
//
//fpva:allocfree
func (cv *CompiledVectors) floodPack(bs *blockScratch, i int, live []int) bool {
	s := cv.s
	base := cv.baseWords[i]
	bs.nSegs = 0
	n := 0
	var remP uint64
	for ; bs.cursor < len(live) && n < 64; bs.cursor++ {
		bw := &bs.words[live[bs.cursor]]
		take := bw.prop
		if take == 0 {
			continue
		}
		if bits.OnesCount64(take) > 64-n {
			// Keep the lowest 64-n lanes; the rest wait for the next pack.
			for k := 0; k < 64-n; k++ {
				take &= take - 1
			}
			take = bw.prop &^ take
		}
		bw.prop &^= take
		seg := packSeg{w: live[bs.cursor], lanes: take, off: n}
		for t := take; t != 0; t &= t - 1 {
			l := bits.TrailingZeros64(t)
			bs.packLane[n] = int32(seg.w*64 + l)
			if bw.rem>>l&1 != 0 {
				remP |= 1 << n
			}
			n++
		}
		bs.segs[bs.nSegs] = seg
		bs.nSegs++
		if bw.prop != 0 {
			break // the word's remaining lanes open the next pack
		}
	}
	bs.nPack = n
	if n == 0 {
		return false
	}
	addP := laneMask(n) &^ remP
	// Patch the packed lanes' faulted valves over the cached fault-free
	// edge words: flip bit j of a valve's edges where lane j's state
	// differs from the fault-free one. Add-only lanes grow from the opened
	// valves' ends.
	copy(bs.edgeEff, cv.edgeWords[i])
	bs.starts = bs.starts[:0]
	for _, seg := range bs.segs[:bs.nSegs] {
		bw := &bs.words[seg.w]
		segAdd := seg.lanes &^ bw.rem
		for r := bw.recLo; r < bw.recHi; r++ {
			rec := &bs.recs[r]
			b := base[rec.v]
			eff := bs.eff(bw, r, b)
			flips := (eff ^ b) & seg.lanes
			if flips == 0 {
				continue
			}
			var p uint64
			for t := flips; t != 0; t &= t - 1 {
				p |= 1 << (seg.off + bits.OnesCount64(seg.lanes&(t&-t-1)))
			}
			for _, e := range s.valveEdges[rec.v] {
				bs.edgeEff[e] ^= p
			}
			if eff&^b&segAdd != 0 {
				bs.starts = append(bs.starts, s.valveEnds[rec.v]...)
			}
		}
	}
	reach := bs.reach
	if addP != 0 {
		br := cv.baseReach[i]
		for v := range reach {
			reach[v] = br[v] & addP
		}
	} else {
		for v := range reach {
			reach[v] = 0
		}
	}
	if remP != 0 {
		for _, sn := range s.srcNodes {
			reach[sn] |= remP
			bs.starts = append(bs.starts, sn)
		}
	}
	s.g.RelaxWordsInto(reach, bs.queue, bs.inq, bs.starts, bs.edgeEff)
	bs.floods++
	return true
}

// packDiff returns the flood bits of the last pack whose sink readings
// differ from vector i's golden ones.
//
//fpva:allocfree
func (cv *CompiledVectors) packDiff(bs *blockScratch, i int) uint64 {
	var diff uint64
	golden := cv.golden[i]
	for j, snk := range cv.s.sinkNodes {
		g := uint64(0)
		if golden[j] {
			g = ^uint64(0)
		}
		diff |= bs.reach[snk] ^ g
	}
	return diff
}

// detect records vector i as the first detecting vector of the given
// lanes of word w.
//
//fpva:allocfree
func (bs *blockScratch) detect(w int, lanes uint64, i int) {
	for t := lanes; t != 0; t &= t - 1 {
		bs.firstIdx[w*64+bits.TrailingZeros64(t)] = int32(i)
	}
	bs.words[w].pending &^= lanes
}

// sweepBlock evaluates the loaded block against the compiled vectors in
// order and writes, per lane, the index of the first detecting vector into
// bs.firstIdx (-1 when no vector detects). A lane stops at its first
// detection, like the scalar detectingVector, and the sweep stops as soon
// as every lane has detected. It returns the number of floods it ran.
//
//fpva:allocfree
func (cv *CompiledVectors) sweepBlock(bs *blockScratch) int {
	live := bs.live[:0]
	for w := 0; w < bs.nWords; w++ {
		for k := 0; k < 64; k++ {
			bs.firstIdx[w*64+k] = -1
		}
		live = append(live, w)
	}
	for i := range cv.vecs {
		if len(live) == 0 {
			break
		}
		queued := false
		for _, w := range live {
			bw := &bs.words[w]
			if sure := cv.classify(bs, bw, i, bw.pending, false); sure != 0 {
				bs.detect(w, sure, i)
			}
			queued = queued || bw.prop != 0
		}
		if queued {
			bs.cursor = 0
			for cv.floodPack(bs, i, live) {
				for t := cv.packDiff(bs, i) & laneMask(bs.nPack); t != 0; t &= t - 1 {
					lane := bs.packLane[bits.TrailingZeros64(t)]
					bs.detect(int(lane>>6), uint64(1)<<(lane&63), i)
				}
			}
		}
		// Drop the words that finished and, in the others, the records
		// whose lanes have all detected, so the per-vector overlay work
		// shrinks as lanes resolve. Leaks name their records by index, so
		// a word with leaks keeps all of its records; a finished lane's
		// bits are masked out wherever a record is read.
		n := 0
		for _, w := range live {
			bw := &bs.words[w]
			if bw.pending == 0 {
				continue
			}
			if bw.pending != bw.seen && bw.leakHi == bw.leakLo {
				// Swap each dead record with the last one: the order of a
				// word's records does not matter, and only dead records
				// move.
				bw.seen = bw.pending
				recs := bs.recs[bw.recLo:bw.recHi]
				for k := 0; k < len(recs); {
					if (recs[k].sa0|recs[k].sa1)&bw.pending != 0 {
						k++
						continue
					}
					recs[k] = recs[len(recs)-1]
					recs = recs[:len(recs)-1]
				}
				bw.recHi = bw.recLo + int32(len(recs))
			}
			live[n] = w
			n++
		}
		live = live[:n]
	}
	return bs.floods
}
