// Response-signature evaluation: the full per-sink readings of many fault
// universes against a compiled vector set, bit-parallel. Where DetectsBatch
// answers "is this universe distinguishable from fault-free at all?" and
// stops at the first detecting vector, Responses keeps going and records
// every (vector, sink) reading — the raw material of fault diagnosis, where
// two faults are told apart exactly by the vectors on which their readings
// differ.
//
// The matrix is laid out row-major by reading index and column-packed by
// fault set: row (vector i, sink j) is a bitset over fault sets. That is the
// transpose of the "signature per candidate" view, and it is deliberate —
// it is both what the word engine produces without any bit transpose and
// what diagnosis narrowing consumes (one AND/ANDNOT per word intersects an
// observation with the whole candidate universe).
package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ResponseMatrix holds the sink readings of a batch of fault sets under
// every compiled vector, bit-packed by fault set.
//
// Row r = vec*Sinks()+sink is a bitset over fault sets: bit k of word w of
// row r (rows[r*WordsPerRow()+w]) is sink `sink`'s reading under vector
// `vec` for fault set w*64+k. Padding bits past Sets() are zero.
type ResponseMatrix struct {
	nVec, nSink, nSets int
	wordsPerRow        int
	rows               []uint64
}

func newResponseMatrix(cv *CompiledVectors, nSets int) *ResponseMatrix {
	nSink := len(cv.s.sinkNodes)
	wpr := (nSets + 63) / 64
	return &ResponseMatrix{
		nVec:        len(cv.vecs),
		nSink:       nSink,
		nSets:       nSets,
		wordsPerRow: wpr,
		rows:        make([]uint64, len(cv.vecs)*nSink*wpr),
	}
}

// Vectors returns the number of vectors (the row-major dimension).
func (m *ResponseMatrix) Vectors() int { return m.nVec }

// Sinks returns the number of sinks per vector.
func (m *ResponseMatrix) Sinks() int { return m.nSink }

// Sets returns the number of fault sets (the bit-packed dimension).
func (m *ResponseMatrix) Sets() int { return m.nSets }

// WordsPerRow returns the number of uint64 words per (vector, sink) row.
func (m *ResponseMatrix) WordsPerRow() int { return m.wordsPerRow }

// Row returns the bitset of readings of (vec, sink) over all fault sets.
// The slice aliases the matrix and must not be modified.
//
//fpva:allocfree
func (m *ResponseMatrix) Row(vec, sink int) []uint64 {
	r := (vec*m.nSink + sink) * m.wordsPerRow
	return m.rows[r : r+m.wordsPerRow]
}

// Reading reports sink `sink`'s reading under vector vec for fault set
// `set`.
//
//fpva:allocfree
func (m *ResponseMatrix) Reading(set, vec, sink int) bool {
	r := (vec*m.nSink + sink) * m.wordsPerRow
	return m.rows[r+set>>6]>>(uint(set)&63)&1 != 0
}

// SameSignature reports whether fault sets a and b have identical readings
// on every (vector, sink) — i.e. no vector in the compiled set can ever
// tell them apart.
//
//fpva:allocfree
func (m *ResponseMatrix) SameSignature(a, b int) bool {
	wa, ba := a>>6, uint(a)&63
	wb, bb := b>>6, uint(b)&63
	for r := 0; r < m.nVec*m.nSink; r++ {
		row := m.rows[r*m.wordsPerRow:]
		if row[wa]>>ba&1 != row[wb]>>bb&1 {
			return false
		}
	}
	return true
}

// Responses evaluates every fault set against every compiled vector and
// returns the full response matrix. Fault sets are packed 64 to a word and
// evaluated bit-parallel; words are sharded across workers (<= 0 means
// runtime.NumCPU()). The result is bit-identical for any worker count.
//
// Cancelling ctx stops the sweep promptly; unlike DetectsBatch no partial
// matrix is returned — the result is nil together with ctx.Err().
func (cv *CompiledVectors) Responses(ctx context.Context, faultSets [][]Fault, workers int) (*ResponseMatrix, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := newResponseMatrix(cv, len(faultSets))
	if len(faultSets) == 0 {
		return m, nil
	}
	nWords := m.wordsPerRow
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > nWords {
		workers = nWords
	}
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
			cv.responsesWord(ws, faultSets[start:start+n], laneMask(n), m, w)
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
		return nil, err
	}
	return m, nil
}

// responsesWord evaluates up to 64 fault universes (lane k active when bit k
// of active is set) against every vector and writes their readings into
// column word of the matrix. It shares the sweepWord physics — the same
// overlay, the same monotonicity shortcuts — but never stops early: every
// lane needs its reading under every vector, not just its first detection.
//
// Per (vector, lane) the reading is resolved by the cheapest sufficient
// argument:
//
//   - unchanged physical state  -> golden readings, no propagation;
//   - certainly-missed (the sweepWord sandwich rule) -> golden readings;
//   - certainly-detected with a single sink -> the inverted golden reading
//     (detection says the readings differ, and with one sink "differs"
//     determines the value);
//   - everything else -> one masked word flood (removal lanes from the
//     sources, addition-only lanes incrementally from the cached fault-free
//     reachability).
//
//fpva:allocfree
func (cv *CompiledVectors) responsesWord(ws *wordScratch, faultsPerLane [][]Fault, active uint64, m *ResponseMatrix, word int) {
	s := cv.s
	s.loadWord(ws, faultsPerLane)
	oneSink := len(s.sinkNodes) == 1
	for i, vec := range cv.vecs {
		base := cv.baseWords[i]
		eff := ws.eff
		detC := cv.detClosure[i]
		detO := cv.detOpen[i]
		leaky := len(ws.leaks) > 0
		if leaky {
			for _, v := range ws.touched {
				eff[v] = base[v]
			}
			for _, lk := range ws.leaks {
				if !vec.open[lk.a] || !vec.open[lk.b] {
					eff[lk.a] &^= lk.mask
					eff[lk.b] &^= lk.mask
				}
			}
		}
		var changed, closedAny, closedMulti, addAny, addMulti, sureC, sureA uint64
		for _, v := range ws.touched {
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
		mCh := changed & active
		cOnly := closedAny &^ addAny
		aOnly := addAny &^ closedAny
		singleC := closedAny &^ closedMulti &^ sureC
		singleA := addAny &^ addMulti &^ sureA
		sure := (sureC&cOnly | sureA&aOnly) & mCh
		undet := (singleC&^addAny | singleA&^closedAny | singleC&singleA) & mCh
		// Lanes proven to reproduce the golden readings, lanes whose single
		// sink is proven inverted, and lanes that genuinely propagate.
		mGold := (active &^ mCh) | undet
		var mInv uint64
		mProp := mCh &^ undet
		if oneSink {
			mInv = sure
			mProp &^= sure
		}
		if mProp != 0 {
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
				for _, v := range ws.touched {
					if (eff[v]&^base[v])&mAdd != 0 {
						ws.starts = append(ws.starts, s.valveEnds[v]...)
					}
				}
			}
			copy(ws.edgeEff, cv.edgeWords[i])
			for _, v := range ws.touched {
				if ws.laneBits[v]&mProp == 0 {
					continue
				}
				w := eff[v]
				for _, e := range s.valveEdges[v] {
					ws.edgeEff[e] = w
				}
			}
			s.g.RelaxWordsInto(reach, ws.queue, ws.inq, ws.starts, ws.edgeEff)
		}
		golden := cv.golden[i]
		rowBase := (i * m.nSink) * m.wordsPerRow
		for j, snk := range s.sinkNodes {
			var row uint64
			if golden[j] {
				row |= mGold
			} else {
				row |= mInv
			}
			if mProp != 0 {
				row |= ws.reach[snk] & mProp
			}
			m.rows[rowBase+j*m.wordsPerRow+word] = row
		}
	}
}
