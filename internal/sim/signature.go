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
// it is both what the block engine produces without any bit transpose and
// what diagnosis narrowing consumes (one AND/ANDNOT per word intersects an
// observation with the whole candidate universe).
package sim

import (
	"context"
	"math/bits"
	"sync/atomic"
)

// ResponseMatrix holds the sink readings of a batch of fault sets under
// every compiled vector, bit-packed by fault set.
//
// Row r = vec*Sinks()+sink is a bitset over fault sets: bit k of word w of
// row r (rows[r*wordsPerRow+w]) is sink `sink`'s reading under vector
// `vec` for fault set w*64+k. Padding bits past the last set are zero.
type ResponseMatrix struct {
	nVec, nSink int
	wordsPerRow int
	rows        []uint64
}

func newResponseMatrix(cv *CompiledVectors, nSets int) *ResponseMatrix {
	nSink := len(cv.s.sinkNodes)
	wpr := (nSets + 63) / 64
	return &ResponseMatrix{
		nVec:        len(cv.vecs),
		nSink:       nSink,
		wordsPerRow: wpr,
		rows:        make([]uint64, len(cv.vecs)*nSink*wpr),
	}
}

// Vectors returns the number of vectors (the row-major dimension).
func (m *ResponseMatrix) Vectors() int { return m.nVec }

// Sinks returns the number of sinks per vector.
func (m *ResponseMatrix) Sinks() int { return m.nSink }

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

// Responses evaluates every fault set against every compiled vector and
// returns the full response matrix. Fault sets are packed into the block
// sweep's universes (set k in lane k%64 of word k/64 of block k/1024);
// blocks are sharded across workers (<= 0 means runtime.NumCPU()). The
// result is bit-identical for any worker count.
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
	nBlocks := (len(faultSets) + blockLanes - 1) / blockLanes
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
			cv.s.loadBlock(bs, faultSets[start:min(start+blockLanes, len(faultSets))])
			cv.responsesBlock(bs, m, b*blockWords)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// responsesBlock evaluates the loaded block against every vector and
// writes its readings into column words word0.. of the matrix. It shares
// the block sweep's overlay, classification and packed floods but never
// stops early: every lane needs its reading under every vector, not just
// its first detection.
//
// Per (vector, lane) the reading is resolved by the cheapest sufficient
// argument:
//
//   - unchanged physical state, or settled by a mask rule (classify) ->
//     the golden readings, no propagation;
//   - certainly detected with a single sink -> the inverted golden reading
//     (detection says the readings differ, and with one sink "differs"
//     determines the value);
//   - everything else -> a packed flood, 64 lanes of the block at a time.
//
//fpva:allocfree
func (cv *CompiledVectors) responsesBlock(bs *blockScratch, m *ResponseMatrix, word0 int) {
	s := cv.s
	oneSink := len(s.sinkNodes) == 1
	live := bs.live[:bs.nWords]
	for w := range live {
		live[w] = w
	}
	for i := range cv.vecs {
		golden := cv.golden[i]
		rowBase := i * m.nSink * m.wordsPerRow
		for _, w := range live {
			bw := &bs.words[w]
			sure := cv.classify(bs, bw, i, bw.active, !oneSink)
			var inv uint64
			if oneSink {
				inv = sure
			}
			gold := bw.active &^ bw.prop &^ inv
			for j := range s.sinkNodes {
				row := inv
				if golden[j] {
					row = gold
				}
				m.rows[rowBase+j*m.wordsPerRow+word0+w] = row
			}
		}
		bs.cursor = 0
		for cv.floodPack(bs, i, live) {
			for j, snk := range s.sinkNodes {
				for t := bs.reach[snk] & laneMask(bs.nPack); t != 0; t &= t - 1 {
					lane := bs.packLane[bits.TrailingZeros64(t)]
					m.rows[rowBase+j*m.wordsPerRow+word0+int(lane>>6)] |= 1 << (lane & 63)
				}
			}
		}
	}
}
