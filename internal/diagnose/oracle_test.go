package diagnose

// The greedy planner as it was before incremental refinement: every step
// re-partitions every block under every unprobed vector. It is kept only as
// the oracle the incremental planner must match step for step
// (planner_test.go). Verbatim apart from the two Session methods, which
// became functions with their own splitter.

import "context"

// oracleNextProbe is the old Session.NextProbe.
func oracleNextProbe(s *Session) int {
	if s.sg.Isolated(s.alive) {
		return -1
	}
	sp := splitter{nWords: s.sg.nWords}
	return s.sg.bestSplit([][]uint64{s.alive}, s.probed, &sp)
}

// oraclePlanProbes is the old Session.PlanProbes.
func oraclePlanProbes(ctx context.Context, s *Session, budget int) ([]ProbeStep, error) {
	sp := splitter{nWords: s.sg.nWords}
	probed := append([]bool(nil), s.probed...)
	blocks := [][]uint64{append([]uint64(nil), s.alive...)}
	var steps []ProbeStep
	for budget <= 0 || len(steps) < budget {
		if err := ctx.Err(); err != nil {
			return steps, err
		}
		v := s.sg.bestSplit(blocks, probed, &sp)
		if v < 0 {
			break
		}
		probed[v] = true
		blocks = s.sg.refine(blocks, v)
		maxSize, n := 0, 0
		for _, b := range blocks {
			if c := Count(b); c > 0 {
				n++
				if c > maxSize {
					maxSize = c
				}
			}
		}
		steps = append(steps, ProbeStep{Vector: v, WorstCase: maxSize, Classes: n})
	}
	return steps, nil
}

// splitter is the reusable mask scratch of partition refinement.
type splitter struct {
	nWords    int
	cur, next [][]uint64
	free      [][]uint64
}

func (sp *splitter) alloc(src []uint64) []uint64 {
	var m []uint64
	if n := len(sp.free); n > 0 {
		m, sp.free = sp.free[n-1], sp.free[:n-1]
	} else {
		m = make([]uint64, sp.nWords)
	}
	copy(m, src)
	return m
}

func (sp *splitter) release(m []uint64) { sp.free = append(sp.free, m) }

// bestSplit picks the unprobed vector that minimizes the largest block of
// the partition refined by its readings, tie-broken by lowest vector index;
// -1 when no unprobed vector splits any block.
func (sg *Signatures) bestSplit(blocks [][]uint64, probed []bool, sp *splitter) int {
	best, bestMax := -1, int(^uint(0)>>1)
	for v := 0; v < sg.Vectors(); v++ {
		if probed[v] {
			continue
		}
		maxSize, split := sg.refineScore(blocks, v, sp)
		if split && maxSize < bestMax {
			best, bestMax = v, maxSize
		}
	}
	return best
}

// refineScore computes the largest block of the partition refined by vector
// v's readings, and whether v splits any block at all.
func (sg *Signatures) refineScore(blocks [][]uint64, v int, sp *splitter) (int, bool) {
	maxSize, split := 0, false
	for _, b := range blocks {
		if c := Count(b); c <= 1 {
			if c > maxSize {
				maxSize = c
			}
			continue
		}
		sp.cur = append(sp.cur[:0], sp.alloc(b))
		for j := 0; j < sg.Sinks(); j++ {
			row := sg.m.Row(v, j)
			sp.next = sp.next[:0]
			for _, m := range sp.cur {
				m0 := sp.alloc(m)
				n1, n0 := 0, 0
				for w := range m {
					m[w] &= row[w]
					m0[w] &^= row[w]
					n1 += popcnt(m[w])
					n0 += popcnt(m0[w])
				}
				if n1 > 0 {
					sp.next = append(sp.next, m)
				} else {
					sp.release(m)
				}
				if n0 > 0 {
					sp.next = append(sp.next, m0)
				} else {
					sp.release(m0)
				}
			}
			sp.cur, sp.next = sp.next, sp.cur
		}
		if len(sp.cur) > 1 {
			split = true
		}
		for _, m := range sp.cur {
			if c := Count(m); c > maxSize {
				maxSize = c
			}
			sp.release(m)
		}
		sp.cur = sp.cur[:0]
	}
	return maxSize, split
}

// refine materializes the partition refinement of blocks by vector v.
func (sg *Signatures) refine(blocks [][]uint64, v int) [][]uint64 {
	cur := blocks
	for j := 0; j < sg.Sinks(); j++ {
		row := sg.m.Row(v, j)
		next := make([][]uint64, 0, len(cur)*2)
		for _, b := range cur {
			b1 := make([]uint64, len(b))
			b0 := make([]uint64, len(b))
			n1, n0 := 0, 0
			for w := range b {
				b1[w] = b[w] & row[w]
				b0[w] = b[w] &^ row[w]
				n1 += popcnt(b1[w])
				n0 += popcnt(b0[w])
			}
			if n1 > 0 {
				next = append(next, b1)
			}
			if n0 > 0 {
				next = append(next, b0)
			}
		}
		cur = next
	}
	return cur
}
