// Session: the online Observe -> NextProbe loop, and the static probe-plan
// refinement both the one-shot Diagnose call and the closed-loop harness
// share. Both plan greedily: the next probe is the unprobed vector that
// most evenly splits the surviving ambiguity set (smallest largest block),
// tie-broken by lowest vector index.
package diagnose

import (
	"context"
)

// Round records one observation: which vector was probed and the ambiguity
// before and after narrowing.
type Round struct {
	Vector        int
	Before, After int
}

// ProbeStep is one entry of a static suggested probe sequence, with the
// worst-case ambiguity guarantee after observing the sequence so far:
// whatever the outcomes, at most WorstCase candidates (in Classes groups)
// remain possible.
type ProbeStep struct {
	Vector    int
	WorstCase int
	Classes   int
}

// Session is one adaptive diagnosis: an ambiguity set narrowed by
// observations as they arrive, re-planning the next probe each round. Not
// safe for concurrent use; the Signatures table it reads is.
type Session struct {
	sg     *Signatures
	alive  []uint64
	probed []bool
	rounds []Round
	sp     splitter
}

// NewSession starts a session with every candidate alive and no vector
// probed.
func NewSession(sg *Signatures) *Session {
	return &Session{
		sg:     sg,
		alive:  sg.NewSet(),
		probed: make([]bool, sg.Vectors()),
		sp:     splitter{nWords: sg.nWords},
	}
}

// Signatures returns the table the session narrows against.
func (s *Session) Signatures() *Signatures { return s.sg }

// Observe narrows the ambiguity set by one observation: vector v was
// applied and readings were seen at the sinks. Observing a vector twice is
// allowed (contradictory readings simply empty the set).
func (s *Session) Observe(v int, readings []bool) error {
	if err := s.sg.checkObservation(v, readings); err != nil {
		return err
	}
	before := Count(s.alive)
	s.sg.Narrow(s.alive, v, readings)
	s.probed[v] = true
	s.rounds = append(s.rounds, Round{Vector: v, Before: before, After: Count(s.alive)})
	return nil
}

// Alive returns the surviving candidate indices, ascending.
func (s *Session) Alive() []int { return Members(s.alive) }

// AliveCount returns the size of the surviving ambiguity set.
func (s *Session) AliveCount() int { return Count(s.alive) }

// AliveSet returns a copy of the ambiguity bitset.
func (s *Session) AliveSet() []uint64 { return append([]uint64(nil), s.alive...) }

// Rounds returns the per-round narrowing stats, in observation order.
func (s *Session) Rounds() []Round { return s.rounds }

// Probed reports whether vector v has been observed.
func (s *Session) Probed(v int) bool { return s.probed[v] }

// Done reports whether probing is over: the set is empty (inconsistent
// observations), a singleton, or one indistinguishable class.
func (s *Session) Done() bool { return s.sg.Isolated(s.alive) }

// NextProbe picks the vector to probe next, or -1 when no unprobed vector
// can shrink the surviving set further (isolated, indistinguishable, or
// inconsistent).
func (s *Session) NextProbe() int {
	if s.sg.Isolated(s.alive) {
		return -1
	}
	return s.sg.bestSplit([][]uint64{s.alive}, s.probed, &s.sp)
}

// PlanProbes returns a static probe sequence for the current ambiguity set:
// vectors that, once all observed, pin the set down to single signature
// classes whatever the outcomes, ordered by best worst-case split. budget
// > 0 truncates the sequence.
func (s *Session) PlanProbes(ctx context.Context, budget int) ([]ProbeStep, error) {
	probed := append([]bool(nil), s.probed...)
	blocks := [][]uint64{append([]uint64(nil), s.alive...)}
	var steps []ProbeStep
	for budget <= 0 || len(steps) < budget {
		if err := ctx.Err(); err != nil {
			return steps, err
		}
		v := s.sg.bestSplit(blocks, probed, &s.sp)
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
