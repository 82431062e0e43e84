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
	masks  []uint64 // scratch of halve: two masks per sink
}

// NewSession starts a session with every candidate alive and no vector
// probed.
func NewSession(sg *Signatures) *Session {
	return &Session{
		sg:     sg,
		alive:  sg.NewSet(),
		probed: make([]bool, sg.Vectors()),
		masks:  make([]uint64, 2*sg.Sinks()*sg.nWords),
	}
}

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

// AliveCount returns the size of the surviving ambiguity set.
func (s *Session) AliveCount() int { return Count(s.alive) }

// AliveSet returns a copy of the ambiguity bitset.
func (s *Session) AliveSet() []uint64 { return append([]uint64(nil), s.alive...) }

// Rounds returns the per-round narrowing stats, in observation order.
func (s *Session) Rounds() []Round { return s.rounds }

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
	lo, words := span(s.alive)
	size := Count(words)
	best, bestLargest := -1, size
	for v, done := range s.probed {
		if done {
			continue
		}
		if l := s.sg.largestPart(words, lo, size, v, 0, s.masks); l < bestLargest {
			best, bestLargest = v, l
		}
	}
	return best
}

// PlanProbes returns a static probe sequence for the current ambiguity set:
// vectors that, once all observed, pin the set down to single signature
// classes whatever the outcomes, ordered by best worst-case split. budget
// > 0 truncates the sequence.
//
// The plan refines a partition of the set one vector at a time, and scores
// each block once, when it is created: the largest part every unprobed
// vector would cut it into. A block that no unprobed vector can split is
// frozen, and only its size is kept, as a floor under every later worst
// case. A step reads the cached scores of the blocks still in play and
// scores the blocks its vector split; nothing else is re-partitioned.
func (s *Session) PlanProbes(ctx context.Context, budget int) ([]ProbeStep, error) {
	p := newPlanner(s)
	var steps []ProbeStep
	for budget <= 0 || len(steps) < budget {
		if err := ctx.Err(); err != nil {
			return steps, err
		}
		v := p.pick()
		if v < 0 {
			break
		}
		steps = append(steps, p.refine(v))
	}
	return steps, nil
}

// block is one cell of the partition PlanProbes refines: size members, with
// words holding the candidate bitset's words from lo on, and largest[v] the
// largest part vector v cuts it into (v splits it iff that is below size).
type block struct {
	lo, size int
	words    []uint64
	largest  []int32
}

// planner is the state of one PlanProbes call.
type planner struct {
	sg     *Signatures
	masks  []uint64
	probed []bool
	// live holds the blocks some unprobed vector can still split; frozen
	// counts the others, and floor is the largest of them.
	live, spare   []block
	frozen, floor int
	parts         []block
	// Per-vector scratch of pick.
	worst []int
	split []bool
}

// newPlanner starts a plan from the session's surviving set and probed
// vectors.
func newPlanner(s *Session) *planner {
	n := s.sg.Vectors()
	p := &planner{
		sg:     s.sg,
		masks:  s.masks,
		probed: append([]bool(nil), s.probed...),
		worst:  make([]int, n),
		split:  make([]bool, n),
	}
	lo, words := span(s.alive)
	if root := (block{lo: lo, size: Count(words), words: words}); p.score(&root, nil) {
		p.live = append(p.live, root)
	}
	return p
}

// pick returns the unprobed vector that leaves the smallest largest block,
// lowest index on ties; -1 when no unprobed vector splits a live block.
func (p *planner) pick() int {
	for v := range p.worst {
		p.worst[v], p.split[v] = p.floor, false
	}
	for _, b := range p.live {
		for v, l := range b.largest {
			if int(l) > p.worst[v] {
				p.worst[v] = int(l)
			}
			if int(l) < b.size {
				p.split[v] = true
			}
		}
	}
	best := -1
	for v, done := range p.probed {
		if !done && p.split[v] && (best < 0 || p.worst[v] < p.worst[best]) {
			best = v
		}
	}
	return best
}

// refine probes vector v: it cuts every live block v splits, scores the
// parts, and returns the step's worst case and class count. A block's parts
// are scored once it is cut through, as cut and score share the masks.
func (p *planner) refine(v int) ProbeStep {
	p.probed[v] = true
	next := p.spare[:0]
	for i := range p.live {
		b := &p.live[i]
		if int(b.largest[v]) == b.size {
			next = append(next, *b)
			continue
		}
		p.parts = p.parts[:0]
		p.cut(b.words, b.lo, b.size, v, 0)
		for _, part := range p.parts {
			if p.score(&part, b) {
				next = append(next, part)
			}
		}
	}
	p.live, p.spare = next, p.live
	worst := p.floor
	for _, b := range p.live {
		worst = max(worst, b.size)
	}
	return ProbeStep{Vector: v, WorstCase: worst, Classes: p.frozen + len(p.live)}
}

// cut appends to p.parts the non-empty parts that vector v's readings at
// sinks j.. cut the mask m (size members, words lo..) into, each trimmed to
// its own word span.
func (p *planner) cut(m []uint64, lo, size, v, j int) {
	if j == p.sg.Sinks() {
		first, words := span(m)
		p.parts = append(p.parts, block{lo: lo + first, size: size, words: append([]uint64(nil), words...)})
		return
	}
	m1, m0, n1 := p.sg.halve(m, lo, v, j, p.masks)
	if n1 > 0 {
		p.cut(m1, lo, n1, v, j+1)
	}
	if n1 < size {
		p.cut(m0, lo, size-n1, v, j+1)
	}
}

// score fills b.largest for every unprobed vector and reports whether one
// of them splits b; otherwise b is frozen. parent is the block b was cut
// from, nil for the root: a vector that left the parent whole leaves each
// of its parts whole, so only the parent's splitters are scored.
func (p *planner) score(b *block, parent *block) bool {
	if b.size >= 2 {
		b.largest = make([]int32, len(p.probed))
		live := false
		for v, done := range p.probed {
			if done {
				continue
			}
			l := b.size
			if parent == nil || int(parent.largest[v]) < parent.size {
				l = p.sg.largestPart(b.words, b.lo, b.size, v, 0, p.masks)
			}
			b.largest[v] = int32(l)
			live = live || l < b.size
		}
		if live {
			return true
		}
	}
	if b.size > 0 {
		p.frozen++
		p.floor = max(p.floor, b.size)
	}
	return false
}

// halve splits the mask m (words lo..) by vector v's reading at sink j:
// m1 holds the members that read pressure and m0 the rest, both in sink
// j's pair of scratch masks, and n1 counts m1.
func (sg *Signatures) halve(m []uint64, lo, v, j int, masks []uint64) (m1, m0 []uint64, n1 int) {
	row := sg.m.Row(v, j)[lo : lo+len(m)]
	k := 2 * j * sg.nWords
	m1 = masks[k : k+len(m)]
	m0 = masks[k+sg.nWords : k+sg.nWords+len(m)]
	for w, x := range m {
		m1[w], m0[w] = x&row[w], x&^row[w]
		n1 += popcnt(m1[w])
	}
	return m1, m0, n1
}

// largestPart returns the size of the largest part that vector v's
// readings at sinks j.. cut the mask m (size members, words lo..) into.
// Parts are materialized at every sink but the last, which only counts. A
// sink that leaves m whole is passed through, so only non-empty parts are
// visited: at most min(2^j, size) at sink j, as in cut.
func (sg *Signatures) largestPart(m []uint64, lo, size, v, j int, masks []uint64) int {
	if j == sg.Sinks()-1 {
		row := sg.m.Row(v, j)[lo : lo+len(m)]
		n1 := 0
		for w, x := range m {
			n1 += popcnt(x & row[w])
		}
		return max(n1, size-n1)
	}
	m1, m0, n1 := sg.halve(m, lo, v, j, masks)
	if n1 == 0 || n1 == size {
		return sg.largestPart(m, lo, size, v, j+1, masks)
	}
	return max(sg.largestPart(m1, lo, n1, v, j+1, masks), sg.largestPart(m0, lo, size-n1, v, j+1, masks))
}

// span trims set to the words from its first to its last non-zero one and
// returns the index of the first; an empty set gives no words.
func span(set []uint64) (int, []uint64) {
	first, last := 0, len(set)
	for first < last && set[first] == 0 {
		first++
	}
	for last > first && set[last-1] == 0 {
		last--
	}
	return first, set[first:last]
}
