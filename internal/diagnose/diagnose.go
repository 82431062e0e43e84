// Package diagnose turns fault detection into fault localization: given the
// sink readings a technician actually observed, which candidate defects are
// still possible, and which test vector should be probed next to tell the
// survivors apart fastest?
//
// The engine is built on one table: the response matrix of the candidate
// universe (sim.CompiledVectors.Responses) — for every candidate fault and
// every plan vector, the expected sink readings, computed bit-parallel with
// the PPSFP block engine. Everything else is bitset arithmetic over that
// table:
//
//   - Narrow intersects an observation with the matrix row, shrinking the
//     ambiguity set by one AND per word;
//   - the greedy planner scores every unprobed vector by how evenly its
//     readings partition the survivors and probes the best one. An exact
//     ILP probe cover was tried and removed: it never needed fewer probes
//     on the Table I arrays and ran at least 70x slower
//     (EXPERIMENTS.md, "Probes-to-isolation");
//   - the static probe plan repeats that choice over a partition of the
//     survivors by incremental refinement: each block is scored once,
//     when it is created, and blocks no vector can split any more only
//     keep their size, as a floor. The re-partitioning planner it replaced
//     is the test oracle (oracle_test.go).
//
// Candidate 0 is always the fault-free universe, so "the chip is actually
// healthy" and "this fault is undetectable" fall out of the same machinery:
// an undetectable fault simply shares a signature class with candidate 0.
//
// Determinism contract: candidate order, ambiguity sets, and probe choices
// depend only on (compiled vectors, Options, observations) — never on
// worker count or map iteration order.
package diagnose

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/grid"
	"repro/internal/sim"
)

// Options parameterizes candidate enumeration and signature compilation.
type Options struct {
	// Workers shards the signature build; <= 0 means runtime.NumCPU().
	// The table is bit-identical for any worker count.
	Workers int
	// LeakPairs, when non-empty, adds a ControlLeak candidate per pair.
	LeakPairs [][2]grid.ValveID
	// MaxDoubles, when > 0, adds up to that many stuck-at double-fault
	// candidates, enumerated lexicographically over the single-fault list
	// (distinct valves only). Doubles blow up quadratically; the cap keeps
	// the table bounded.
	MaxDoubles int
}

// Candidates enumerates the deterministic candidate universe for an array:
// index 0 is the fault-free universe (nil), then every stuck-at single
// fault in sim.AllSingleFaults order, then one ControlLeak per LeakPairs
// entry, then up to MaxDoubles stuck-at pairs.
func Candidates(a *grid.Array, opt Options) [][]sim.Fault {
	singles := sim.AllSingleFaults(a)
	out := make([][]sim.Fault, 0, 1+len(singles)+len(opt.LeakPairs))
	out = append(out, nil)
	for _, f := range singles {
		out = append(out, []sim.Fault{f})
	}
	for _, p := range opt.LeakPairs {
		out = append(out, []sim.Fault{{Kind: sim.ControlLeak, A: p[0], B: p[1]}})
	}
	if opt.MaxDoubles > 0 {
		n := 0
	outer:
		for i := 0; i < len(singles); i++ {
			for j := i + 1; j < len(singles); j++ {
				if singles[i].A == singles[j].A {
					continue // contradictory or duplicate valve
				}
				out = append(out, []sim.Fault{singles[i], singles[j]})
				if n++; n >= opt.MaxDoubles {
					break outer
				}
			}
		}
	}
	return out
}

// Signatures is the compiled diagnosis table: the candidate universe plus
// its full response matrix, with signature-equality classes precomputed.
// Safe for concurrent use; sessions carry the mutable state.
type Signatures struct {
	cv    *sim.CompiledVectors
	cands [][]sim.Fault
	m     *sim.ResponseMatrix
	// classOf[c] is the smallest candidate index with a signature identical
	// to c's. Candidates in one class cannot be told apart by any vector of
	// the plan — they are the "provably indistinguishable" residue.
	classOf []int32
	nWords  int
}

// Compile builds the signature table for the compiled vectors under opt.
// The heavy part — one response matrix over the whole candidate universe —
// runs bit-parallel, 64 candidates per word.
func Compile(ctx context.Context, cv *sim.CompiledVectors, opt Options) (*Signatures, error) {
	cands := Candidates(cv.Simulator().Array(), opt)
	m, err := cv.Responses(ctx, cands, opt.Workers)
	if err != nil {
		return nil, err
	}
	sg := &Signatures{
		cv:     cv,
		cands:  cands,
		m:      m,
		nWords: (len(cands) + 63) / 64,
	}
	sg.buildClasses()
	return sg, nil
}

// buildClasses groups candidates by their full signature. The key is the
// packed column bits; iteration is in candidate order, so representatives
// are the smallest member and the result never depends on map order.
func (sg *Signatures) buildClasses() {
	nRows := sg.m.Vectors() * sg.m.Sinks()
	keyLen := (nRows + 7) / 8
	sg.classOf = make([]int32, len(sg.cands))
	reps := make(map[string]int32, len(sg.cands))
	key := make([]byte, keyLen)
	for c := range sg.cands {
		for i := range key {
			key[i] = 0
		}
		r := 0
		for v := 0; v < sg.m.Vectors(); v++ {
			for j := 0; j < sg.m.Sinks(); j++ {
				if sg.m.Reading(c, v, j) {
					key[r>>3] |= 1 << (uint(r) & 7)
				}
				r++
			}
		}
		if rep, ok := reps[string(key)]; ok {
			sg.classOf[c] = rep
		} else {
			reps[string(key)] = int32(c)
			sg.classOf[c] = int32(c)
		}
	}
}

// Vectors returns the number of plan vectors in the table.
func (sg *Signatures) Vectors() int { return sg.m.Vectors() }

// Sinks returns the number of sinks per vector.
func (sg *Signatures) Sinks() int { return sg.m.Sinks() }

// NumCandidates returns the size of the candidate universe (including the
// fault-free candidate 0).
func (sg *Signatures) NumCandidates() int { return len(sg.cands) }

// Candidate returns candidate c's fault list (nil for the fault-free
// candidate 0). The slice must not be modified.
func (sg *Signatures) Candidate(c int) []sim.Fault { return sg.cands[c] }

// Expected reports candidate c's expected reading of sink j under vector v.
//
//fpva:allocfree
func (sg *Signatures) Expected(c, v, j int) bool { return sg.m.Reading(c, v, j) }

// NewSet returns the full ambiguity set: a bitset with every candidate
// alive.
func (sg *Signatures) NewSet() []uint64 {
	set := make([]uint64, sg.nWords)
	for w := range set {
		set[w] = ^uint64(0)
	}
	if n := len(sg.cands) & 63; n != 0 {
		set[sg.nWords-1] = uint64(1)<<n - 1
	}
	return set
}

// Narrow removes from set every candidate whose expected readings under
// vector v differ from the observed ones. One AND (or ANDNOT) per word per
// sink — the whole universe narrows in a few hundred nanoseconds.
//
//fpva:allocfree
func (sg *Signatures) Narrow(set []uint64, v int, readings []bool) {
	for j, r := range readings {
		row := sg.m.Row(v, j)
		if r {
			for w := range set {
				set[w] &= row[w]
			}
		} else {
			for w := range set {
				set[w] &^= row[w]
			}
		}
	}
}

func popcnt(w uint64) int { return bits.OnesCount64(w) }

// Count returns the number of alive candidates in set.
//
//fpva:allocfree
func Count(set []uint64) int {
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

// Members returns the alive candidate indices, ascending.
func Members(set []uint64) []int {
	out := make([]int, 0, Count(set))
	for w, word := range set {
		for t := word; t != 0; t &= t - 1 {
			out = append(out, w*64+bits.TrailingZeros64(t))
		}
	}
	return out
}

// Classes partitions the alive candidates of set into signature-equality
// classes, each sorted ascending, ordered by their smallest member. Two
// alive candidates in different classes can always be separated by some
// not-yet-probed vector (they agree on every probed one — that is how they
// both survived); candidates in one class never can.
func (sg *Signatures) Classes(set []uint64) [][]int {
	members := Members(set)
	var classes [][]int
	idx := make(map[int32]int, 4)
	for _, c := range members {
		rep := sg.classOf[c]
		k, ok := idx[rep]
		if !ok {
			k = len(classes)
			idx[rep] = k
			classes = append(classes, nil)
		}
		classes[k] = append(classes[k], c)
	}
	return classes
}

// Isolated reports whether set is down to at most one signature class —
// no further probe can shrink it.
func (sg *Signatures) Isolated(set []uint64) bool {
	rep := int32(-1)
	for w, word := range set {
		for t := word; t != 0; t &= t - 1 {
			c := w*64 + bits.TrailingZeros64(t)
			if rep < 0 {
				rep = sg.classOf[c]
			} else if sg.classOf[c] != rep {
				return false
			}
		}
	}
	return true
}

// checkObservation validates an observation against the table shape.
func (sg *Signatures) checkObservation(v int, readings []bool) error {
	if v < 0 || v >= sg.m.Vectors() {
		return fmt.Errorf("diagnose: observation names vector %d, plan has %d", v, sg.m.Vectors())
	}
	if len(readings) != sg.m.Sinks() {
		return fmt.Errorf("diagnose: observation for vector %d has %d readings, array has %d sinks", v, len(readings), sg.m.Sinks())
	}
	return nil
}
