package sim

// The one-universe-at-a-time reference implementations of the block
// engine's entry points: RunCampaign, DetectsBatch and Responses, plus
// Detects and DetectingVector, which recompute the golden readings on
// every call instead of compiling the vectors. They share the production
// simulator (detectingVector, applyFaults, readingsInto) and the
// per-trial seeding, and exist only as the oracle of the differential
// tests.

import (
	"context"
	"math/rand"
)

// runCampaignScalar evaluates one trial at a time, the differential
// reference for RunCampaign's block engine.
func (cv *CompiledVectors) runCampaignScalar(ctx context.Context, cfg CampaignConfig) (CampaignResult, error) {
	st := newCampaignState(cfg)
	normal := cv.s.arr.NormalValves()
	// Workers claim trial-index blocks from a shared counter. Each block is
	// big enough to amortize the contended add, small enough to balance load
	// at the tail (and to bound cancellation latency to one block).
	const block = 32
	worker := func() {
		sc := cv.s.getScratch()
		defer cv.s.putScratch(sc)
		rng := rand.New(&splitmix64{})
		fs := newFaultScratch(normal, cfg)
		var det, sims int64
		var local []escape
		for ctx.Err() == nil {
			start := int(st.next.Add(block)) - block
			if start >= cfg.Trials {
				break
			}
			end := start + block
			if end > cfg.Trials {
				end = cfg.Trials
			}
			for trial := start; trial < end; trial++ {
				rng.Seed(trialSeed(cfg.Seed, trial))
				faults := randomFaultsInto(rng, normal, cfg, fs)
				if idx := cv.detectingVector(sc, faults); idx >= 0 {
					det++
					sims += int64(idx) + 1
				} else {
					sims += int64(len(cv.vecs))
					if len(local) < st.maxEscapes {
						// A worker's trials ascend, so its first maxEscapes
						// escapes are a superset of its share of the global
						// ones. Escapes outlive the scratch: copy.
						local = append(local, escape{trial, append([]Fault(nil), faults...)})
					}
				}
			}
			st.completed.Add(int64(end - start))
			st.report()
		}
		st.merge(det, sims, 0, local)
	}
	return st.run(ctx, workerCount(cfg.Workers, cfg.Trials), worker)
}

// detectsBatchScalar is the one-universe-at-a-time reference implementation
// of DetectsBatch, kept for differential tests against the block engine.
func (cv *CompiledVectors) detectsBatchScalar(faultSets [][]Fault) []bool {
	sc := cv.s.getScratch()
	defer cv.s.putScratch(sc)
	out := make([]bool, len(faultSets))
	for i, fs := range faultSets {
		out[i] = cv.detectingVector(sc, fs) >= 0
	}
	return out
}

// responsesScalar is the one-universe-at-a-time reference implementation of
// Responses, kept for differential tests against the block engine.
func (cv *CompiledVectors) responsesScalar(faultSets [][]Fault) *ResponseMatrix {
	m := newResponseMatrix(cv, len(faultSets))
	sc := cv.s.getScratch()
	defer cv.s.putScratch(sc)
	for set, fs := range faultSets {
		w, bit := set>>6, uint64(1)<<(uint(set)&63)
		for i, vec := range cv.vecs {
			copy(sc.eff, cv.base[i])
			readings := cv.golden[i]
			if cv.s.applyFaults(sc.eff, vec, fs) {
				readings = cv.s.readingsInto(sc, sc.out)
			}
			rowBase := (i * m.nSink) * m.wordsPerRow
			for j, r := range readings {
				if r {
					m.rows[rowBase+j*m.wordsPerRow+w] |= bit
				}
			}
		}
	}
	return m
}

// Detects reports whether the vector set distinguishes the faulty chip from
// a fault-free one: some vector's sink readings differ. It is the
// uncompiled reference for CompiledVectors.Detects.
func (s *Simulator) Detects(vectors []*Vector, faults []Fault) bool {
	return s.DetectingVector(vectors, faults) >= 0
}

// DetectingVector returns the index of the first vector that exposes the
// fault set, or -1.
func (s *Simulator) DetectingVector(vectors []*Vector, faults []Fault) int {
	sc := s.getScratch()
	defer s.putScratch(sc)
	golden := make([]bool, len(s.sinkNodes))
	for i, vec := range vectors {
		s.effIntoBase(sc.eff, vec)
		s.readingsInto(sc, golden)
		if !s.applyFaults(sc.eff, vec, faults) {
			continue // faults do not change this vector's physical state
		}
		s.readingsInto(sc, sc.out)
		for j := range golden {
			if golden[j] != sc.out[j] {
				return i
			}
		}
	}
	return -1
}
