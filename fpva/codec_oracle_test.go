package fpva

// This file keeps the encoding/json implementation of the plan envelope,
// exactly as it stood before the single-pass codec in plancodec.go replaced
// it, as the reference the codec is tested against: for every input the
// codec must give the same success or failure, the same sentinel error and
// the same re-encoded bytes. Only the identifiers are renamed (an oracle
// prefix, and oraclePlan standing in for Plan so the methods can coexist).

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/leakage"
	"repro/internal/sim"
)

// oraclePlan carries the encoding/json MarshalJSON and UnmarshalJSON.
type oraclePlan Plan

// oracleEncodePlan writes the plan to w in the versioned JSON wire format.
func oracleEncodePlan(w io.Writer, p *Plan) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode((*oraclePlan)(p))
}

// oracleDecodePlan reads a plan in the versioned JSON wire format.
func oracleDecodePlan(r io.Reader) (*Plan, error) {
	var p oraclePlan
	if err := decodeOne(r, &p, "decode plan"); err != nil {
		return nil, err
	}
	return (*Plan)(&p), nil
}

// oracleUnmarshalPlan calls the reference UnmarshalJSON on a fresh plan.
func oracleUnmarshalPlan(data []byte) (*Plan, error) {
	var p oraclePlan
	if err := p.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return (*Plan)(&p), nil
}

func oracleVectorsToJSON(vecs []*sim.Vector) []vectorJSON {
	out := make([]vectorJSON, len(vecs))
	for i, v := range vecs {
		vj := vectorJSON{Name: v.Name, Kind: v.Kind.String(), Open: []int{}}
		for _, id := range v.OpenValves() {
			vj.Open = append(vj.Open, int(id))
		}
		out[i] = vj
	}
	return out
}

func oracleVectorsFromJSON(g *grid.Array, vjs []vectorJSON) ([]*sim.Vector, error) {
	kinds := map[string]sim.VectorKind{
		sim.FlowPath.String(): sim.FlowPath,
		sim.CutSet.String():   sim.CutSet,
		sim.Leakage.String():  sim.Leakage,
		"custom":              sim.Custom,
	}
	out := make([]*sim.Vector, len(vjs))
	for i, vj := range vjs {
		kind, ok := kinds[vj.Kind]
		if !ok {
			return nil, fmt.Errorf("fpva: %w: vector %q has unknown kind %q",
				ErrWirePayload, vj.Name, vj.Kind)
		}
		v := sim.NewVector(g, kind, vj.Name)
		for _, id := range vj.Open {
			if id < 0 || id >= g.NumValves() {
				return nil, fmt.Errorf("fpva: %w: vector %q opens valve %d outside [0,%d)",
					ErrWirePayload, vj.Name, id, g.NumValves())
			}
			v.SetOpen(grid.ValveID(id), true)
		}
		out[i] = v
	}
	return out, nil
}

func oracleIdsToInts(ids []grid.ValveID) []int {
	if len(ids) == 0 {
		return nil
	}
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

func oracleIntsToIDs(g *grid.Array, ints []int) ([]grid.ValveID, error) {
	if len(ints) == 0 {
		return nil, nil
	}
	out := make([]grid.ValveID, len(ints))
	for i, id := range ints {
		if id < 0 || id >= g.NumValves() {
			return nil, fmt.Errorf("fpva: %w: valve id %d outside [0,%d)",
				ErrWirePayload, id, g.NumValves())
		}
		out[i] = grid.ValveID(id)
	}
	return out, nil
}

// MarshalJSON renders the plan in the versioned JSON wire format.
func (p *oraclePlan) MarshalJSON() ([]byte, error) {
	s := p.ts.Stats
	env := planEnvelope{
		Format:        PlanFormat,
		Version:       CodecVersion,
		Array:         grid.Marshal(p.a.g),
		PathVectors:   oracleVectorsToJSON(p.ts.PathVectors),
		CutVectors:    oracleVectorsToJSON(p.ts.CutVectors),
		LeakVectors:   oracleVectorsToJSON(p.ts.LeakVectors),
		UncoveredPath: oracleIdsToInts(p.ts.UncoveredPath),
		UncoveredCut:  oracleIdsToInts(p.ts.UncoveredCut),
		Stats: statsJSON{
			NV: s.NV, NP: s.NP, NC: s.NC, NL: s.NL, N: s.N,
			TPNanos: s.TP.Nanoseconds(), TCNanos: s.TC.Nanoseconds(),
			TLNanos: s.TL.Nanoseconds(), TNanos: s.T.Nanoseconds(),
			PathILPNonOptimal: s.PathILPNonOptimal,
			CutILPNonOptimal:  s.CutILPNonOptimal,
			ILPSolves:         s.ILPSolves,
			ILPNodes:          s.ILPNodes,
			SolverWallNanos:   s.SolverWall.Nanoseconds(),
		},
	}
	for _, lp := range p.ts.LeakPairs {
		env.LeakPairs = append(env.LeakPairs, [2]int{int(lp[0]), int(lp[1])})
	}
	return json.Marshal(env)
}

// UnmarshalJSON decodes a plan from the versioned JSON wire format. The
// decoded plan supports campaigns, verification and re-encoding; it does
// not carry path/cut geometry, so rendering methods report an error.
func (p *oraclePlan) UnmarshalJSON(data []byte) error {
	var env planEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("fpva: decode plan: %w: %v", ErrWireSyntax, err)
	}
	if err := checkEnvelope(env.Format, PlanFormat, env.Version); err != nil {
		return err
	}
	g, err := grid.Parse(strings.NewReader(env.Array))
	if err != nil {
		return fmt.Errorf("fpva: decode plan: %w: %v", ErrWirePayload, err)
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("fpva: decode plan: %w: %v", ErrWirePayload, err)
	}
	ts := &core.TestSet{Array: g}
	if ts.PathVectors, err = oracleVectorsFromJSON(g, env.PathVectors); err != nil {
		return err
	}
	if ts.CutVectors, err = oracleVectorsFromJSON(g, env.CutVectors); err != nil {
		return err
	}
	if ts.LeakVectors, err = oracleVectorsFromJSON(g, env.LeakVectors); err != nil {
		return err
	}
	for _, lp := range env.LeakPairs {
		ids, err := oracleIntsToIDs(g, []int{lp[0], lp[1]})
		if err != nil {
			return err
		}
		ts.LeakPairs = append(ts.LeakPairs, leakage.Pair{ids[0], ids[1]})
	}
	if ts.UncoveredPath, err = oracleIntsToIDs(g, env.UncoveredPath); err != nil {
		return err
	}
	if ts.UncoveredCut, err = oracleIntsToIDs(g, env.UncoveredCut); err != nil {
		return err
	}
	s := env.Stats
	ts.Stats = core.Stats{
		NV: s.NV, NP: s.NP, NC: s.NC, NL: s.NL, N: s.N,
		TP: duration(s.TPNanos), TC: duration(s.TCNanos),
		TL: duration(s.TLNanos), T: duration(s.TNanos),
		PathILPNonOptimal: s.PathILPNonOptimal,
		CutILPNonOptimal:  s.CutILPNonOptimal,
		ILPSolves:         s.ILPSolves,
		ILPNodes:          s.ILPNodes,
		SolverWall:        duration(s.SolverWallNanos),
	}
	p.a = &Array{g: g}
	p.ts = ts
	p.geometry = false
	return nil
}
