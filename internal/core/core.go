// Package core is the top-level test-generation API: it combines the three
// vector families of the paper — flow paths (stuck-at-0), cut-sets
// (stuck-at-1) and control-leakage vectors — into one compact test set for
// an FPVA, and verifies the paper's detection guarantees against the fault
// simulator.
//
// Typical use:
//
//	a := grid.MustNewStandard(10, 10)
//	ts, err := core.Generate(ctx, a, core.Config{Hierarchical: true})
//	...
//	cv, err := ts.Compile()
//	...
//	res, err := cv.RunCampaign(ctx, sim.CampaignConfig{Trials: 10000, NumFaults: 2, Seed: 1})
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cutset"
	"repro/internal/flowpath"
	"repro/internal/grid"
	"repro/internal/leakage"
	"repro/internal/sim"
)

// Phase names one stage of the generation pipeline, for progress reporting.
type Phase int

const (
	// PhaseFlowPaths is the stuck-at-0 flow-path family (Sec. III-B).
	PhaseFlowPaths Phase = iota
	// PhaseCutSets is the stuck-at-1 cut-set family (Sec. III-C).
	PhaseCutSets
	// PhaseLeakage is the control-layer leakage family (the nl column).
	PhaseLeakage
)

func (p Phase) String() string {
	switch p {
	case PhaseFlowPaths:
		return "flow-paths"
	case PhaseCutSets:
		return "cut-sets"
	case PhaseLeakage:
		return "leakage"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Config selects generation strategy.
type Config struct {
	// Hierarchical enables the paper's 5x5 subblock decomposition
	// (Sec. III-B-4). BlockSize overrides the block edge (default 5).
	Hierarchical bool
	BlockSize    int
	// FlowPath / CutSet override the engine defaults for ablation studies.
	FlowPath flowpath.Options
	CutSet   cutset.Options
	// SkipLeakage omits the control-layer leakage vectors (the paper's
	// optional nl family).
	SkipLeakage bool
	// OnPhase, when non-nil, is called synchronously on the Generate
	// goroutine as each pipeline phase starts (done=false) and finishes
	// (done=true).
	OnPhase func(p Phase, done bool)
}

// Stats summarizes a generated test set in the shape of a Table I row.
type Stats struct {
	NV         int           // valves under test
	NP, NC, NL int           // vector counts per family
	N          int           // total vectors
	TP, TC, TL time.Duration // generation times per family
	T          time.Duration // total generation time
	// PathILPNonOptimal / CutILPNonOptimal count ILP solves cut short by the
	// node budget or a node's LP iteration cap: the accepted paths/cuts are
	// feasible, not proven optimal. Zero when the exact engines finished.
	PathILPNonOptimal, CutILPNonOptimal int
	// ILPSolves / ILPNodes / SolverWall aggregate the branch-and-bound
	// accounting across both ILP engines (zero when the combinatorial
	// engines served every family).
	ILPSolves, ILPNodes int
	SolverWall          time.Duration
}

func (s Stats) String() string {
	return fmt.Sprintf("nv=%d np=%d nc=%d nl=%d N=%d (tp=%v tc=%v tl=%v T=%v)",
		s.NV, s.NP, s.NC, s.NL, s.N, s.TP.Round(time.Microsecond),
		s.TC.Round(time.Microsecond), s.TL.Round(time.Microsecond),
		s.T.Round(time.Microsecond))
}

// TestSet is a complete generated test set for one array.
type TestSet struct {
	Array       *grid.Array
	Paths       []*flowpath.Path
	Cuts        []*cutset.Cut
	LeakPairs   []leakage.Pair
	PathVectors []*sim.Vector
	CutVectors  []*sim.Vector
	LeakVectors []*sim.Vector
	// UncoveredPath / UncoveredCut list valves the respective family could
	// not reach (only possible when obstacles wall a valve in).
	UncoveredPath []grid.ValveID
	UncoveredCut  []grid.ValveID
	Stats         Stats
}

// AllVectors returns the combined vector set in application order: paths,
// cuts, leakage.
func (ts *TestSet) AllVectors() []*sim.Vector {
	out := make([]*sim.Vector, 0, len(ts.PathVectors)+len(ts.CutVectors)+len(ts.LeakVectors))
	out = append(out, ts.PathVectors...)
	out = append(out, ts.CutVectors...)
	out = append(out, ts.LeakVectors...)
	return out
}

// Generate runs the full test-generation flow on the array. Cancelling ctx
// (nil means context.Background()) aborts the active phase promptly and
// returns an error wrapping ctx.Err().
func Generate(ctx context.Context, a *grid.Array, cfg Config) (*TestSet, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	phase := func(p Phase, done bool) {
		if cfg.OnPhase != nil {
			cfg.OnPhase(p, done)
		}
	}
	fpOpt := cfg.FlowPath
	if cfg.Hierarchical && fpOpt.StripRows == 0 && fpOpt.StripCols == 0 {
		bs := cfg.BlockSize
		if bs <= 0 {
			bs = 5
		}
		fpOpt.StripRows, fpOpt.StripCols = bs, bs
	}
	csOpt := cfg.CutSet
	ts := &TestSet{Array: a}
	ts.Stats.NV = a.NumNormal()

	phase(PhaseFlowPaths, false)
	t0 := time.Now()
	fp, err := flowpath.Generate(ctx, a, fpOpt)
	if err != nil {
		return nil, fmt.Errorf("core: flow paths: %w", err)
	}
	ts.Stats.TP = time.Since(t0)
	ts.Paths = fp.Paths
	ts.PathVectors = fp.Vectors(a)
	ts.UncoveredPath = fp.Uncovered
	ts.Stats.PathILPNonOptimal = fp.ILP.NonOptimal
	ts.Stats.ILPSolves += fp.ILP.Solves
	ts.Stats.ILPNodes += fp.ILP.Nodes
	ts.Stats.SolverWall += fp.ILP.Wall
	phase(PhaseFlowPaths, true)

	phase(PhaseCutSets, false)
	t0 = time.Now()
	cs, err := cutset.Generate(ctx, a, csOpt)
	if err != nil {
		return nil, fmt.Errorf("core: cut-sets: %w", err)
	}
	ts.Stats.TC = time.Since(t0)
	ts.Cuts = cs.Cuts
	ts.CutVectors = cs.Vectors(a)
	ts.UncoveredCut = cs.Uncovered
	ts.Stats.CutILPNonOptimal = cs.ILP.NonOptimal
	ts.Stats.ILPSolves += cs.ILP.Solves
	ts.Stats.ILPNodes += cs.ILP.Nodes
	ts.Stats.SolverWall += cs.ILP.Wall
	phase(PhaseCutSets, true)

	if !cfg.SkipLeakage {
		phase(PhaseLeakage, false)
		t0 = time.Now()
		lk, err := leakage.Generate(ctx, a, ts.PathVectors)
		if err != nil {
			return nil, fmt.Errorf("core: leakage: %w", err)
		}
		ts.Stats.TL = time.Since(t0)
		ts.LeakPairs = lk.Pairs
		ts.LeakVectors = lk.Vectors
		phase(PhaseLeakage, true)
	}
	ts.Stats.NP = len(ts.PathVectors)
	ts.Stats.NC = len(ts.CutVectors)
	ts.Stats.NL = len(ts.LeakVectors)
	ts.Stats.N = ts.Stats.NP + ts.Stats.NC + ts.Stats.NL
	ts.Stats.T = ts.Stats.TP + ts.Stats.TC + ts.Stats.TL
	return ts, nil
}

// Compile binds the full vector set to a fresh simulator with its
// fault-free behaviour precomputed. Campaigns and the verify sweeps below
// run against the result, so golden readings are computed exactly once per
// vector no matter how many trials or fault pairs are evaluated.
func (ts *TestSet) Compile() (*sim.CompiledVectors, error) {
	s, err := sim.New(ts.Array)
	if err != nil {
		return nil, err
	}
	return s.Compile(ts.AllVectors()), nil
}

// VerifySingleFaults exhaustively checks every stuck-at fault on every
// Normal valve against the compiled vector set and returns the undetected
// ones. On a fully covered array the result is empty — the paper's
// single-fault guarantee.
func VerifySingleFaults(ctx context.Context, cv *sim.CompiledVectors) ([]sim.Fault, error) {
	singles := sim.AllSingleFaults(cv.Simulator().Array())
	sets := make([][]sim.Fault, len(singles))
	for i := range singles {
		sets[i] = singles[i : i+1]
	}
	// On cancellation DetectsBatch trims its result to the evaluated prefix
	// and returns ctx.Err(); bailing out here means an unevaluated fault can
	// never be misreported as covered.
	det, err := cv.DetectsBatch(ctx, sets, 0)
	if err != nil {
		return nil, err
	}
	var escaped []sim.Fault
	for i, d := range det {
		if !d {
			escaped = append(escaped, singles[i])
		}
	}
	return escaped, nil
}

// VerifyDoubleFaults exhaustively checks every pair of stuck-at faults on
// distinct valves (the paper's two-fault guarantee, Sec. III-A/III-C)
// against the compiled vector set and returns undetected pairs. The pair
// sweep is sharded across all CPUs; cost is O(nv^2) simulations, intended
// for the small arrays. maxPairs > 0 truncates the scan for spot checks.
func VerifyDoubleFaults(ctx context.Context, cv *sim.CompiledVectors, maxPairs int) ([][2]sim.Fault, error) {
	singles := sim.AllSingleFaults(cv.Simulator().Array())
	// Stream the O(nv^2) pair space through fixed-size windows: each window
	// is evaluated in parallel, but only one window of pairs is ever held in
	// memory, and escape order stays the sequential scan order. Each fault
	// set is a slice of its pairs element, which stays put until the flush
	// because the window never outgrows its capacity.
	window := 4096
	if maxPairs > 0 {
		window = min(window, maxPairs)
	}
	pairs := make([][2]sim.Fault, 0, window)
	sets := make([][]sim.Fault, 0, window)
	var escaped [][2]sim.Fault
	flush := func() error {
		// As in VerifySingleFaults: a cancelled batch returns only the
		// evaluated prefix, and the error path discards the whole window.
		det, err := cv.DetectsBatch(ctx, sets, 0)
		if err != nil {
			return err
		}
		for i, d := range det {
			if !d {
				escaped = append(escaped, pairs[i])
			}
		}
		pairs, sets = pairs[:0], sets[:0]
		return nil
	}
	checked := 0
	for i, f1 := range singles {
		for _, f2 := range singles[i+1:] {
			if f1.A == f2.A {
				continue // contradictory faults on one valve
			}
			if maxPairs > 0 && checked >= maxPairs {
				if err := flush(); err != nil {
					return nil, err
				}
				return escaped, nil
			}
			checked++
			pairs = append(pairs, [2]sim.Fault{f1, f2})
			sets = append(sets, pairs[len(pairs)-1][:])
			if len(sets) == window {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return escaped, nil
}
