package flowpath

import (
	"context"
	"fmt"

	"repro/internal/grid"
	"repro/internal/ilp"
	"repro/internal/sim"
)

// Engine selects the flow-path construction algorithm.
type Engine int

const (
	// EngineAuto picks Serpentine — exact on regular arrays, patched on
	// irregular ones, and fast at every size in Table I.
	EngineAuto Engine = iota
	// EngineSerpentine is the strip-decomposition generator.
	EngineSerpentine
	// EngineILPIterative solves the paper's per-path ILP model repeatedly,
	// maximizing newly covered valves each round.
	EngineILPIterative
	// EngineILPMonolithic solves the paper's full model (7)-(8); intended
	// for small arrays.
	EngineILPMonolithic
)

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineSerpentine:
		return "serpentine"
	case EngineILPIterative:
		return "ilp-iterative"
	case EngineILPMonolithic:
		return "ilp-monolithic"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// monolithicMaxPaths caps np for the monolithic engine.
const monolithicMaxPaths = 8

// Options configures Generate.
type Options struct {
	Engine Engine
	// StripRows / StripCols bound the strip sizes of the serpentine engine.
	// Zero means direct mode (coarsest strips). The paper's hierarchical
	// evaluation corresponds to StripRows = StripCols = 5.
	StripRows, StripCols int
	// ILP tunes the branch-and-bound solver for the ILP engines.
	ILP ilp.Options
	// NoPatch disables the patching pass (exposes raw engine coverage).
	NoPatch bool
}

// Generate produces a flow-path set covering all Normal valves of the
// array. Valves that no source-to-sink path can reach (walled in by
// obstacles) are reported in Result.Uncovered. Cancelling ctx (nil means
// context.Background()) aborts the ILP engines between solver nodes and
// returns ctx.Err().
func Generate(ctx context.Context, a *grid.Array, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var paths []*Path
	var stats ilp.Stats
	var err error
	switch opt.Engine {
	case EngineAuto, EngineSerpentine:
		paths, err = serpentinePaths(a, opt.StripRows, opt.StripCols)
	case EngineILPIterative:
		paths, stats, err = ilpIterativePaths(ctx, a, opt.ILP)
	case EngineILPMonolithic:
		paths, stats, err = ilpMonolithicPaths(ctx, a, 1, monolithicMaxPaths, opt.ILP)
	default:
		return nil, fmt.Errorf("flowpath: unknown engine %v", opt.Engine)
	}
	if err != nil {
		return nil, err
	}
	s, err := sim.New(a)
	if err != nil {
		return nil, err
	}
	res := &Result{Paths: paths, ILP: stats}
	missing := uncoveredAfter(a, paths, s)
	if len(missing) > 0 && !opt.NoPatch {
		srcs, sinks := a.Sources(), a.Sinks()
		extra, impossible := patchPaths(a, s, srcs[0].Valve, sinks[0].Valve, missing)
		res.Paths = append(res.Paths, extra...)
		res.Uncovered = impossible
	} else {
		res.Uncovered = missing
	}
	return res, nil
}
