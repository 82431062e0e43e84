package fpva

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cutset"
	"repro/internal/flowpath"
)

// Phase names one stage of the generation pipeline.
type Phase int

const (
	// PhaseFlowPaths generates the stuck-at-0 flow-path vectors.
	PhaseFlowPaths Phase = iota
	// PhaseCutSets generates the stuck-at-1 cut-set vectors.
	PhaseCutSets
	// PhaseLeakage generates the control-layer leakage vectors.
	PhaseLeakage
)

func (p Phase) String() string { return core.Phase(p).String() }

// EventKind labels a Progress event.
type EventKind int

const (
	// PhaseStarted fires when a generation phase begins.
	PhaseStarted EventKind = iota
	// PhaseFinished fires when a generation phase completes.
	PhaseFinished
	// CampaignTick fires while a campaign runs, carrying completed and
	// total trial counts.
	CampaignTick
	// DiagnoseTick fires once per diagnosis observation round, carrying the
	// round number and the surviving ambiguity count.
	DiagnoseTick
)

func (k EventKind) String() string {
	switch k {
	case PhaseStarted:
		return "phase-started"
	case PhaseFinished:
		return "phase-finished"
	case CampaignTick:
		return "campaign-tick"
	case DiagnoseTick:
		return "diagnose-tick"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one observation delivered to a Progress callback: a generation
// phase transition (PhaseStarted / PhaseFinished, Phase set), a campaign
// trial tick (CampaignTick, TrialsDone / TrialsTotal set), or a diagnosis
// narrowing round (DiagnoseTick, Round / Ambiguity set).
type Event struct {
	Kind        EventKind
	Phase       Phase
	TrialsDone  int
	TrialsTotal int
	Round       int
	Ambiguity   int
}

func (e Event) String() string {
	switch e.Kind {
	case PhaseStarted:
		return fmt.Sprintf("phase %v started", e.Phase)
	case PhaseFinished:
		return fmt.Sprintf("phase %v finished", e.Phase)
	case DiagnoseTick:
		return fmt.Sprintf("diagnose round %d: %d candidates", e.Round, e.Ambiguity)
	default:
		return fmt.Sprintf("campaign %d/%d trials", e.TrialsDone, e.TrialsTotal)
	}
}

// Progress observes pipeline activity. Callbacks must be fast and must not
// call back into the object that is reporting; campaign ticks may arrive
// from worker goroutines (serialized by an internal lock).
type Progress func(Event)

// PathEngine selects the flow-path construction algorithm.
type PathEngine int

const (
	// PathEngineAuto picks the serpentine strip decomposition — exact on
	// regular arrays, patched on irregular ones, fast at every Table I size.
	PathEngineAuto PathEngine = iota
	// PathEngineSerpentine names the generator PathEngineAuto picks.
	PathEngineSerpentine
	// PathEngineILPIterative solves the paper's per-path ILP model
	// repeatedly, maximizing newly covered valves each round.
	PathEngineILPIterative
	// PathEngineILPMonolithic solves the paper's full model (7)-(8).
	PathEngineILPMonolithic
)

// CutEngine selects the cut-set construction algorithm.
type CutEngine int

const (
	// CutEngineAuto uses straight-line cuts first and dual-path cuts for
	// whatever they miss.
	CutEngineAuto CutEngine = iota
	// CutEngineDual builds every cut as a forced-through dual path.
	CutEngineDual
	// CutEngineILP solves the paper's complementary ILP over the dual
	// graph, one cut at a time.
	CutEngineILP
)

// GenOption customizes Generate.
type GenOption func(*genConfig)

type genConfig struct {
	direct     bool
	blockSize  int
	workers    int
	skipLeak   bool
	pathEngine PathEngine
	cutEngine  CutEngine
	progress   Progress
}

// WithBlockSize overrides the hierarchical block edge length (default 5,
// the paper's evaluation setting).
func WithBlockSize(n int) GenOption { return func(c *genConfig) { c.blockSize = n } }

// WithDirectModel disables the hierarchical subblock decomposition and
// generates over the whole array at once.
func WithDirectModel() GenOption { return func(c *genConfig) { c.direct = true } }

// WithSolverWorkers sets the branch-and-bound worker pool for the ILP
// engines. Results are bit-identical for any worker count; <= 1 is serial.
func WithSolverWorkers(n int) GenOption { return func(c *genConfig) { c.workers = n } }

// WithPathEngine selects the flow-path construction algorithm.
func WithPathEngine(e PathEngine) GenOption { return func(c *genConfig) { c.pathEngine = e } }

// WithCutEngine selects the cut-set construction algorithm.
func WithCutEngine(e CutEngine) GenOption { return func(c *genConfig) { c.cutEngine = e } }

// WithoutLeakage omits the control-layer leakage vectors (the paper's
// optional nl family).
func WithoutLeakage() GenOption { return func(c *genConfig) { c.skipLeak = true } }

// WithProgress registers a callback observing generation phase transitions.
func WithProgress(p Progress) GenOption { return func(c *genConfig) { c.progress = p } }

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
	return core.Stats{
		NV: s.NV, NP: s.NP, NC: s.NC, NL: s.NL, N: s.N,
		TP: s.TP, TC: s.TC, TL: s.TL, T: s.T,
		PathILPNonOptimal: s.PathILPNonOptimal, CutILPNonOptimal: s.CutILPNonOptimal,
	}.String()
}

// coreConfig maps the public generation options onto the internal pipeline
// configuration, rejecting unknown engine selections. The progress callback
// is wired separately by the service (it fans events out per job).
func (c genConfig) coreConfig() (core.Config, error) {
	coreCfg := core.Config{
		Hierarchical: !c.direct,
		BlockSize:    c.blockSize,
		SkipLeakage:  c.skipLeak,
	}
	coreCfg.FlowPath.ILP.Workers = c.workers
	coreCfg.CutSet.ILP.Workers = c.workers
	switch c.pathEngine {
	case PathEngineAuto, PathEngineSerpentine: // one generator (see planKey)
		coreCfg.FlowPath.Engine = flowpath.EngineAuto
	case PathEngineILPIterative:
		coreCfg.FlowPath.Engine = flowpath.EngineILPIterative
	case PathEngineILPMonolithic:
		coreCfg.FlowPath.Engine = flowpath.EngineILPMonolithic
	default:
		return core.Config{}, fmt.Errorf("fpva: unknown path engine %d", int(c.pathEngine))
	}
	switch c.cutEngine {
	case CutEngineAuto:
		coreCfg.CutSet.Engine = cutset.EngineAuto
	case CutEngineDual:
		coreCfg.CutSet.Engine = cutset.EngineDual
	case CutEngineILP:
		coreCfg.CutSet.Engine = cutset.EngineILP
	default:
		return core.Config{}, fmt.Errorf("fpva: unknown cut engine %d", int(c.cutEngine))
	}
	return coreCfg, nil
}

// ParsePathEngine maps the command-line engine names ("auto", "serpentine",
// "ilp-iterative", "ilp-monolithic") to a PathEngine.
func ParsePathEngine(s string) (PathEngine, error) {
	switch s {
	case "auto":
		return PathEngineAuto, nil
	case "serpentine":
		return PathEngineSerpentine, nil
	case "ilp-iterative":
		return PathEngineILPIterative, nil
	case "ilp-monolithic":
		return PathEngineILPMonolithic, nil
	}
	return 0, fmt.Errorf("fpva: unknown path engine %q", s)
}

// ParseCutEngine maps the command-line engine names ("auto", "dual", "ilp")
// to a CutEngine.
func ParseCutEngine(s string) (CutEngine, error) {
	switch s {
	case "auto":
		return CutEngineAuto, nil
	case "dual":
		return CutEngineDual, nil
	case "ilp":
		return CutEngineILP, nil
	}
	return 0, fmt.Errorf("fpva: unknown cut engine %q", s)
}

// Generate runs the full test-generation flow — flow paths (stuck-at-0),
// cut-sets (stuck-at-1) and control-leakage vectors — and returns the
// resulting Plan. The default configuration matches the paper's evaluation:
// hierarchical 5x5 decomposition with the automatic engines.
//
// Generate is a thin wrapper over the process-wide DefaultService: a repeat
// call for a content-identical array and configuration is served from the
// plan cache (phase events replay instantly), and concurrent identical
// calls share one solve. The cache holds wire bytes, so a hit decodes
// them into a plan of its own, on a, which costs about a millisecond on a
// 15x15 array. Construct a private Service to opt out or to tune the cache
// and worker pool.
//
// Cancelling ctx aborts generation promptly (between ILP solver nodes for
// the exact engines) and returns an error wrapping ctx.Err().
func Generate(ctx context.Context, a *Array, opts ...GenOption) (*Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	svc := DefaultService()
	job, err := svc.SubmitGenerate(ctx, a, opts...)
	if err != nil {
		return nil, err
	}
	// The one-shot wrapper keeps no handle: drop the job from the service's
	// tracking so library callers do not accumulate state in the default
	// service. (If the job is not terminal yet — ctx canceled below — the
	// retention cap reaps it instead.)
	defer svc.Forget(job.ID())
	if err := job.Wait(ctx); err != nil {
		return nil, err
	}
	return job.Plan()
}

// BaselinePlan materializes the paper's Sec. IV comparison baseline: one
// dedicated flow-path vector (stuck-at-0 test) and one dedicated cut vector
// (stuck-at-1 test) per Normal valve — 2*nv vectors in total. The returned
// plan supports campaigns and serialization like a generated one.
func BaselinePlan(a *Array) (*Plan, error) {
	vecs, err := bench.BaselineVectors(a.g)
	if err != nil {
		return nil, err
	}
	ts := &core.TestSet{Array: a.g, PathVectors: vecs}
	ts.Stats.NV = a.g.NumNormal()
	ts.Stats.NP = len(vecs)
	ts.Stats.N = len(vecs)
	return &Plan{a: a, ts: ts}, nil
}
