package fpva

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/render"
	"repro/internal/sim"
)

// Plan is a complete generated test set for one array: the three vector
// families plus generation statistics. Plans come from Generate,
// BaselinePlan or DecodePlan; they are immutable and safe for concurrent
// use once built.
//
// A plan decoded from JSON carries the vectors and statistics but not the
// path/cut geometry, so rendering methods report an error on it; campaigns
// and verification are bit-identical to the in-process plan.
type Plan struct {
	a  *Array
	ts *core.TestSet
	// geometry is true when ts carries Paths/Cuts (in-process generation),
	// false for decoded and baseline plans.
	geometry bool

	// mu guards compiled, the plan's own compiled vectors and signature
	// tables: built on first use, cleared by UnmarshalJSON, and never set
	// by the Service on a caller's plan (see Service.bind).
	mu       sync.Mutex
	compiled *compiled
}

// entry returns the plan's own compiled state, building it on first use.
func (p *Plan) entry() (*compiled, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.compiled == nil {
		e, err := compilePlan(p, "")
		if err != nil {
			return nil, err
		}
		p.compiled = e
	}
	return p.compiled, nil
}

// Array returns the array the plan was generated for.
func (p *Plan) Array() *Array { return p.a }

// Stats returns the generation statistics (Table I row shape).
func (p *Plan) Stats() Stats {
	s := p.ts.Stats
	return Stats{
		NV: s.NV, NP: s.NP, NC: s.NC, NL: s.NL, N: s.N,
		TP: s.TP, TC: s.TC, TL: s.TL, T: s.T,
		PathILPNonOptimal: s.PathILPNonOptimal, CutILPNonOptimal: s.CutILPNonOptimal,
		ILPSolves: s.ILPSolves, ILPNodes: s.ILPNodes, SolverWall: s.SolverWall,
	}
}

// NumVectors returns the total vector count.
func (p *Plan) NumVectors() int { return len(p.ts.AllVectors()) }

// VectorInfo describes one generated test vector.
type VectorInfo struct {
	Name string
	// Kind is "flow-path", "cut-set", "leakage" or "custom".
	Kind string
	// Open lists the valves commanded open, ascending.
	Open []Edge
}

// Vectors lists the plan's vectors in application order: flow paths, cuts,
// leakage.
func (p *Plan) Vectors() []VectorInfo {
	vecs := p.ts.AllVectors()
	out := make([]VectorInfo, len(vecs))
	for i, v := range vecs {
		out[i] = VectorInfo{
			Name: v.Name,
			Kind: v.Kind.String(),
			Open: edgesOf(p.a.g, v.OpenValves()),
		}
	}
	return out
}

// UncoveredPath lists valves the flow-path family could not reach (only
// possible when obstacles wall a valve in); a stuck-at-0 there is
// untestable.
func (p *Plan) UncoveredPath() []Edge { return edgesOf(p.a.g, p.ts.UncoveredPath) }

// UncoveredCut lists valves no valid cut could test; a stuck-at-1 there is
// untestable.
func (p *Plan) UncoveredCut() []Edge { return edgesOf(p.a.g, p.ts.UncoveredCut) }

// LeakPairs lists the control-leakage candidate pairs of the array under
// the raster routing model.
func (p *Plan) LeakPairs() [][2]Edge {
	out := make([][2]Edge, len(p.ts.LeakPairs))
	for i, lp := range p.ts.LeakPairs {
		out[i] = [2]Edge{edgeOf(p.a.g, lp[0]), edgeOf(p.a.g, lp[1])}
	}
	return out
}

// RenderPaths draws the flow paths over the array as an ASCII diagram. It
// errors on a plan without path geometry (decoded from JSON or baseline).
func (p *Plan) RenderPaths() (string, error) {
	if !p.geometry {
		return "", fmt.Errorf("fpva: plan has no path geometry (decoded or baseline plan)")
	}
	return render.Paths(p.a.g, p.ts.Paths), nil
}

// NumCuts returns the number of generated cut-sets (0 on decoded plans).
func (p *Plan) NumCuts() int { return len(p.ts.Cuts) }

// Cut returns the valve members of cut i.
func (p *Plan) Cut(i int) []Edge { return edgesOf(p.a.g, p.ts.Cuts[i].Valves) }

// RenderCut draws cut i over the array as an ASCII diagram. It errors on a
// plan without cut geometry.
func (p *Plan) RenderCut(i int) (string, error) {
	if !p.geometry || i < 0 || i >= len(p.ts.Cuts) {
		return "", fmt.Errorf("fpva: no cut geometry for cut %d", i)
	}
	return render.Cut(p.a.g, p.ts.Cuts[i]), nil
}

// CampaignOption customizes Plan.Campaign.
type CampaignOption func(*campaignConfig)

type campaignConfig struct {
	trials     int
	numFaults  int
	seed       int64
	workers    int
	maxEscapes int
	leaks      bool
	progress   Progress
}

// WithTrials sets the number of random fault injections (default 10000, the
// paper's setting).
func WithTrials(n int) CampaignOption { return func(c *campaignConfig) { c.trials = n } }

// WithNumFaults sets how many simultaneous faults each trial injects
// (default 2).
func WithNumFaults(k int) CampaignOption { return func(c *campaignConfig) { c.numFaults = k } }

// WithSeed sets the campaign RNG seed. For a fixed seed the result is
// bit-identical for any worker count.
func WithSeed(s int64) CampaignOption { return func(c *campaignConfig) { c.seed = s } }

// WithCampaignWorkers shards trials across n goroutines (default: all
// CPUs). The result does not depend on the worker count.
func WithCampaignWorkers(n int) CampaignOption { return func(c *campaignConfig) { c.workers = n } }

// WithMaxEscapes caps how many undetected fault sets the result records for
// diagnosis (default 16).
func WithMaxEscapes(n int) CampaignOption { return func(c *campaignConfig) { c.maxEscapes = n } }

// WithLeakFaults lets trials draw control-leakage faults from the plan's
// candidate pairs alongside stuck-at faults.
func WithLeakFaults() CampaignOption { return func(c *campaignConfig) { c.leaks = true } }

// WithCampaignProgress registers a callback receiving CampaignTick events
// with strictly increasing completed-trial counts, one per completed
// 1,024-trial block; a completed campaign always ends with a tick at
// (TrialsTotal, TrialsTotal).
func WithCampaignProgress(p Progress) CampaignOption {
	return func(c *campaignConfig) { c.progress = p }
}

// CampaignResult summarizes a fault-injection campaign.
type CampaignResult struct {
	Trials   int
	Detected int
	// Sims counts vector evaluations performed across all trials (a trial
	// stops at its first detecting vector). Like the rest of the result it
	// is bit-identical for any worker count.
	Sims int
	// Escapes holds up to MaxEscapes undetected fault sets (lowest trial
	// indices first).
	Escapes [][]Fault
}

// DetectionRate returns Detected/Trials.
func (r CampaignResult) DetectionRate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Trials)
}

// Campaign runs a random fault-injection campaign (the paper's Sec. IV
// study) against the plan's full vector set: each trial injects random
// faults and counts as detected when some vector's meter readings differ
// from the fault-free chip. For a fixed seed the result is bit-identical
// for any worker count, in-process or reloaded from JSON.
//
// Cancelling ctx drains the trial workers promptly and returns the partial
// result together with ctx.Err().
func (p *Plan) Campaign(ctx context.Context, opts ...CampaignOption) (CampaignResult, error) {
	cfg := campaignConfig{trials: 10000, numFaults: 2}
	for _, opt := range opts {
		opt(&cfg)
	}
	simCfg := sim.CampaignConfig{
		Trials:     cfg.trials,
		NumFaults:  cfg.numFaults,
		Seed:       cfg.seed,
		Workers:    cfg.workers,
		MaxEscapes: cfg.maxEscapes,
	}
	if cfg.leaks {
		for _, lp := range p.ts.LeakPairs {
			simCfg.LeakPairs = append(simCfg.LeakPairs, [2]grid.ValveID{lp[0], lp[1]})
		}
	}
	if cfg.progress != nil {
		prog := cfg.progress
		simCfg.OnTrials = func(done, total int) {
			prog(Event{Kind: CampaignTick, TrialsDone: done, TrialsTotal: total})
		}
	}
	e, err := p.entry()
	if err != nil {
		return CampaignResult{}, err
	}
	res, err := e.cv.RunCampaign(ctx, simCfg)
	out := CampaignResult{Trials: res.Trials, Detected: res.Detected, Sims: res.Sims}
	for _, esc := range res.Escapes {
		fs := make([]Fault, len(esc))
		for i, f := range esc {
			fs[i] = p.a.fromSimFault(f)
		}
		out.Escapes = append(out.Escapes, fs)
	}
	return out, err
}

// Detects reports whether the plan's vector set distinguishes a chip with
// the given faults from a fault-free one.
func (p *Plan) Detects(faults []Fault) (bool, error) {
	fs, err := p.a.toSimFaults(faults)
	if err != nil {
		return false, err
	}
	e, err := p.entry()
	if err != nil {
		return false, err
	}
	return e.cv.Detects(fs), nil
}

// VerifySingleFaults exhaustively checks every stuck-at fault on every
// Normal valve and returns the undetected ones. On a fully covered array
// the result is empty — the paper's single-fault guarantee.
func (p *Plan) VerifySingleFaults(ctx context.Context) ([]Fault, error) {
	e, err := p.entry()
	if err != nil {
		return nil, err
	}
	escaped, err := core.VerifySingleFaults(ctx, e.cv)
	if err != nil {
		return nil, err
	}
	out := make([]Fault, len(escaped))
	for i, f := range escaped {
		out[i] = p.a.fromSimFault(f)
	}
	return out, nil
}

// VerifyDoubleFaults exhaustively checks every pair of stuck-at faults on
// distinct valves (the paper's two-fault guarantee) and returns undetected
// pairs. Cost is O(nv^2) simulations; maxPairs > 0 truncates the scan for
// spot checks.
func (p *Plan) VerifyDoubleFaults(ctx context.Context, maxPairs int) ([][2]Fault, error) {
	e, err := p.entry()
	if err != nil {
		return nil, err
	}
	escaped, err := core.VerifyDoubleFaults(ctx, e.cv, maxPairs)
	if err != nil {
		return nil, err
	}
	out := make([][2]Fault, len(escaped))
	for i, pair := range escaped {
		out[i] = [2]Fault{p.a.fromSimFault(pair[0]), p.a.fromSimFault(pair[1])}
	}
	return out, nil
}

// Table1 reproduces the paper's Table I: it generates test sets for all
// five benchmark arrays and renders the measured-vs-paper comparison.
func Table1(ctx context.Context) (string, error) {
	return bench.Table1(ctx)
}
