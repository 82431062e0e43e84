package fpva

// Adaptive fault diagnosis: the public face of internal/diagnose. A
// Diagnosis answers "given the sink readings a technician observed, which
// defects are still possible, and what should be probed next"; a
// DiagnoseSession runs the same question as a closed loop, re-planning
// after every observation.

import (
	"context"

	"repro/internal/diagnose"
	"repro/internal/grid"
)

// Observation is one applied test vector together with the pressure
// readings seen at the sinks (in port attachment order, like
// Simulator.Readings). Vector indexes the plan's Vectors() order.
type Observation struct {
	Vector   int
	Readings []bool
}

// DiagnoseRound records how one observation narrowed the ambiguity set.
type DiagnoseRound struct {
	Vector int `json:"vector"`
	Before int `json:"before"`
	After  int `json:"after"`
}

// ProbeStep is one entry of a suggested probe sequence: after observing
// the sequence up to and including Vector, at most WorstCase candidates (in
// Classes signature groups) remain possible, whatever the outcomes.
type ProbeStep struct {
	Vector    int `json:"vector"`
	WorstCase int `json:"worstCase"`
	Classes   int `json:"classes"`
}

// Diagnosis is the outcome of Plan.Diagnose: the surviving candidate fault
// sets, their indistinguishability structure, and the suggested probes to
// narrow further. Values built by Diagnose or DecodeDiagnosis round-trip
// through the versioned JSON wire format.
type Diagnosis struct {
	a *Array

	// Consistent is false when the observations rule out every candidate —
	// the chip's defect is outside the modeled universe (or the readings
	// are wrong).
	Consistent bool
	// FaultFree reports whether the fault-free candidate survives: the
	// observations so far are consistent with a healthy chip.
	FaultFree bool
	// Isolated reports whether the surviving candidates are down to one
	// signature class — no further probe can distinguish them.
	Isolated bool
	// Ambiguity lists the surviving candidate fault sets in deterministic
	// candidate order. An empty entry is the fault-free candidate.
	Ambiguity [][]Fault
	// Classes partitions Ambiguity indices into signature-equality classes:
	// candidates in one class produce identical readings under every plan
	// vector and can never be told apart.
	Classes [][]int
	// Probes is the suggested probe sequence for the current ambiguity.
	Probes []ProbeStep
	// Rounds records the narrowing effect of each observation, in order.
	Rounds []DiagnoseRound
}

// Array returns the array the diagnosis was computed for.
func (d *Diagnosis) Array() *Array { return d.a }

// DiagnoseOption customizes Plan.Diagnose and NewDiagnoseSession.
type DiagnoseOption func(*diagnoseConfig)

type diagnoseConfig struct {
	universe
	workers  int
	budget   int
	progress Progress
}

// universe holds the options that shape the candidate universe, and so
// name a signature table (workers never change the table).
type universe struct {
	noLeaks    bool
	maxDoubles int
}

// WithDiagnoseWorkers shards the signature-table build across n goroutines
// (default: all CPUs). The table — and everything computed from it — is
// bit-identical for any worker count.
func WithDiagnoseWorkers(n int) DiagnoseOption { return func(c *diagnoseConfig) { c.workers = n } }

// WithProbeBudget truncates the suggested probe sequence of a Diagnosis to
// at most n entries (<= 0, the default, plans until no probe helps).
func WithProbeBudget(n int) DiagnoseOption { return func(c *diagnoseConfig) { c.budget = n } }

// WithDoubleFaultCandidates adds up to n stuck-at double-fault candidates
// to the universe (default 0: singles and leaks only). Doubles grow the
// signature table linearly but the pair universe quadratically; the cap
// keeps compilation bounded.
func WithDoubleFaultCandidates(n int) DiagnoseOption {
	return func(c *diagnoseConfig) { c.maxDoubles = n }
}

// WithoutLeakCandidates drops the control-leakage pairs from the candidate
// universe (stuck-at faults only).
func WithoutLeakCandidates() DiagnoseOption { return func(c *diagnoseConfig) { c.noLeaks = true } }

// WithDiagnoseProgress registers a callback receiving one DiagnoseTick
// event per observation round, carrying the surviving ambiguity count.
func WithDiagnoseProgress(p Progress) DiagnoseOption {
	return func(c *diagnoseConfig) { c.progress = p }
}

// internalOptions maps the public diagnosis options onto the internal
// engine configuration.
func (c diagnoseConfig) internalOptions(p *Plan) diagnose.Options {
	opt := diagnose.Options{Workers: c.workers, MaxDoubles: c.maxDoubles}
	if !c.noLeaks {
		for _, lp := range p.ts.LeakPairs {
			opt.LeakPairs = append(opt.LeakPairs, [2]grid.ValveID{lp[0], lp[1]})
		}
	}
	return opt
}

// signatures returns the entry's signature table for the candidate
// universe cfg describes, compiling it on first use; hit reports reuse.
// When two callers compile one table at once, the first to finish wins.
func (e *compiled) signatures(ctx context.Context, p *Plan, cfg diagnoseConfig) (sg *diagnose.Signatures, hit bool, err error) {
	if sg = e.table(cfg.universe, nil); sg != nil {
		return sg, true, nil
	}
	if sg, err = diagnose.Compile(ctx, e.cv, cfg.internalOptions(p)); err != nil {
		return nil, false, err
	}
	return e.table(cfg.universe, sg), false, nil
}

// table returns the entry's table for u; when there is none yet and sg is
// not nil, it stores and returns sg.
func (e *compiled) table(u universe, sg *diagnose.Signatures) *diagnose.Signatures {
	e.mu.Lock()
	defer e.mu.Unlock()
	if have := e.sigs[u]; have != nil {
		return have
	}
	if sg != nil {
		e.sigs[u] = sg
	}
	return sg
}

// newDiagnosis converts the internal session state into the public result.
func newDiagnosis(p *Plan, sg *diagnose.Signatures, sess *diagnose.Session, steps []diagnose.ProbeStep) *Diagnosis {
	alive := sess.AliveSet()
	members := diagnose.Members(alive)
	d := &Diagnosis{
		a:          p.a,
		Consistent: len(members) > 0,
		Isolated:   sg.Isolated(alive),
		Ambiguity:  make([][]Fault, len(members)),
	}
	pos := make(map[int]int, len(members))
	for i, c := range members {
		pos[c] = i
		if c == 0 {
			d.FaultFree = true
		}
		fs := sg.Candidate(c)
		pub := make([]Fault, len(fs))
		for k, f := range fs {
			pub[k] = p.a.fromSimFault(f)
		}
		d.Ambiguity[i] = pub
	}
	for _, class := range sg.Classes(alive) {
		idx := make([]int, len(class))
		for k, c := range class {
			idx[k] = pos[c]
		}
		d.Classes = append(d.Classes, idx)
	}
	for _, st := range steps {
		d.Probes = append(d.Probes, ProbeStep{Vector: st.Vector, WorstCase: st.WorstCase, Classes: st.Classes})
	}
	for _, r := range sess.Rounds() {
		d.Rounds = append(d.Rounds, DiagnoseRound{Vector: r.Vector, Before: r.Before, After: r.After})
	}
	return d
}

// Diagnose localizes a fault from observed sink readings: it compiles the
// expected response of every candidate defect (fault-free, every stuck-at
// single fault, the array's control-leakage pairs, optionally bounded
// double faults) under every plan vector, narrows the candidate universe by
// the observations, and plans the probe sequence that distinguishes the
// survivors fastest. obs may be empty — the result then describes the whole
// universe and a from-scratch probe plan.
//
// The result is deterministic: it depends only on the plan, the options and
// the observations — never on worker count. Cancelling ctx aborts
// the signature build promptly and returns an error wrapping ctx.Err().
//
// Diagnose keeps the signature tables it compiles with the plan, so later
// calls and sessions skip the build; interactive probing should use
// NewDiagnoseSession, and calls on many decoded copies of a plan should go
// through Service.SubmitDiagnose, which shares one compile among them.
func (p *Plan) Diagnose(ctx context.Context, obs []Observation, opts ...DiagnoseOption) (*Diagnosis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cfg diagnoseConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	d, _, err := p.diagnose(ctx, cfg, obs)
	return d, err
}

// diagnose replays the observations into a fresh session and snapshots
// the result; hit reports whether the signature table was reused. It is
// shared by Plan.Diagnose and the service's diagnose jobs.
func (p *Plan) diagnose(ctx context.Context, cfg diagnoseConfig, obs []Observation) (d *Diagnosis, hit bool, err error) {
	e, err := p.entry()
	if err != nil {
		return nil, false, err
	}
	sg, hit, err := e.signatures(ctx, p, cfg)
	if err != nil {
		return nil, false, err
	}
	s := &DiagnoseSession{p: p, cfg: cfg, sg: sg, sess: diagnose.NewSession(sg)}
	for _, o := range obs {
		if err := s.Observe(o); err != nil {
			return nil, hit, err
		}
	}
	d, err = s.Diagnosis(ctx)
	return d, hit, err
}

// DiagnoseSession is an interactive diagnosis: feed observations as the
// technician takes them, ask which vector to probe next, stop when Done.
// Not safe for concurrent use.
type DiagnoseSession struct {
	p    *Plan
	cfg  diagnoseConfig
	sg   *diagnose.Signatures
	sess *diagnose.Session
}

// NewDiagnoseSession compiles the signature table (the expensive part, once
// per plan) and starts a session with every candidate alive.
func (p *Plan) NewDiagnoseSession(ctx context.Context, opts ...DiagnoseOption) (*DiagnoseSession, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cfg diagnoseConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	e, err := p.entry()
	if err != nil {
		return nil, err
	}
	sg, _, err := e.signatures(ctx, p, cfg)
	if err != nil {
		return nil, err
	}
	return &DiagnoseSession{p: p, cfg: cfg, sg: sg, sess: diagnose.NewSession(sg)}, nil
}

// Observe narrows the ambiguity set by one observation.
func (s *DiagnoseSession) Observe(o Observation) error {
	if err := s.sess.Observe(o.Vector, o.Readings); err != nil {
		return err
	}
	if s.cfg.progress != nil {
		s.cfg.progress(Event{Kind: DiagnoseTick, Round: len(s.sess.Rounds()), Ambiguity: s.sess.AliveCount()})
	}
	return nil
}

// NextProbe returns the vector to probe next, or -1 when no unprobed
// vector can shrink the ambiguity set further. The choice is greedy: the
// vector whose readings most evenly split the surviving candidates.
func (s *DiagnoseSession) NextProbe() int { return s.sess.NextProbe() }

// Done reports whether probing is over: the surviving candidates are down
// to one signature class (or the set is empty).
func (s *DiagnoseSession) Done() bool { return s.sess.Done() }

// AmbiguityCount returns the size of the surviving ambiguity set.
func (s *DiagnoseSession) AmbiguityCount() int { return s.sess.AliveCount() }

// Diagnosis snapshots the session state as a Diagnosis, including a
// suggested probe sequence for whatever ambiguity remains.
func (s *DiagnoseSession) Diagnosis(ctx context.Context) (*Diagnosis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	steps, err := s.sess.PlanProbes(ctx, s.cfg.budget)
	if err != nil {
		return nil, err
	}
	return newDiagnosis(s.p, s.sg, s.sess, steps), nil
}
