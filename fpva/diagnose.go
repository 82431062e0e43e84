package fpva

// Adaptive fault diagnosis: the public face of internal/diagnose. A
// Diagnosis answers "given the sink readings a technician observed, which
// defects are still possible, and what should be probed next"; a
// DiagnoseSession runs the same question as a closed loop, re-planning
// after every observation.

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

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
	Vector        int
	Before, After int
}

// ProbeStep is one entry of a suggested probe sequence: after observing
// the sequence up to and including Vector, at most WorstCase candidates (in
// Classes signature groups) remain possible, whatever the outcomes.
type ProbeStep struct {
	Vector    int
	WorstCase int
	Classes   int
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
	workers    int
	budget     int
	maxDoubles int
	noLeaks    bool
	progress   Progress
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

// sigMemoEntry is the plan's one-slot signature memo: the last table
// compiled, keyed by the options that shape the candidate universe
// (workers never change the table).
type sigMemoEntry struct {
	noLeaks    bool
	maxDoubles int
	sg         *diagnose.Signatures
}

// compileSignatures builds the signature table of the plan's full vector
// set under cfg. The plan memoizes the last table it compiled, so a
// closed-loop study opening one session per hidden fault — fpvasim
// -diagnose — pays for the compile once.
func (p *Plan) compileSignatures(ctx context.Context, cfg diagnoseConfig) (*diagnose.Signatures, error) {
	p.sigMu.Lock()
	if m := p.sigMemo; m != nil && m.noLeaks == cfg.noLeaks && m.maxDoubles == cfg.maxDoubles {
		sg := m.sg
		p.sigMu.Unlock()
		return sg, nil
	}
	p.sigMu.Unlock()
	cv, err := p.ts.Compile()
	if err != nil {
		return nil, err
	}
	sg, err := diagnose.Compile(ctx, cv, cfg.internalOptions(p))
	if err != nil {
		return nil, err
	}
	p.sigMu.Lock()
	p.sigMemo = &sigMemoEntry{noLeaks: cfg.noLeaks, maxDoubles: cfg.maxDoubles, sg: sg}
	p.sigMu.Unlock()
	return sg, nil
}

// runDiagnosis replays the observations into a fresh session and snapshots
// the result. It is shared by Plan.Diagnose and the service job runner.
func runDiagnosis(ctx context.Context, p *Plan, sg *diagnose.Signatures, cfg diagnoseConfig, obs []Observation) (*Diagnosis, error) {
	sess := diagnose.NewSession(sg)
	for i, o := range obs {
		if err := sess.Observe(o.Vector, o.Readings); err != nil {
			return nil, err
		}
		if cfg.progress != nil {
			cfg.progress(Event{Kind: DiagnoseTick, Round: i + 1, Ambiguity: sess.AliveCount()})
		}
	}
	steps, err := sess.PlanProbes(ctx, cfg.budget)
	if err != nil {
		return nil, err
	}
	return newDiagnosis(p, sg, sess, steps), nil
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
// Diagnose reuses the plan's memoized signature table when the candidate
// universe is unchanged; interactive probing should use
// NewDiagnoseSession, and one-shot calls across many plans should go
// through Service.SubmitDiagnose, which keeps an LRU of compiled tables.
func (p *Plan) Diagnose(ctx context.Context, obs []Observation, opts ...DiagnoseOption) (*Diagnosis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cfg diagnoseConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	sg, err := p.compileSignatures(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return runDiagnosis(ctx, p, sg, cfg, obs)
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
// per session) and starts a session with every candidate alive.
func (p *Plan) NewDiagnoseSession(ctx context.Context, opts ...DiagnoseOption) (*DiagnoseSession, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cfg diagnoseConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	sg, err := p.compileSignatures(ctx, cfg)
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

// sigKey derives the cache key of a compiled signature table: the SHA-256
// of the plan's v1 wire encoding plus the fingerprint of every option that
// can change the table. Worker counts are deliberately excluded — tables
// are bit-identical across them, so they must share an entry.
func sigKey(p *Plan, cfg diagnoseConfig) (string, error) {
	h := sha256.New()
	if err := EncodePlan(h, p); err != nil {
		return "", err
	}
	fmt.Fprintf(h, "\x00noLeaks=%t doubles=%d v=%d", cfg.noLeaks, cfg.maxDoubles, CodecVersion)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// defaultSigCacheEntries bounds the service's signature-table cache. A
// table is a few hundred KB for the Table I arrays; entries, not bytes, are
// the natural unit because the dominant cost is the compile, not the RAM.
const defaultSigCacheEntries = 8

// sigCacheEntry is one cached signature table.
type sigCacheEntry struct {
	key string
	sg  *diagnose.Signatures
}

// sigCache is an entry-capped LRU of compiled signature tables. It is not
// goroutine-safe; the owning Service serializes access under its mutex.
type sigCache struct {
	capEntries int
	ll         *list.List // front = most recently used; values are *sigCacheEntry
	index      map[string]*list.Element
}

func newSigCache(capEntries int) *sigCache {
	return &sigCache{capEntries: capEntries, ll: list.New(), index: make(map[string]*list.Element)}
}

func (c *sigCache) get(key string) (*diagnose.Signatures, bool) {
	el, ok := c.index[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*sigCacheEntry).sg, true
}

func (c *sigCache) put(key string, sg *diagnose.Signatures) {
	if el, ok := c.index[key]; ok {
		el.Value.(*sigCacheEntry).sg = sg
		c.ll.MoveToFront(el)
		return
	}
	c.index[key] = c.ll.PushFront(&sigCacheEntry{key: key, sg: sg})
	for c.ll.Len() > c.capEntries {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.ll.Remove(back)
		delete(c.index, back.Value.(*sigCacheEntry).key)
	}
}
