package fpva

// The service state machine under seeded random interleavings: submit,
// cancel, forget and wait across every job kind, each schedule on a fresh
// service with one injected fault. Run it as
//
//	go test -race -count 10 -cpu 1,2,4 -run TestServiceInterleavings ./fpva
//
// Every invocation takes the next seed, so repeated runs cover new
// schedules; a failure names its seed.

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/store"
)

// cartesianProduct expands a dimension grid into every combination, keys
// in sorted order and each key's values in the order given, so the i-th
// combination is the same on every run.
func cartesianProduct(dims map[string][]string) []map[string]string {
	keys := make([]string, 0, len(dims))
	for k := range dims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := []map[string]string{{}}
	for _, k := range keys {
		next := make([]map[string]string, 0, len(out)*len(dims[k]))
		for _, combo := range out {
			for _, v := range dims[k] {
				c := make(map[string]string, len(combo)+1)
				for ck, cv := range combo {
					c[ck] = cv
				}
				c[k] = v
				next = append(next, c)
			}
		}
		out = next
	}
	return out
}

func TestCartesianProductOrder(t *testing.T) {
	got := cartesianProduct(map[string][]string{"y": {"1", "2"}, "x": {"b", "a"}})
	want := []map[string]string{
		{"x": "b", "y": "1"}, {"x": "b", "y": "2"},
		{"x": "a", "y": "1"}, {"x": "a", "y": "2"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cartesianProduct = %v, want %v", got, want)
	}
}

// interleaveDims are the schedule's factors. Every schedule runs on a
// fresh service built with one fault:
//   - eio: a quarter of the plan store's entry reads, writes and
//     mtime touches fail until the schedule settles, and the memory plan
//     cache holds one plan, so the store serves read-backs;
//   - timeout: every job has a short WithJobTimeout;
//   - ttl: terminal jobs expire after 1 ms;
//   - cache1: the memory plan cache holds one plan, so the store behind
//     it serves read-backs.
var interleaveDims = map[string][]string{
	"op":    {"submit", "cancel", "forget", "wait"},
	"kind":  {"generate", "campaign", "verify", "diagnose"},
	"fault": {"none", "eio", "timeout", "ttl", "cache1"},
}

// eioBackoffMax caps the eio store's probe backoff.
const eioBackoffMax = 10 * time.Millisecond

// interleaveRuns numbers the invocations of TestServiceInterleavings in
// this process; each one uses the next seed.
var interleaveRuns atomic.Uint64

// interleaveFixture holds the inputs the schedules submit and their
// reference results, computed outside any service.
type interleaveFixture struct {
	arrays []*Array // generate inputs; the last one is the burst's fresh key
	wires  []string // normalized plan wire of each array
	plans  []*Plan  // campaign, verify and diagnose inputs
	obs    [][]Observation
	camp   []CampaignResult
	verify []VerifyResult
	diag   []*Diagnosis
	maxLen int // longest plan wire
}

const (
	interleaveTrials   = 256
	interleaveMaxPairs = 40
)

func newInterleaveFixture(t *testing.T) *interleaveFixture {
	t.Helper()
	ctx := context.Background()
	fx := &interleaveFixture{}
	coreCfg, err := genConfig{blockSize: 5}.coreConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, dim := range [][2]int{{3, 3}, {4, 4}, {3, 4}} {
		a, err := NewArray(dim[0], dim[1])
		if err != nil {
			t.Fatal(err)
		}
		ts, err := core.Generate(ctx, a.g, coreCfg)
		if err != nil {
			t.Fatal(err)
		}
		p := &Plan{a: a, ts: ts, geometry: true}
		wire := encodePlan(p, true)
		fx.arrays = append(fx.arrays, a)
		fx.wires = append(fx.wires, normalizePlanWire(t, wire))
		fx.maxLen = max(fx.maxLen, len(wire))
		if len(fx.plans) == 2 {
			continue
		}
		s, err := sim.New(a.g)
		if err != nil {
			t.Fatal(err)
		}
		hidden := []sim.Fault{{Kind: sim.StuckAt0, A: a.g.NormalValves()[0]}}
		var obs []Observation
		for i, v := range ts.AllVectors() {
			obs = append(obs, Observation{Vector: i, Readings: s.Readings(v, hidden)})
		}
		camp, err := p.Campaign(ctx, WithTrials(interleaveTrials), WithSeed(int64(len(fx.plans))))
		if err != nil {
			t.Fatal(err)
		}
		singles, err := p.VerifySingleFaults(ctx)
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := p.VerifyDoubleFaults(ctx, interleaveMaxPairs)
		if err != nil {
			t.Fatal(err)
		}
		d, err := p.Diagnose(ctx, obs)
		if err != nil {
			t.Fatal(err)
		}
		// The service jobs get their own copy of the plan, never compiled
		// by the reference calls above.
		in, err := decodePlan(wire)
		if err != nil {
			t.Fatal(err)
		}
		fx.plans = append(fx.plans, in)
		fx.obs = append(fx.obs, obs)
		fx.camp = append(fx.camp, camp)
		fx.verify = append(fx.verify, VerifyResult{SingleEscapes: singles, DoubleEscapes: pairs})
		fx.diag = append(fx.diag, d)
	}
	return fx
}

// interleaveRounds is how many shuffles of the product each invocation
// runs, so each schedule has interleaveRounds steps per (op, kind) pair.
const interleaveRounds = 5

// step is one schedule entry: an operation on a new job of a kind, whose
// input is the fixture's input-th array or plan.
type step struct {
	op, kind string
	input    int
}

// TestServiceInterleavings draws its schedules from seeded shuffles of the
// cartesian product of operation, job kind and fault: the steps that share
// a fault form one schedule, which two goroutines run on a fresh service,
// one taking the even steps and one the odd. Once a schedule settles, every
// job has reached exactly one terminal state with the reference result,
// the counters agree with the jobs, a healed store comes back on the first
// due probe although it names a stored key, N identical generate jobs on a
// fresh key cost one solve, forgotten and expired jobs are collectable, and
// the idle service holds no goroutines.
func TestServiceInterleavings(t *testing.T) {
	seed := interleaveRuns.Add(1)
	fx := newInterleaveFixture(t)
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	scheds := make(map[string][]step)
	for range interleaveRounds {
		combos := cartesianProduct(interleaveDims)
		rng.Shuffle(len(combos), func(i, k int) { combos[i], combos[k] = combos[k], combos[i] })
		for _, c := range combos {
			scheds[c["fault"]] = append(scheds[c["fault"]], step{c["op"], c["kind"], rng.IntN(len(fx.plans))})
		}
	}
	for _, fault := range interleaveDims["fault"] {
		t.Run(fault, func(t *testing.T) { runSchedule(t, fx, seed, fault, scheds[fault]) })
	}
}

// schedule is one schedule's run: its service and every job it submitted.
type schedule struct {
	t     *testing.T
	fx    *interleaveFixture
	svc   *Service
	fault string
	seed  uint64

	mu    sync.Mutex
	jobs  []*Job
	input map[*Job]int // fixture index of each job's input
}

func runSchedule(t *testing.T, fx *interleaveFixture, seed uint64, fault string, steps []step) {
	baseline := runtime.NumGoroutine()
	opts := []ServiceOption{WithServiceWorkers(2), WithCacheDir(t.TempDir())}
	ffs := &store.FaultFS{Base: store.OSFS()}
	switch fault {
	case "eio":
		opts = append(opts, withStoreHooks(ffs, time.Now, time.Millisecond, eioBackoffMax),
			WithCacheBytes(int64(fx.maxLen+256)))
	case "timeout":
		// 0.5 to 4 ms: long enough for some jobs, too short for others.
		opts = append(opts, WithJobTimeout(time.Duration(1+seed%8)*500*time.Microsecond))
	case "ttl":
		opts = append(opts, WithJobTTL(time.Millisecond))
	case "cache1":
		opts = append(opts, WithCacheBytes(int64(fx.maxLen+256)))
	}
	s := &schedule{t: t, fx: fx, svc: NewService(opts...), fault: fault, seed: seed, input: make(map[*Job]int)}
	defer s.svc.Close()
	if fault == "eio" {
		// The store opened healthy and holds every generate input's plan;
		// from now on a quarter of its entry reads and writes fail.
		for i := range fx.plans {
			s.run("generate", i)
		}
		var mu sync.Mutex
		frng := rand.New(rand.NewPCG(seed, 0xe10))
		ffs.SetHook(func(op store.Op, _ string) error {
			mu.Lock()
			defer mu.Unlock()
			switch op {
			case store.OpCreateTemp, store.OpWrite, store.OpChtimes, store.OpRename, store.OpRead:
				if frng.IntN(4) == 0 {
					return errors.New("injected EIO")
				}
			}
			return nil
		})
	}

	var wg sync.WaitGroup
	for d := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := d; i < len(steps); i += 2 {
				s.step(steps[i])
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	s.settle(s.jobs)
	s.idle(baseline)
	if fault == "eio" {
		s.heal(ffs)
		s.idle(baseline)
	}
	s.burst()
	s.idle(baseline)
	s.checkCounters()
	s.checkCollectable()
}

// step submits one job and applies the operation to it. It runs off the
// test goroutine, so it reports failures without stopping the test.
func (s *schedule) step(st step) {
	j, err := s.submit(st.kind, st.input)
	if err != nil {
		s.t.Errorf("seed %d: submit %s: %v", s.seed, st.kind, err)
		return
	}
	switch st.op {
	case "cancel":
		j.Cancel()
	case "wait":
		s.wait(j)
	case "forget":
		// A job whose Wait returned is terminal and still tracked, unless
		// its TTL already dropped it.
		if s.wait(j) && !s.svc.Forget(j.ID()) && s.fault != "ttl" {
			s.t.Errorf("seed %d: Forget(%s) of a finished %v job = false", s.seed, j.ID(), j.Kind())
		}
	}
}

func (s *schedule) submit(kind string, i int) (*Job, error) {
	ctx := context.Background()
	var (
		j   *Job
		err error
	)
	switch kind {
	case "generate":
		j, err = s.svc.SubmitGenerate(ctx, s.fx.arrays[i])
	case "campaign":
		j, err = s.svc.SubmitCampaign(ctx, s.fx.plans[i], WithTrials(interleaveTrials), WithSeed(int64(i)))
	case "verify":
		j, err = s.svc.SubmitVerify(ctx, s.fx.plans[i], interleaveMaxPairs)
	case "diagnose":
		j, err = s.svc.SubmitDiagnose(ctx, s.fx.plans[i], s.fx.obs[i])
	}
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.jobs = append(s.jobs, j)
	s.input[j] = i
	s.mu.Unlock()
	return j, nil
}

// run submits one job and settles it.
func (s *schedule) run(kind string, i int) {
	j, err := s.submit(kind, i)
	if err != nil {
		s.t.Fatalf("seed %d: submit %s: %v", s.seed, kind, err)
	}
	s.settle([]*Job{j})
}

// heal lets the eio schedule's disk recover and waits past the longest
// probe backoff. The store holds every generate input and memory holds
// one plan, so of one generate job per input at least one misses memory,
// and the first such job's write-through Put is the due probe. Its key is
// stored, and the probe must bring the store back all the same. The next
// job on an input memory no longer holds is then a store hit.
func (s *schedule) heal(ffs *store.FaultFS) {
	ffs.SetHook(nil)
	time.Sleep(2 * eioBackoffMax)
	for i := range s.fx.plans {
		s.run("generate", i)
	}
	st := s.svc.Stats()
	if st.Store.Mode != "ok" || st.Store.Trips != st.Store.Recoveries {
		s.t.Errorf("seed %d: after the disk healed, generate jobs on stored keys left the store %s (%s) with %d trips and %d recoveries",
			s.seed, st.Store.Mode, st.Store.Reason, st.Store.Trips, st.Store.Recoveries)
	}
	s.run("generate", 0)
	after := s.svc.Stats()
	if hits, solves := after.Store.Hits-st.Store.Hits, after.Solves-st.Solves; hits != 1 || solves != 0 {
		s.t.Errorf("seed %d: a generate job on a stored plan that memory dropped took %d store hits and %d solves, want 1 and 0",
			s.seed, hits, solves)
	}
}

// wait blocks until the job is terminal and reports whether it got there;
// a job that never does fails the test instead of hanging it.
func (s *schedule) wait(j *Job) bool {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := j.Wait(ctx); err != nil && ctx.Err() != nil {
		s.t.Errorf("seed %d: %v job %s never finished (state %v)", s.seed, j.Kind(), j.ID(), j.State())
		return false
	}
	return true
}

// settle waits for the jobs and checks that each one is in exactly one
// terminal state, with its reference result when done.
func (s *schedule) settle(jobs []*Job) {
	for _, j := range jobs {
		if !s.wait(j) {
			s.t.FailNow()
		}
		st, err := j.State(), j.Err()
		if !st.Terminal() || (st == JobDone) != (err == nil) {
			s.t.Errorf("seed %d: %v job %s: state %v, err %v", s.seed, j.Kind(), j.ID(), st, err)
		}
		if st == JobDone {
			s.checkResult(j)
		}
	}
}

func (s *schedule) checkResult(j *Job) {
	i := s.input[j]
	var ok bool
	switch j.Kind() {
	case JobGenerate:
		wire, err := j.PlanBytes()
		ok = err == nil && normalizePlanWire(s.t, wire) == s.fx.wires[i]
	case JobCampaign:
		res, err := j.Campaign()
		ok = err == nil && reflect.DeepEqual(res, s.fx.camp[i])
	case JobVerify:
		res, err := j.Verify()
		ok = err == nil && reflect.DeepEqual(res, s.fx.verify[i])
	case JobDiagnose:
		d, err := j.Diagnosis()
		var got, want bytes.Buffer
		ok = err == nil && EncodeDiagnosis(&got, d) == nil && EncodeDiagnosis(&want, s.fx.diag[i]) == nil &&
			bytes.Equal(got.Bytes(), want.Bytes())
	}
	if !ok {
		s.t.Errorf("seed %d: %v job %s is done with a result that differs from the reference", s.seed, j.Kind(), j.ID())
	}
}

// idle checks that the settled service holds no goroutines: the count
// falls back to where it stood before the service was built.
func (s *schedule) idle(baseline int) {
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			s.t.Fatalf("seed %d: idle service still holds goroutines: %d running, %d before it started",
				s.seed, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// burst submits identical generate jobs on a key the schedule never used:
// four at once from separate goroutines, then two more once those are
// done. Unless one was canceled, the six cost exactly one solve.
func (s *schedule) burst() {
	fresh := len(s.fx.arrays) - 1
	before := s.svc.Stats().Solves
	jobs := make([]*Job, 6)
	submit := func(k int) {
		j, err := s.submit("generate", fresh)
		if err != nil {
			s.t.Errorf("seed %d: burst submit: %v", s.seed, err)
		}
		jobs[k] = j
	}
	var wg sync.WaitGroup
	for k := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			submit(k)
		}()
	}
	wg.Wait()
	if s.t.Failed() {
		s.t.FailNow()
	}
	s.settle(jobs[:4])
	for k := 4; k < len(jobs); k++ {
		submit(k)
		s.settle(jobs[k : k+1])
	}
	canceled := false
	for _, j := range jobs {
		canceled = canceled || j.State() == JobCanceled
	}
	if solves := s.svc.Stats().Solves - before; !canceled && solves != 1 {
		s.t.Errorf("seed %d: %d identical generate jobs on a fresh key cost %d solves, want 1", s.seed, len(jobs), solves)
	}
}

// checkCounters checks Stats against the jobs the schedule submitted.
func (s *schedule) checkCounters() {
	t, seed := s.t, s.seed
	want := make(map[string]JobKindStats)
	for _, j := range s.jobs {
		ks := want[j.Kind().String()]
		ks.Submitted++
		switch j.State() {
		case JobDone:
			ks.Done++
		case JobFailed:
			ks.Failed++
		case JobCanceled:
			ks.Canceled++
		}
		want[j.Kind().String()] = ks
	}
	st, retained := s.statsAndJobs()
	if !reflect.DeepEqual(st.Kinds, want) {
		t.Errorf("seed %d: Stats().Kinds = %+v, want %+v", seed, st.Kinds, want)
	}
	sum := 0
	for _, ks := range st.Kinds {
		sum += ks.Submitted
		if ks.Done+ks.Failed+ks.Canceled != ks.Submitted {
			t.Errorf("seed %d: terminal counts %+v do not add up to Submitted", seed, ks)
		}
	}
	if sum != st.JobsSubmitted || sum != len(s.jobs) {
		t.Errorf("seed %d: JobsSubmitted = %d, per-kind Submitted sum to %d, %d jobs submitted",
			seed, st.JobsSubmitted, sum, len(s.jobs))
	}
	var byState [JobCanceled + 1]int
	for _, j := range retained {
		byState[j.State()]++
	}
	got := [JobCanceled + 1]int{st.JobsPending, st.JobsRunning, st.JobsDone, st.JobsFailed, st.JobsCanceled}
	if got != byState || byState[JobPending]+byState[JobRunning] != 0 {
		t.Errorf("seed %d: per-state counts %v, retained jobs by state %v", seed, got, byState)
	}
	if st.Campaigns != st.Kinds["campaign"].Done || st.Verifies != st.Kinds["verify"].Done ||
		st.Diagnoses != st.Kinds["diagnose"].Done {
		t.Errorf("seed %d: Campaigns %d, Verifies %d, Diagnoses %d against Done counts %+v",
			seed, st.Campaigns, st.Verifies, st.Diagnoses, st.Kinds)
	}
	if (st.CampaignWall > 0) != (st.Campaigns > 0) || (st.DiagnoseWall > 0) != (st.Diagnoses > 0) {
		t.Errorf("seed %d: CampaignWall %v over %d campaigns, DiagnoseWall %v over %d diagnoses",
			seed, st.CampaignWall, st.Campaigns, st.DiagnoseWall, st.Diagnoses)
	}
}

// statsAndJobs returns Stats and the retained jobs it counted: a Jobs
// call on each side of Stats, repeated until both see the same jobs, so
// that jobs expiring in between cannot skew the comparison.
func (s *schedule) statsAndJobs() (ServiceStats, []*Job) {
	for {
		before := s.svc.Jobs()
		st := s.svc.Stats()
		after := s.svc.Jobs()
		if slices.Equal(before, after) {
			return st, after
		}
	}
}

// checkCollectable drops the schedule's handles and checks that every job
// the service no longer tracks, forgotten or expired, is garbage: the
// service must not keep it reachable.
func (s *schedule) checkCollectable() {
	tracked := make(map[string]bool)
	for _, j := range s.svc.Jobs() {
		tracked[j.ID()] = true
	}
	gone := make(map[string]weak.Pointer[Job])
	for _, j := range s.jobs {
		if !tracked[j.ID()] {
			gone[j.ID()] = weak.Make(j)
		}
	}
	s.jobs, s.input = nil, nil
	runtime.GC()
	for id, wp := range gone {
		if wp.Value() != nil {
			s.t.Errorf("seed %d: job %s is no longer tracked but still reachable", s.seed, id)
		}
	}
	runtime.KeepAlive(s.svc)
}
