package fpva_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/fpva"
)

// TestServiceSingleflight is the tentpole acceptance check: N concurrent
// SubmitGenerate calls for content-identical arrays (distinct *Array
// instances) must perform exactly one generation, with every job receiving
// a plan and the full phase-event sequence.
func TestServiceSingleflight(t *testing.T) {
	svc := fpva.NewService(fpva.WithServiceWorkers(4))
	defer svc.Close()
	const n = 8
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		plans  []*fpva.Plan
		events [n]int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := fpva.NewArray(6, 6)
			if err != nil {
				t.Error(err)
				return
			}
			job, err := svc.SubmitGenerate(context.Background(), a,
				fpva.WithProgress(func(fpva.Event) {
					mu.Lock()
					events[i]++
					mu.Unlock()
				}))
			if err != nil {
				t.Error(err)
				return
			}
			if err := job.Wait(context.Background()); err != nil {
				t.Error(err)
				return
			}
			p, err := job.Plan()
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			plans = append(plans, p)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if len(plans) != n {
		t.Fatalf("%d/%d jobs returned a plan", len(plans), n)
	}
	for i, p := range plans {
		if p.NumVectors() != plans[0].NumVectors() {
			t.Errorf("plan %d has %d vectors, plan 0 has %d", i, p.NumVectors(), plans[0].NumVectors())
		}
	}
	for i, got := range events {
		if got != 6 {
			t.Errorf("job %d saw %d progress events, want 6 (3 phases x start/finish)", i, got)
		}
	}
	st := svc.Stats()
	if st.Solves != 1 {
		t.Errorf("Solves = %d, want exactly 1 (singleflight + cache)", st.Solves)
	}
	if st.CacheMisses != 1 {
		t.Errorf("CacheMisses = %d, want 1", st.CacheMisses)
	}
	if st.CacheHits+st.CacheCoalesced != n-1 {
		t.Errorf("hits (%d) + coalesced (%d) = %d, want %d",
			st.CacheHits, st.CacheCoalesced, st.CacheHits+st.CacheCoalesced, n-1)
	}
	if st.JobsDone != n || st.JobsSubmitted != n {
		t.Errorf("jobs done=%d submitted=%d, want %d/%d", st.JobsDone, st.JobsSubmitted, n, n)
	}
	if st.SolverWall <= 0 {
		t.Errorf("SolverWall = %v, want > 0 after a real solve", st.SolverWall)
	}
}

// TestServiceCacheHitSequential: a repeat submission after completion is a
// pure cache hit — no second solve — and is flagged on the job handle.
func TestServiceCacheHitSequential(t *testing.T) {
	svc := fpva.NewService()
	defer svc.Close()
	submit := func() *fpva.Job {
		a, err := fpva.NewArray(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		job, err := svc.SubmitGenerate(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return job
	}
	first, second := submit(), submit()
	if first.CacheHit() {
		t.Error("first submission flagged as cache hit")
	}
	if !second.CacheHit() {
		t.Error("second submission not served from cache")
	}
	st := svc.Stats()
	if st.Solves != 1 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("solves=%d hits=%d misses=%d, want 1/1/1", st.Solves, st.CacheHits, st.CacheMisses)
	}
	if st.CacheEntries != 1 || st.CacheBytes <= 0 {
		t.Errorf("cache entries=%d bytes=%d, want 1 entry with positive size", st.CacheEntries, st.CacheBytes)
	}
}

// TestServiceCacheKeyedByOptions: engine/decomposition options that change
// the vectors must not share a cache entry.
func TestServiceCacheKeyedByOptions(t *testing.T) {
	svc := fpva.NewService()
	defer svc.Close()
	a, err := fpva.NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]fpva.GenOption{
		nil,
		{fpva.WithDirectModel()},
		{fpva.WithoutLeakage()},
	} {
		job, err := svc.SubmitGenerate(context.Background(), a, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.Stats(); st.Solves != 3 || st.CacheMisses != 3 {
		t.Errorf("solves=%d misses=%d, want 3/3 (distinct option fingerprints)", st.Solves, st.CacheMisses)
	}
}

// TestServiceCacheEviction: a byte budget that fits either plan alone but
// not both holds one entry, and the evicted plan is a miss again.
func TestServiceCacheEviction(t *testing.T) {
	planSize := func(rows, cols int) int64 {
		a, err := fpva.NewArray(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		p, err := fpva.Generate(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fpva.EncodePlan(&buf, p); err != nil {
			t.Fatal(err)
		}
		return int64(buf.Len())
	}
	n1, n2 := planSize(4, 4), planSize(5, 4)
	budget := max(n1, n2) + 64 // either plan fits alone; the pair does not
	svc := fpva.NewService(fpva.WithCacheBytes(budget))
	defer svc.Close()
	gen := func(rows, cols int) {
		a, err := fpva.NewArray(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		job, err := svc.SubmitGenerate(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	gen(4, 4)
	gen(5, 4) // evicts the 4x4 entry
	gen(4, 4) // miss again
	st := svc.Stats()
	if st.CacheBytes > st.CacheCapBytes {
		t.Errorf("cache bytes %d exceed budget %d", st.CacheBytes, st.CacheCapBytes)
	}
	if st.CacheEntries != 1 {
		t.Errorf("cache entries=%d, want 1 under a one-plan budget", st.CacheEntries)
	}
	if st.Solves != 3 {
		t.Errorf("solves=%d, want 3 (eviction forced a re-solve)", st.Solves)
	}
}

// TestServiceCancelMidJobNoLeak cancels a generate job stuck in a heavy
// ILP solve and checks that the worker goroutines drain (the -race CI run
// makes this the satellite race test).
func TestServiceCancelMidJobNoLeak(t *testing.T) {
	svc := fpva.NewService()
	before := runtime.NumGoroutine()
	a, err := fpva.NewArray(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	job, err := svc.SubmitGenerate(ctx, a,
		fpva.WithDirectModel(),
		fpva.WithPathEngine(fpva.PathEngineILPIterative),
		fpva.WithSolverWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if err := job.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("job error = %v, want context.Canceled", err)
	}
	if got := job.State(); got != fpva.JobCanceled {
		t.Errorf("state = %v, want canceled", got)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked after cancel+close: %d, started with %d", now, before)
	}
	if st := svc.Stats(); st.JobsCanceled != 1 {
		t.Errorf("JobsCanceled = %d, want 1", st.JobsCanceled)
	}
}

// TestServiceCancelOneFollowerKeepsFlight: with two jobs coalesced onto
// one flight, canceling one must not abort the solve the other is waiting
// for. The single worker slot is held by a cancelable campaign job so the
// shared flight stays queued while we cancel the first submitter.
func TestServiceCancelOneFollowerKeepsFlight(t *testing.T) {
	svc := fpva.NewService(fpva.WithServiceWorkers(1))
	defer svc.Close()
	a, err := fpva.NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	genJob, err := svc.SubmitGenerate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if err := genJob.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	plan, err := genJob.Plan()
	if err != nil {
		t.Fatal(err)
	}
	blockCtx, unblock := context.WithCancel(context.Background())
	defer unblock()
	blocker, err := svc.SubmitCampaign(blockCtx, plan,
		fpva.WithTrials(1_000_000_000), fpva.WithNumFaults(2), fpva.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, fpva.JobRunning)

	build := func() *fpva.Array {
		a, err := fpva.NewArray(6, 5)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	j1, err := svc.SubmitGenerate(ctx1, build())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := svc.SubmitGenerate(context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, svc, func(st fpva.ServiceStats) bool { return st.CacheCoalesced == 1 })

	cancel1()
	if err := j1.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled job: %v", err)
	}
	if got := j2.State(); got.Terminal() {
		t.Fatalf("surviving job already terminal (%v) while the slot is blocked", got)
	}
	unblock() // free the worker slot; the surviving flight runs now
	if err := j2.Wait(context.Background()); err != nil {
		t.Fatalf("surviving job failed: %v", err)
	}
	if p, err := j2.Plan(); err != nil || p.NumVectors() == 0 {
		t.Errorf("surviving job plan: %v (err %v)", p, err)
	}
	if err := blocker.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("blocker: %v", err)
	}
	if st := svc.Stats(); st.Solves != 2 {
		t.Errorf("Solves = %d, want 2 (setup plan + shared flight)", st.Solves)
	}
}

// TestServiceResubmitAfterFullCancel: once every subscriber of a flight
// has canceled, the flight is unpublished — a later identical submission
// must start a fresh solve instead of inheriting the doomed one's error.
func TestServiceResubmitAfterFullCancel(t *testing.T) {
	svc := fpva.NewService(fpva.WithServiceWorkers(1))
	defer svc.Close()
	a, err := fpva.NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	genJob, err := svc.SubmitGenerate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if err := genJob.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	plan, err := genJob.Plan()
	if err != nil {
		t.Fatal(err)
	}
	blockCtx, unblock := context.WithCancel(context.Background())
	defer unblock()
	blocker, err := svc.SubmitCampaign(blockCtx, plan,
		fpva.WithTrials(1_000_000_000), fpva.WithNumFaults(2), fpva.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, fpva.JobRunning)

	build := func() *fpva.Array {
		a, err := fpva.NewArray(5, 7)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	j1, err := svc.SubmitGenerate(ctx1, build())
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, svc, func(st fpva.ServiceStats) bool { return st.CacheMisses >= 1 })
	cancel1()
	if err := j1.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled job: %v", err)
	}
	// The doomed flight is gone; an identical resubmission starts fresh.
	j2, err := svc.SubmitGenerate(context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	unblock()
	if err := j2.Wait(context.Background()); err != nil {
		t.Fatalf("resubmission inherited the canceled flight: %v", err)
	}
	if p, err := j2.Plan(); err != nil || p.NumVectors() == 0 {
		t.Errorf("resubmitted plan: %v (err %v)", p, err)
	}
}

// waitState polls until the job reaches the state (or fails the test).
func waitState(t *testing.T, j *fpva.Job, want fpva.JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s stuck in %v, want %v", j.ID(), j.State(), want)
}

// waitStats polls the service counters until cond holds.
func waitStats(t *testing.T, svc *fpva.Service, cond func(fpva.ServiceStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(svc.Stats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("service stats never converged: %+v", svc.Stats())
}

// TestServiceCampaignAndVerifyJobs drives the two non-generate job kinds
// end to end, including the event stream and result accessors.
func TestServiceCampaignAndVerifyJobs(t *testing.T) {
	svc := fpva.NewService()
	defer svc.Close()
	a, err := fpva.BenchmarkArray("5x5")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := svc.SubmitGenerate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	plan, err := gen.Plan()
	if err != nil {
		t.Fatal(err)
	}

	camp, err := svc.SubmitCampaign(context.Background(), plan,
		fpva.WithTrials(500), fpva.WithNumFaults(2), fpva.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	var ticks int
	for e := range camp.Stream(context.Background()) {
		if e.Kind != fpva.CampaignTick {
			t.Errorf("campaign job emitted %v", e)
		}
		ticks++
	}
	if ticks == 0 {
		t.Error("no campaign ticks streamed")
	}
	res, err := camp.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 500 || res.Detected != 500 || res.Sims <= 0 {
		t.Errorf("campaign result %+v", res)
	}
	if _, err := camp.Plan(); err != nil {
		t.Errorf("campaign job must expose its input plan: %v", err)
	}
	if _, err := camp.Verify(); !errors.Is(err, fpva.ErrWrongJobKind) {
		t.Errorf("Verify on campaign job: %v, want ErrWrongJobKind", err)
	}

	ver, err := svc.SubmitVerify(context.Background(), plan, 200)
	if err != nil {
		t.Fatal(err)
	}
	if err := ver.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	vres, err := ver.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(vres.SingleEscapes) != 0 || len(vres.DoubleEscapes) != 0 {
		t.Errorf("verify escapes: %+v", vres)
	}
	st := svc.Stats()
	if st.Campaigns != 1 || st.Verifies != 1 {
		t.Errorf("campaigns=%d verifies=%d, want 1/1", st.Campaigns, st.Verifies)
	}
	// The verify job reused the vectors the campaign job compiled.
	if st.CompileMisses != 1 || st.CompileHits != 1 {
		t.Errorf("compile misses=%d hits=%d, want 1/1", st.CompileMisses, st.CompileHits)
	}
}

// decodedCopies returns n separately decoded copies of the plan, as n
// uploads of it to fpvad would be.
func decodedCopies(t *testing.T, plan *fpva.Plan, n int) []*fpva.Plan {
	t.Helper()
	var wire bytes.Buffer
	if err := fpva.EncodePlan(&wire, plan); err != nil {
		t.Fatal(err)
	}
	out := make([]*fpva.Plan, n)
	for i := range out {
		p, err := fpva.DecodePlan(bytes.NewReader(wire.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

// planJobs holds the parameters of one campaign, one verify and one
// diagnose job against a plan.
type planJobs struct {
	campaignOpts []fpva.CampaignOption
	maxPairs     int
	obs          []fpva.Observation
	diagOpts     []fpva.DiagnoseOption
}

// submit queues the three jobs, each on its own copy of the plan, and
// returns their handles in that order.
func (pj planJobs) submit(t *testing.T, svc *fpva.Service, camp, ver, diag *fpva.Plan) [3]*fpva.Job {
	t.Helper()
	ctx := context.Background()
	var out [3]*fpva.Job
	var err error
	if out[0], err = svc.SubmitCampaign(ctx, camp, pj.campaignOpts...); err != nil {
		t.Fatal(err)
	}
	if out[1], err = svc.SubmitVerify(ctx, ver, pj.maxPairs); err != nil {
		t.Fatal(err)
	}
	if out[2], err = svc.SubmitDiagnose(ctx, diag, pj.obs, pj.diagOpts...); err != nil {
		t.Fatal(err)
	}
	return out
}

// check waits for the three jobs and compares their results with the
// plan's own methods.
func (pj planJobs) check(t *testing.T, plan *fpva.Plan, jobs [3]*fpva.Job) {
	t.Helper()
	ctx := context.Background()
	for _, j := range jobs {
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	wantCamp, err := plan.Campaign(ctx, pj.campaignOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := jobs[0].Campaign(); err != nil || !reflect.DeepEqual(got, wantCamp) {
		t.Errorf("campaign job %+v (%v), plan's own %+v", got, err, wantCamp)
	}
	singles, err := plan.VerifySingleFaults(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := plan.VerifyDoubleFaults(ctx, pj.maxPairs)
	if err != nil {
		t.Fatal(err)
	}
	wantVer := fpva.VerifyResult{SingleEscapes: singles, DoubleEscapes: pairs}
	if got, err := jobs[1].Verify(); err != nil || !reflect.DeepEqual(got, wantVer) {
		t.Errorf("verify job %+v (%v), plan's own %+v", got, err, wantVer)
	}
	// Compare wire bytes: a decoded copy's array names its ports afresh.
	var want, got bytes.Buffer
	d, err := plan.Diagnose(ctx, pj.obs, pj.diagOpts...)
	if err == nil {
		err = fpva.EncodeDiagnosis(&want, d)
	}
	if err != nil {
		t.Fatal(err)
	}
	if d, err = jobs[2].Diagnosis(); err == nil {
		err = fpva.EncodeDiagnosis(&got, d)
	}
	if err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("diagnose job differs from the plan's own diagnosis (%v)", err)
	}
}

// tenByTenJobs generates the 10x10 Table I plan and the job parameters the
// shared-compile tests run against it: a hidden stuck-at-1 fault read on
// three vectors.
func tenByTenJobs(t *testing.T) (*fpva.Plan, planJobs) {
	t.Helper()
	a, err := fpva.BenchmarkArray("10x10")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fpva.Generate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	obs := readAll(t, plan, []fpva.Fault{{Kind: fpva.StuckAt1, A: a.Valves()[17]}})
	return plan, planJobs{
		campaignOpts: []fpva.CampaignOption{fpva.WithTrials(2000), fpva.WithNumFaults(2), fpva.WithSeed(3)},
		maxPairs:     300,
		obs:          []fpva.Observation{obs[0], obs[len(obs)/2], obs[len(obs)-1]},
	}
}

// TestServiceSharesCompileAcrossCopies: a campaign, a verify and a
// diagnose job on three separately decoded copies of one plan compile its
// vectors once, and answer exactly as the in-process plan's own methods.
func TestServiceSharesCompileAcrossCopies(t *testing.T) {
	plan, pj := tenByTenJobs(t)
	copies := decodedCopies(t, plan, 3)
	svc := fpva.NewService(fpva.WithServiceWorkers(1))
	defer svc.Close()
	jobs := pj.submit(t, svc, copies[0], copies[1], copies[2])
	pj.check(t, plan, jobs)
	if st := svc.Stats(); st.CompileMisses != 1 || st.CompileHits != 2 {
		t.Errorf("CompileMisses=%d CompileHits=%d, want 1 and 2", st.CompileMisses, st.CompileHits)
	}
}

// TestSharedCompileBurst races all three job kinds, each on a fresh
// decoded copy of one plan and two candidate universes, through a
// 4-worker service: whichever job compiles the entry or adds a table
// first, every result equals the plan's own serial answer. Run it under
// -race with a high -count (make chaos).
func TestSharedCompileBurst(t *testing.T) {
	plan, pj := tenByTenJobs(t)
	doubles := pj
	doubles.diagOpts = []fpva.DiagnoseOption{fpva.WithDoubleFaultCandidates(10)}
	svc := fpva.NewService(fpva.WithServiceWorkers(4))
	defer svc.Close()
	const rounds = 3
	copies := decodedCopies(t, plan, 6*rounds)
	var burst [][3]*fpva.Job
	for r := 0; r < rounds; r++ {
		c := copies[6*r:]
		burst = append(burst, pj.submit(t, svc, c[0], c[1], c[2]), doubles.submit(t, svc, c[3], c[4], c[5]))
	}
	for i, jobs := range burst {
		if i%2 == 0 {
			pj.check(t, plan, jobs)
		} else {
			doubles.check(t, plan, jobs)
		}
	}
	st := svc.Stats()
	if st.CompileHits+st.CompileMisses != 6*rounds || st.CompileMisses < 1 {
		t.Errorf("CompileMisses=%d CompileHits=%d over %d jobs", st.CompileMisses, st.CompileHits, 6*rounds)
	}
}

// TestServiceClosedRejectsSubmissions: Close is terminal for the submit
// surface and cancels queued jobs.
func TestServiceClosedRejectsSubmissions(t *testing.T) {
	svc := fpva.NewService()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := fpva.NewArray(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitGenerate(context.Background(), a); !errors.Is(err, fpva.ErrServiceClosed) {
		t.Errorf("submit after close: %v, want ErrServiceClosed", err)
	}
}

// TestServiceJobLookup: handles are retrievable by ID in submission order.
func TestServiceJobLookup(t *testing.T) {
	svc := fpva.NewService()
	defer svc.Close()
	a, err := fpva.NewArray(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc.SubmitGenerate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := svc.Job(j.ID())
	if !ok || got != j {
		t.Errorf("Job(%q) = %v, %v", j.ID(), got, ok)
	}
	if _, ok := svc.Job("nope"); ok {
		t.Error("unknown job ID resolved")
	}
	if jobs := svc.Jobs(); len(jobs) != 1 || jobs[0] != j {
		t.Errorf("Jobs() = %v", jobs)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServiceJobRetention: beyond the retention cap, the oldest terminal
// jobs drop out of tracking while the lifetime counters keep counting.
func TestServiceJobRetention(t *testing.T) {
	svc := fpva.NewService(fpva.WithJobRetention(2))
	defer svc.Close()
	var last *fpva.Job
	for i := 0; i < 5; i++ {
		a, err := fpva.NewArray(3, 3+i) // distinct content: no cache reuse
		if err != nil {
			t.Fatal(err)
		}
		j, err := svc.SubmitGenerate(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		last = j
	}
	if got := len(svc.Jobs()); got > 2 {
		t.Errorf("retained %d jobs, cap is 2", got)
	}
	st := svc.Stats()
	if st.JobsSubmitted != 5 {
		t.Errorf("JobsSubmitted = %d, want the lifetime count 5", st.JobsSubmitted)
	}
	if st.JobsDone > 2 {
		t.Errorf("JobsDone = %d over retained jobs, cap is 2", st.JobsDone)
	}
	// The newest job is still tracked and Forget drops it.
	if _, ok := svc.Job(last.ID()); !ok {
		t.Fatalf("newest job %s not retained", last.ID())
	}
	if !svc.Forget(last.ID()) {
		t.Errorf("Forget(%s) = false", last.ID())
	}
	if _, ok := svc.Job(last.ID()); ok {
		t.Errorf("job %s still tracked after Forget", last.ID())
	}
	if svc.Forget("nope") {
		t.Error("Forget accepted an unknown id")
	}
	// Handles keep working after eviction.
	if p, err := last.Plan(); err != nil || p == nil {
		t.Errorf("forgotten job handle broke: %v", err)
	}
}

// TestServiceForgetReleasesJob: once forgotten, a job must not stay
// reachable from the service, for example from the vacated slot of the
// submission-order slice; the newest job is the case fpvad's DELETE and
// the Generate wrapper hit on every call.
func TestServiceForgetReleasesJob(t *testing.T) {
	svc := fpva.NewService()
	a, err := fpva.NewArray(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc.SubmitGenerate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !svc.Forget(j.ID()) {
		t.Fatalf("Forget(%s) = false", j.ID())
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	wp := weak.Make(j)
	j = nil
	runtime.GC()
	if wp.Value() != nil {
		t.Error("forgotten job still reachable from the service")
	}
	runtime.KeepAlive(svc)
}

// TestGenerateWrapperLeavesNoJobs: the one-shot wrapper must not
// accumulate job state in the default service.
func TestGenerateWrapperLeavesNoJobs(t *testing.T) {
	a, err := fpva.NewArray(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	before := len(fpva.DefaultService().Jobs())
	if _, err := fpva.Generate(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if after := len(fpva.DefaultService().Jobs()); after != before {
		t.Errorf("Generate grew the default service's job list: %d -> %d", before, after)
	}
}

// TestGenerateWrapperUsesDefaultService: the package-level Generate is a
// thin wrapper over the default service — a repeat call replays the full
// phase-event sequence even when the plan comes from the cache.
func TestGenerateWrapperUsesDefaultService(t *testing.T) {
	build := func() *fpva.Array {
		a, err := fpva.NewArray(7, 3)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if _, err := fpva.Generate(context.Background(), build()); err != nil {
		t.Fatal(err)
	}
	before := fpva.DefaultService().Stats()
	var events []fpva.Event
	if _, err := fpva.Generate(context.Background(), build(),
		fpva.WithProgress(func(e fpva.Event) { events = append(events, e) })); err != nil {
		t.Fatal(err)
	}
	after := fpva.DefaultService().Stats()
	if after.Solves != before.Solves {
		t.Errorf("repeat Generate ran %d extra solve(s)", after.Solves-before.Solves)
	}
	if after.CacheHits != before.CacheHits+1 {
		t.Errorf("cache hits %d -> %d, want +1", before.CacheHits, after.CacheHits)
	}
	if len(events) != 6 {
		t.Errorf("cache-hit Generate delivered %d events, want the replayed 6", len(events))
	}
}
