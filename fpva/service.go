package fpva

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/store"
	"repro/internal/workerpool"
)

// Service is the long-lived, concurrent entry point of the pipeline: one
// Service per process owns a plan cache, a bounded worker pool, and the
// lifecycle of every submitted job.
//
//	svc := fpva.NewService()
//	defer svc.Close()
//	job, _ := svc.SubmitGenerate(ctx, array)
//	if err := job.Wait(ctx); err != nil { ... }
//	plan, _ := job.Plan()
//
// Identical generate submissions are deduplicated twice over: completed
// plans are served from a content-addressed LRU cache (the key hashes the
// array's v1 wire encoding plus every option that can change the vectors),
// and N concurrent requests for the same key trigger exactly one solve —
// followers attach to the in-flight computation and observe its progress
// events. The package-level Generate function is a thin wrapper over a
// shared default service, so plain library callers get the same behaviour.
//
// A Service is safe for concurrent use and holds no goroutines while idle.
type Service struct {
	workers int
	sem     chan struct{} // worker-pool slots

	// Subprocess executor state (nil pool means in-process solves).
	executor      SolverExecutor
	pool          *workerpool.Pool
	solverTimeout time.Duration
	jobTTL        time.Duration
	jobTimeout    time.Duration

	// Admission control: with maxActive > 0, at most that many jobs may
	// be pending or running at once — further submissions are shed with
	// ErrQueueFull instead of growing the pending queue without bound.
	maxActive int

	// store, when non-nil, is the durable half of the plan cache
	// (WithCacheDir): completed plans are written through to disk and a
	// restarted service reads them back bit-identically.
	store *store.Store

	mu       sync.Mutex
	cache    *lru.Cache[cacheEntry] // plans by planKey; nil when caching is disabled
	compiled *lru.Cache[*compiled]  // compiled plan content by compiledKey
	flights  map[string]*flight
	jobs     map[string]*Job
	order    []*Job // submission order, for Jobs()
	seq      int
	terminal int // terminal jobs currently retained
	closed   bool

	retain int // terminal-job retention cap; <= 0 keeps all

	// counters (guarded by mu)
	active                  int // non-terminal jobs, for admission control
	shed                    int // submissions rejected with ErrQueueFull
	hits, misses, coalesced int
	solves                  int
	solverWall              time.Duration
	compileHits             int
	compileMisses           int
	sigHits, sigMisses      int
	// kinds is the per-kind job accounting, tallied once per job at
	// submission and at its terminal transition; wall sums the done jobs'
	// time from running to done.
	kinds [JobDiagnose + 1]struct {
		JobKindStats
		wall time.Duration
	}

	wg sync.WaitGroup
}

// ServiceOption customizes NewService.
type ServiceOption func(*serviceConfig)

type serviceConfig struct {
	workers    int
	cacheBytes int64
	retain     int

	executor      SolverExecutor
	workerCmd     []string
	poolSize      int
	solverTimeout time.Duration
	workerMemMB   int
	jobTTL        time.Duration
	jobTimeout    time.Duration

	maxActive int

	cacheDir   string
	diskBytes  int64
	storeFS    store.FS         // test hook: injectable filesystem faults
	storeNow   func() time.Time // test hook: injectable clock for probe backoff
	storeBkMin time.Duration
	storeBkMax time.Duration
}

// DefaultJobRetention is the terminal-job retention cap of a service built
// without WithJobRetention.
const DefaultJobRetention = 4096

// WithServiceWorkers bounds how many jobs execute concurrently (default:
// runtime.NumCPU()). Queued jobs stay JobPending until a slot frees up.
func WithServiceWorkers(n int) ServiceOption { return func(c *serviceConfig) { c.workers = n } }

// WithCacheBytes sets the plan-cache byte budget (default DefaultCacheBytes;
// <= 0 disables caching). An entry's cost is the length of its v1 wire
// encoding.
func WithCacheBytes(n int64) ServiceOption { return func(c *serviceConfig) { c.cacheBytes = n } }

// WithJobRetention caps how many terminal jobs the service keeps for later
// lookup (default DefaultJobRetention; <= 0 keeps all). When a job turns
// terminal beyond the cap, the oldest terminal jobs are dropped from Job /
// Jobs tracking — their handles keep working for whoever holds them.
func WithJobRetention(n int) ServiceOption { return func(c *serviceConfig) { c.retain = n } }

// WithSolverExecutor selects where generate solves run (default
// ExecInProcess). With ExecSubprocess the service owns a pool of worker
// subprocesses (see WithWorkerCommand, WithSolverPoolSize): a solver
// crash, hang, or memory blow-up fails only the job that hit it, the pool
// restarts the worker, and the service keeps serving. Cache keys, the
// singleflight path, and the plan wire bytes are identical across
// executors — a subprocess solve produces the same vectors, cached
// verbatim from the worker's response.
func WithSolverExecutor(e SolverExecutor) ServiceOption {
	return func(c *serviceConfig) { c.executor = e }
}

// WithWorkerCommand sets the worker subprocess argv for ExecSubprocess
// (default: an fpvaworker binary next to the current executable, then
// PATH). The command must speak the solver-worker protocol —
// ServeSolverWorker on stdin/stdout.
func WithWorkerCommand(argv ...string) ServiceOption {
	return func(c *serviceConfig) { c.workerCmd = append([]string(nil), argv...) }
}

// WithSolverPoolSize bounds how many worker subprocesses ExecSubprocess
// keeps (default: the service worker count). Processes spawn lazily and
// stay alive across jobs.
func WithSolverPoolSize(n int) ServiceOption { return func(c *serviceConfig) { c.poolSize = n } }

// WithSolverTimeout bounds one generate solve's wall clock (default: none).
// It applies to both executors; under ExecSubprocess an expired solve is
// first asked to cancel and its worker killed only if it does not comply.
func WithSolverTimeout(d time.Duration) ServiceOption {
	return func(c *serviceConfig) { c.solverTimeout = d }
}

// WithWorkerMemLimitMB caps a worker subprocess's memory (default: none;
// ExecSubprocess only). The limit is handed to the worker as its soft Go
// runtime memory limit, and the supervisor hard-kills any worker whose
// resident set exceeds twice it — the killed solve fails, the pool
// restarts the worker.
func WithWorkerMemLimitMB(mb int) ServiceOption {
	return func(c *serviceConfig) { c.workerMemMB = mb }
}

// DefaultDiskCacheBytes is the on-disk plan-store byte budget of a
// service built with WithCacheDir but without WithDiskCacheBytes.
const DefaultDiskCacheBytes = 256 << 20

// WithCacheDir makes the plan cache durable: completed plans are
// written through to an on-disk content-addressed store under dir
// (atomic temp-file+rename writes, checksums verified on every read),
// and a cache miss reads back from disk before solving — so a
// restarted service serves bit-identical plan bytes for everything it
// solved before. The store degrades instead of failing: on disk
// trouble (ENOSPC, EIO) it trips into memory-only mode, re-probes with
// doubling backoff, and recovers on its own; Stats().Store reports the
// mode and every counter. Two services may share a dir only if at most
// one writes to it.
func WithCacheDir(dir string) ServiceOption { return func(c *serviceConfig) { c.cacheDir = dir } }

// WithDiskCacheBytes sets the on-disk store's LRU byte budget (default
// DefaultDiskCacheBytes; meaningful only with WithCacheDir). An
// entry's cost is its v1 wire length; eviction never removes an entry
// with an in-flight reader.
func WithDiskCacheBytes(n int64) ServiceOption { return func(c *serviceConfig) { c.diskBytes = n } }

// withStoreHooks injects the store's filesystem, clock, and probe
// backoff bounds — the fault-injection seam used by tests; production
// callers never need it.
func withStoreHooks(fs store.FS, now func() time.Time, bkMin, bkMax time.Duration) ServiceOption {
	return func(c *serviceConfig) {
		c.storeFS, c.storeNow = fs, now
		c.storeBkMin, c.storeBkMax = bkMin, bkMax
	}
}

// WithMaxPending bounds the admission queue: at most n submitted jobs
// may be pending or running at once, and further Submit* calls fail
// fast with ErrQueueFull (deterministic load shedding) instead of
// queueing without bound (default: unbounded). Terminal jobs do not
// count against the bound.
func WithMaxPending(n int) ServiceOption { return func(c *serviceConfig) { c.maxActive = n } }

// WithJobTimeout bounds every submitted job's total lifetime — queue
// wait included — by deriving each job's context with this deadline
// (default: none). A job that overruns is canceled exactly as if its
// submitter had canceled it.
func WithJobTimeout(d time.Duration) ServiceOption {
	return func(c *serviceConfig) { c.jobTimeout = d }
}

// WithJobTTL expires terminal jobs: once a job has been done, failed, or
// canceled for longer than the TTL it is dropped from Job / Jobs / Stats
// tracking, exactly as if Forget had been called (default: none — jobs are
// retained until the WithJobRetention cap reaps them). Held handles keep
// working.
func WithJobTTL(d time.Duration) ServiceOption { return func(c *serviceConfig) { c.jobTTL = d } }

// NewService builds a Service. Close it when done to cancel outstanding
// jobs and wait for their workers to drain.
func NewService(opts ...ServiceOption) *Service {
	cfg := serviceConfig{
		workers:    runtime.NumCPU(),
		cacheBytes: DefaultCacheBytes,
		retain:     DefaultJobRetention,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	s := &Service{
		workers:       cfg.workers,
		sem:           make(chan struct{}, cfg.workers),
		compiled:      lru.New[*compiled](maxCompiledArtifacts),
		flights:       make(map[string]*flight),
		jobs:          make(map[string]*Job),
		retain:        cfg.retain,
		executor:      cfg.executor,
		solverTimeout: cfg.solverTimeout,
		jobTTL:        cfg.jobTTL,
		jobTimeout:    cfg.jobTimeout,
		maxActive:     cfg.maxActive,
	}
	if cfg.cacheBytes > 0 {
		s.cache = lru.New[cacheEntry](cfg.cacheBytes)
	}
	if cfg.cacheDir != "" {
		if cfg.diskBytes == 0 {
			cfg.diskBytes = DefaultDiskCacheBytes
		}
		s.store = store.Open(store.Options{
			Dir: cfg.cacheDir, CapBytes: cfg.diskBytes,
			FS: cfg.storeFS, Now: cfg.storeNow,
			BackoffMin: cfg.storeBkMin, BackoffMax: cfg.storeBkMax,
		})
	}
	if cfg.executor == ExecSubprocess {
		s.pool = newSolverPool(cfg)
	}
	return s
}

var defaultService struct {
	once sync.Once
	s    *Service
}

// DefaultService returns the process-wide service backing the package-level
// Generate wrapper, creating it on first use with default options.
func DefaultService() *Service {
	defaultService.once.Do(func() { defaultService.s = NewService() })
	return defaultService.s
}

// ServiceStats is a point-in-time snapshot of a service's counters. Its
// JSON form, with durations in nanoseconds, is the body of fpvad's
// /v1/stats, which adds the daemon's own counters and the store.
type ServiceStats struct {
	// JobsSubmitted counts every accepted submission over the service's
	// lifetime; the per-state fields partition the currently retained jobs
	// (see WithJobRetention) by state.
	JobsSubmitted int `json:"jobsSubmitted"`
	JobsPending   int `json:"jobsPending"`
	JobsRunning   int `json:"jobsRunning"`
	JobsDone      int `json:"jobsDone"`
	JobsFailed    int `json:"jobsFailed"`
	JobsCanceled  int `json:"jobsCanceled"`

	// CacheHits / CacheMisses count completed-plan lookups; CacheCoalesced
	// counts generate jobs that attached to an in-flight identical solve
	// (the singleflight path). CacheEntries/CacheBytes describe current
	// occupancy against CacheCapBytes.
	CacheHits      int   `json:"cacheHits"`
	CacheMisses    int   `json:"cacheMisses"`
	CacheCoalesced int   `json:"cacheCoalesced"`
	CacheEntries   int   `json:"cacheEntries"`
	CacheBytes     int64 `json:"cacheBytes"`
	CacheCapBytes  int64 `json:"cacheCapBytes"`

	// Solves counts generation pipelines actually executed (cache misses
	// that ran to completion); SolverWall is their cumulative wall time.
	Solves     int           `json:"solves"`
	SolverWall time.Duration `json:"solverWallNs"`

	// Campaigns / CampaignWall account completed campaign jobs; Verifies
	// counts completed verification jobs.
	Campaigns    int           `json:"campaigns"`
	CampaignWall time.Duration `json:"campaignWallNs"`
	Verifies     int           `json:"verifies"`

	// Diagnoses / DiagnoseWall account completed diagnosis jobs.
	// SigCacheHits / SigCacheMisses count signature-table lookups: a hit
	// skips recompiling the candidate response matrix.
	Diagnoses      int           `json:"diagnoses"`
	DiagnoseWall   time.Duration `json:"diagnoseWallNs"`
	SigCacheHits   int           `json:"sigCacheHits"`
	SigCacheMisses int           `json:"sigCacheMisses"`

	// CompileHits / CompileMisses count compiled-vector lookups, one per
	// campaign, verify or diagnose job: a hit reuses vectors compiled for
	// the same plan content, whichever copy of the plan the job was given.
	CompileHits   int `json:"compileHits"`
	CompileMisses int `json:"compileMisses"`

	// JobsShed counts submissions rejected with ErrQueueFull by the
	// WithMaxPending admission bound.
	JobsShed int `json:"jobsShed"`

	// Store describes the durable plan store (WithCacheDir); its Mode is
	// "" when no cache directory is configured. It is left out of the
	// JSON form: fpvad serves it as an optional member.
	Store StoreStats `json:"-"`

	// Kinds partitions lifetime job counts by kind name ("generate",
	// "campaign", "verify", "diagnose"). Submitted counts acceptances;
	// Done / Failed / Canceled count terminal transitions, so their sum can
	// trail Submitted by the jobs still in flight.
	Kinds map[string]JobKindStats `json:"kinds,omitempty"`

	// SolverExecutor names where generate solves run ("in-process" or
	// "subprocess"). The Worker* fields describe the subprocess pool and
	// are zero in-process: WorkerSlots / WorkersAlive / WorkersBusy are
	// point-in-time occupancy, WorkerSpawns counts process starts,
	// WorkerRestarts counts crashes and kills recovered from, and
	// WorkerKills the supervisor-initiated subset (deadline escalation,
	// missed pings, memory limit, protocol violations).
	SolverExecutor string `json:"solverExecutor,omitempty"`
	WorkerSlots    int    `json:"workerSlots,omitempty"`
	WorkersAlive   int    `json:"workersAlive,omitempty"`
	WorkersBusy    int    `json:"workersBusy,omitempty"`
	WorkerSpawns   int    `json:"workerSpawns,omitempty"`
	WorkerRestarts int    `json:"workerRestarts,omitempty"`
	WorkerKills    int    `json:"workerKills,omitempty"`
}

// StoreStats is the public snapshot of the durable plan store behind
// WithCacheDir. Mode is "" when the service has no disk store, "ok"
// when the store is healthy, and "degraded" (with Reason set) while it
// runs memory-only after disk trouble.
type StoreStats struct {
	Mode   string `json:"mode"`
	Reason string `json:"reason,omitempty"`

	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	CapBytes int64 `json:"capBytes"`

	// Hits / Misses count disk lookups on memory-cache misses: a hit
	// served a restarted (or memory-evicted) plan without re-solving.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`

	Writes        int `json:"writes"`
	WriteErrors   int `json:"writeErrors"`
	SkippedWrites int `json:"skippedWrites"`

	ReadErrors  int `json:"readErrors"`
	Quarantined int `json:"quarantined"`
	Evictions   int `json:"evictions"`

	// Trips / Recoveries count transitions into and out of degraded
	// memory-only mode.
	Trips      int `json:"trips"`
	Recoveries int `json:"recoveries"`
}

// JobKindStats is the lifetime job accounting of one JobKind.
type JobKindStats struct {
	Submitted int `json:"submitted"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepExpiredLocked()
	st := ServiceStats{
		JobsShed:  s.shed,
		CacheHits: s.hits, CacheMisses: s.misses, CacheCoalesced: s.coalesced,
		Solves: s.solves, SolverWall: s.solverWall,
		Campaigns: s.kinds[JobCampaign].Done, CampaignWall: s.kinds[JobCampaign].wall,
		Verifies:  s.kinds[JobVerify].Done,
		Diagnoses: s.kinds[JobDiagnose].Done, DiagnoseWall: s.kinds[JobDiagnose].wall,
		SigCacheHits: s.sigHits, SigCacheMisses: s.sigMisses,
		CompileHits: s.compileHits, CompileMisses: s.compileMisses,
		Kinds: make(map[string]JobKindStats, len(s.kinds)),
	}
	for k, ks := range s.kinds {
		if ks.Submitted > 0 {
			st.JobsSubmitted += ks.Submitted
			st.Kinds[JobKind(k).String()] = ks.JobKindStats
		}
	}
	if s.cache != nil {
		st.CacheEntries = s.cache.Len()
		st.CacheBytes = s.cache.Cost()
		st.CacheCapBytes = s.cache.Cap()
	}
	if s.store != nil {
		ss := s.store.Stats()
		st.Store = StoreStats{
			Mode: ss.Mode, Reason: ss.Reason,
			Entries: ss.Entries, Bytes: ss.Bytes, CapBytes: ss.CapBytes,
			Hits: ss.Hits, Misses: ss.Misses,
			Writes: ss.Writes, WriteErrors: ss.WriteErrors, SkippedWrites: ss.SkippedWrites,
			ReadErrors: ss.ReadErrors, Quarantined: ss.Quarantined, Evictions: ss.Evictions,
			Trips: ss.Trips, Recoveries: ss.Recoveries,
		}
	}
	st.SolverExecutor = s.executor.String()
	if s.pool != nil {
		ps := s.pool.Stats()
		st.WorkerSlots = ps.Workers
		st.WorkersAlive = ps.Alive
		st.WorkersBusy = ps.Busy
		st.WorkerSpawns = ps.Spawns
		st.WorkerRestarts = ps.Restarts
		st.WorkerKills = ps.Kills
	}
	for _, j := range s.jobs {
		//lint:ignore fpva/detorder tallying states into counters is order-independent
		switch j.State() {
		case JobPending:
			st.JobsPending++
		case JobRunning:
			st.JobsRunning++
		case JobDone:
			st.JobsDone++
		case JobFailed:
			st.JobsFailed++
		case JobCanceled:
			st.JobsCanceled++
		}
	}
	return st
}

// Workers returns the size of the worker pool.
func (s *Service) Workers() int { return s.workers }

// Job returns a submitted job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepExpiredLocked()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepExpiredLocked()
	out := make([]*Job, len(s.order))
	copy(out, s.order)
	return out
}

// sweepExpiredLocked drops terminal jobs older than the WithJobTTL bound
// from tracking. The caller holds s.mu; expiry is lazy — checked on every
// lookup, registration, and terminal transition — so an idle service holds
// no timer goroutines.
func (s *Service) sweepExpiredLocked() {
	if s.jobTTL <= 0 || s.terminal == 0 {
		return
	}
	cutoff := time.Now().Add(-s.jobTTL)
	s.dropJobsLocked(func(j *Job) bool { return j.expiredBefore(cutoff) })
}

// dropJobsLocked drops from tracking every job drop selects, in submission
// order, and clears the vacated tail of the order slice's backing array so
// no dropped job stays reachable from the service. Only terminal jobs may
// be dropped. The caller holds s.mu.
func (s *Service) dropJobsLocked(drop func(*Job) bool) {
	kept := s.order[:0]
	for _, j := range s.order {
		if drop(j) {
			delete(s.jobs, j.id)
			s.terminal--
			continue
		}
		kept = append(kept, j)
	}
	clear(s.order[len(kept):])
	s.order = kept
}

// Close cancels every outstanding job, waits for their workers to drain,
// and rejects further submissions with ErrServiceClosed. It is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	jobs := make([]*Job, len(s.order))
	copy(jobs, s.order)
	s.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	s.wg.Wait()
	if s.pool != nil {
		// After the job goroutines drain no new dispatches can arrive, so
		// this is a clean stop: idle workers get EOF on stdin and exit.
		s.pool.Close()
	}
	return nil
}

// register installs a new job under the service lock (inPlan, for
// campaign, verify and diagnose jobs, is set before the job becomes
// visible to lookups). It fails once the service is closed.
func (s *Service) register(kind JobKind, ctx context.Context, progress Progress, inPlan *Plan) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("fpva: %w", ErrServiceClosed)
	}
	s.sweepExpiredLocked()
	if s.maxActive > 0 && s.active >= s.maxActive {
		s.shed++
		return nil, fmt.Errorf("fpva: %d jobs already queued or running: %w", s.active, ErrQueueFull)
	}
	s.active++
	s.seq++
	j := newJob(s, fmt.Sprintf("j%06d", s.seq), kind, ctx, progress)
	j.inPlan = inPlan
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.kinds[kind].Submitted++
	s.wg.Add(1)
	return j, nil
}

// noteTerminal is called exactly once per job as it turns terminal, and
// is the only place a job's outcome is counted: it tallies the per-kind
// outcome and adds a done job's running time (ran) to its kind's wall.
// Beyond the retention cap the oldest terminal jobs are dropped from
// tracking.
func (s *Service) noteTerminal(kind JobKind, state JobState, ran time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ks := &s.kinds[kind]
	switch state {
	case JobDone:
		ks.Done++
		ks.wall += ran
	case JobFailed:
		ks.Failed++
	case JobCanceled:
		ks.Canceled++
	}
	s.active--
	s.terminal++
	s.sweepExpiredLocked()
	if s.retain <= 0 || s.terminal <= s.retain {
		return
	}
	s.dropJobsLocked(func(j *Job) bool { return s.terminal > s.retain && j.State().Terminal() })
}

// Forget drops a terminal job from the service's tracking (Job / Jobs /
// per-state stats); the handle itself keeps working. It reports whether
// the job was known and terminal.
func (s *Service) Forget(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || !j.State().Terminal() {
		return false
	}
	s.dropJobsLocked(func(job *Job) bool { return job == j })
	return true
}

// acquireSlot blocks until a worker-pool slot is free or ctx is canceled.
func (s *Service) acquireSlot(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Service) releaseSlot() { <-s.sem }

// SubmitGenerate queues a test-generation job for the array. Options are
// those of Generate; invalid engine selections fail synchronously. The
// returned handle resolves to a *Plan via Job.Plan after Job.Wait.
//
// Submissions are deduplicated by content: a plan already in the cache
// completes the job immediately (replaying the phase events), and a
// submission identical to an in-flight one attaches to that solve instead
// of starting its own.
func (s *Service) SubmitGenerate(ctx context.Context, a *Array, opts ...GenOption) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := genConfig{blockSize: 5}
	for _, opt := range opts {
		opt(&cfg)
	}
	if _, err := cfg.coreConfig(); err != nil {
		return nil, err
	}
	j, err := s.register(JobGenerate, ctx, cfg.progress, nil)
	if err != nil {
		return nil, err
	}
	go s.runGenerate(j, a, cfg, planKey(a, cfg))
	return j, nil
}

// SubmitCampaign queues a fault-injection campaign job against the plan.
// Options are those of Plan.Campaign.
func (s *Service) SubmitCampaign(ctx context.Context, p *Plan, opts ...CampaignOption) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cfg campaignConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	j, err := s.register(JobCampaign, ctx, cfg.progress, p)
	if err != nil {
		return nil, err
	}
	all := append(append([]CampaignOption(nil), opts...), WithCampaignProgress(j.emit))
	go s.runPlanJob(j, p, func(bp *Plan) error {
		res, err := bp.Campaign(j.ctx, all...)
		j.mu.Lock()
		j.camp = res
		j.mu.Unlock()
		return err
	})
	return j, nil
}

// SubmitVerify queues an exhaustive verification job: every single
// stuck-at fault, then every distinct pair (maxPairs > 0 truncates the
// O(nv^2) pair scan).
func (s *Service) SubmitVerify(ctx context.Context, p *Plan, maxPairs int) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	j, err := s.register(JobVerify, ctx, nil, p)
	if err != nil {
		return nil, err
	}
	// Both sweeps run against one compile.
	go s.runPlanJob(j, p, func(bp *Plan) error {
		singles, err := bp.VerifySingleFaults(j.ctx)
		if err != nil {
			return err
		}
		pairs, err := bp.VerifyDoubleFaults(j.ctx, maxPairs)
		if err != nil {
			return err
		}
		j.mu.Lock()
		j.verify = VerifyResult{SingleEscapes: singles, DoubleEscapes: pairs}
		j.mu.Unlock()
		return nil
	})
	return j, nil
}

// SubmitDiagnose queues an adaptive fault-diagnosis job against the plan.
// Options are those of Plan.Diagnose. The returned handle resolves to a
// *Diagnosis via Job.Diagnosis after Job.Wait, and emits one DiagnoseTick
// event per observation round.
//
// Signature tables live in the service's compiled entry for the plan's
// content, one per candidate universe, so repeated diagnoses of the same
// plan, however many decoded copies they arrive on, skip the expensive
// response-matrix build; Job.CacheHit reports whether the table was
// reused. The service stores nothing on p.
func (s *Service) SubmitDiagnose(ctx context.Context, p *Plan, obs []Observation, opts ...DiagnoseOption) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cfg diagnoseConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	// Deep-copy the observations: the job goroutine reads them after
	// SubmitDiagnose returns, and the caller may reuse its buffers.
	obsCopy := make([]Observation, len(obs))
	for i, o := range obs {
		obsCopy[i] = Observation{Vector: o.Vector, Readings: append([]bool(nil), o.Readings...)}
	}
	j, err := s.register(JobDiagnose, ctx, cfg.progress, p)
	if err != nil {
		return nil, err
	}
	// Route round ticks through the job (j.emit already invokes the
	// submitter's callback synchronously).
	cfg.progress = j.emit
	go s.runPlanJob(j, p, func(bp *Plan) error {
		d, hit, err := bp.diagnose(j.ctx, cfg, obsCopy)
		s.noteSignatures(bp.compiled, hit)
		j.mu.Lock()
		j.cacheHit, j.diag = hit, d
		j.mu.Unlock()
		return err
	})
	return j, nil
}

// bind returns a transient copy of p bound to the service's compiled entry
// for p's content. A miss compiles outside the service lock; of two
// concurrent misses, the first insert wins. The entry is never stored on
// p: retained jobs hold their input plan and must not pin it.
func (s *Service) bind(p *Plan) (*Plan, error) {
	key := compiledKey(p)
	s.mu.Lock()
	e, ok := s.compiled.Get(key)
	if ok {
		s.compileHits++
	} else {
		s.compileMisses++
	}
	s.mu.Unlock()
	if !ok {
		c, err := compilePlan(p, key)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		if e, ok = s.compiled.Get(key); !ok {
			e = c
			s.compiled.Put(key, e, 1)
		}
		s.mu.Unlock()
	}
	return &Plan{a: p.a, ts: p.ts, geometry: p.geometry, compiled: e}, nil
}

// noteSignatures counts a diagnose job's signature-table lookup on e. A
// new table re-charges the entry, so varying the options on one plan
// cannot grow the cache past its cap.
func (s *Service) noteSignatures(e *compiled, hit bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if hit {
		s.sigHits++
		return
	}
	s.sigMisses++
	if cur, ok := s.compiled.Get(e.key); ok && cur == e {
		s.compiled.Put(e.key, e, e.cost())
	}
}

// flight is one in-flight generation shared by every job that asked for
// the same cache key (singleflight). Its context is canceled only when all
// attached jobs have canceled, so one impatient caller cannot abort a
// solve others still want.
type flight struct {
	key    string
	ctx    context.Context
	cancel context.CancelFunc

	// refs / subs / events / running are guarded by the service mutex.
	// events lets a job that attaches mid-solve replay the phases it
	// missed.
	refs    int
	subs    []*Job
	events  []Event
	running bool

	done   chan struct{}
	plan   *Plan  // solved or decoded; each job gets it on its own array (planOn)
	wire   []byte // v1 wire encoding of plan (caching services only)
	cached bool   // served from the disk store, not a fresh solve
	err    error
}

// runGenerate is a generate job's goroutine: cache lookup, flight
// join-or-create, then wait for the shared result or the job's own
// cancellation.
func (s *Service) runGenerate(j *Job, a *Array, cfg genConfig, key string) {
	defer s.wg.Done()
	if err := j.ctx.Err(); err != nil {
		j.finish(JobCanceled, fmt.Errorf("fpva: generate: %w", err))
		return
	}
	s.mu.Lock()
	if s.cache != nil {
		if ent, ok := s.cache.Get(key); ok {
			s.hits++
			s.mu.Unlock()
			j.setRunning()
			// Replay the events the original solve recorded, so cached and
			// cold callers observe the same progress sequence.
			for _, e := range ent.events {
				j.emit(e)
			}
			j.finishHit(a, ent)
			return
		}
	}
	fl, ok := s.flights[key]
	if ok {
		s.coalesced++
		fl.refs++
		// Catch-up handoff: replay recorded events outside the lock, then
		// join the live subscriber list only once caught up — the flight
		// never delivers to a job that is still replaying, so each follower
		// observes the phase events in emission order.
		replayed := 0
		for {
			pending := append([]Event(nil), fl.events[replayed:]...)
			if len(pending) == 0 {
				fl.subs = append(fl.subs, j)
				if fl.running {
					s.mu.Unlock()
					j.setRunning()
				} else {
					s.mu.Unlock()
				}
				break
			}
			replayed += len(pending)
			s.mu.Unlock()
			for _, e := range pending {
				j.emit(e)
			}
			s.mu.Lock()
		}
	} else {
		s.misses++
		fl = &flight{key: key, refs: 1, subs: []*Job{j}, done: make(chan struct{})}
		//lint:ignore fpva/ctxflow a flight is shared by every coalesced submitter, so its lifetime must detach from any one caller's ctx; Close cancels it
		fl.ctx, fl.cancel = context.WithCancel(context.Background())
		s.flights[key] = fl
		s.wg.Add(1)
		go s.runFlight(fl, a, cfg, key)
		s.mu.Unlock()
	}
	select {
	case <-fl.done:
		if fl.err != nil {
			j.finish(j.classifyTerminal(), fl.err)
		} else {
			j.finishPlan(planOn(a, fl.plan), fl.wire, fl.cached)
		}
	case <-j.ctx.Done():
		s.detach(fl, j)
		j.finish(JobCanceled, fmt.Errorf("fpva: generate: %w", j.ctx.Err()))
	}
}

// planOn returns p on the array a: p itself when it is a's plan,
// otherwise a shallow copy that shares p's vectors, geometry and
// statistics. a has the plan key of p's array, the same text and port
// valves in the same order, so only port names can differ, and neither
// the vectors nor the compiled key read them.
func planOn(a *Array, p *Plan) *Plan {
	if p.a == a {
		return p
	}
	ts := *p.ts
	ts.Array = a.g
	return &Plan{a: a, ts: &ts, geometry: p.geometry}
}

// detach removes a canceled job from its flight; the last one out cancels
// the solve and unpublishes the flight, so a later identical submission
// starts fresh instead of joining a doomed solve.
func (s *Service) detach(fl *flight, j *Job) {
	s.mu.Lock()
	for i, sub := range fl.subs {
		if sub == j {
			fl.subs = append(fl.subs[:i], fl.subs[i+1:]...)
			fl.refs--
			break
		}
	}
	last := fl.refs == 0
	if last && s.flights[fl.key] == fl {
		delete(s.flights, fl.key)
	}
	s.mu.Unlock()
	if last {
		fl.cancel()
	}
}

// runFlight executes one deduplicated generation: acquire a worker slot,
// run the pipeline with progress fanned out to every attached job, store
// the plan in the cache, and publish the result.
func (s *Service) runFlight(fl *flight, a *Array, cfg genConfig, key string) {
	defer s.wg.Done()
	defer fl.cancel()
	finish := func(plan *Plan, err error) {
		s.mu.Lock()
		// Guard against unpublishing a successor: detach may already have
		// removed this flight and a new submission registered a fresh one
		// under the same key.
		if s.flights[key] == fl {
			delete(s.flights, key)
		}
		s.mu.Unlock()
		fl.plan, fl.err = plan, err
		close(fl.done)
	}
	// Durable cache read-back: a plan solved before the last restart (or
	// evicted from memory under pressure) is served from disk —
	// checksum-verified, bit-identical wire bytes, no solver slot
	// consumed. Concurrent identical submissions coalesce onto this
	// flight first, so the disk sees one read however many clients ask.
	if s.store != nil {
		if wire, ok := s.store.Get(key); ok {
			if plan, derr := decodePlan(wire); derr == nil {
				s.mu.Lock()
				if s.cache != nil {
					s.cache.Put(key, cacheEntry{wire: wire}, int64(len(wire)))
				}
				s.mu.Unlock()
				fl.wire = wire
				fl.cached = true
				finish(plan, nil)
				return
			}
			// Verified bytes that fail to decode mean codec drift, not disk
			// corruption; solve fresh and overwrite the entry.
		}
	}
	if err := s.acquireSlot(fl.ctx); err != nil {
		finish(nil, fmt.Errorf("fpva: generate: %w", err))
		return
	}
	defer s.releaseSlot()
	s.mu.Lock()
	fl.running = true
	subs := append([]*Job(nil), fl.subs...)
	s.mu.Unlock()
	for _, j := range subs {
		j.setRunning()
	}
	coreCfg, err := cfg.coreConfig()
	if err != nil {
		finish(nil, err)
		return
	}
	sctx := fl.ctx
	if s.solverTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(fl.ctx, s.solverTimeout)
		defer cancel()
	}
	t0 := time.Now()
	var plan *Plan
	if s.pool != nil {
		// Subprocess executor: the solve runs in a supervised worker; its
		// response IS the plan's wire encoding, kept verbatim in fl.wire.
		plan, err = s.solveSubprocess(sctx, fl, a, cfg)
		if err != nil {
			finish(nil, err)
			return
		}
	} else {
		coreCfg.OnPhase = func(ph core.Phase, done bool) {
			kind := PhaseStarted
			if done {
				kind = PhaseFinished
			}
			fl.emit(s, Event{Kind: kind, Phase: Phase(ph)})
		}
		ts, genErr := core.Generate(sctx, a.g, coreCfg)
		if genErr != nil {
			finish(nil, genErr)
			return
		}
		plan = &Plan{a: a, ts: ts, geometry: true}
		// Materialize the wire bytes once, outside the service lock — a large
		// plan must not stall unrelated submissions and stats. These exact
		// bytes back every later fetch: the cache entry, the disk store,
		// Job.PlanBytes, and fpvad's /plan handler all serve them without
		// re-encoding.
		if s.cache != nil || s.store != nil {
			fl.wire = encodePlan(plan, true)
		}
	}
	wall := time.Since(t0)
	s.mu.Lock()
	s.solves++
	s.solverWall += wall
	if s.cache != nil && fl.wire != nil {
		ent := cacheEntry{wire: fl.wire, events: append([]Event(nil), fl.events...)}
		if plan.geometry {
			ent.geom = &geometry{paths: plan.ts.Paths, cuts: plan.ts.Cuts}
		}
		s.cache.Put(key, ent, int64(len(fl.wire)))
	}
	s.mu.Unlock()
	// Write-through outside the service lock: disk latency (or a store
	// stuck probing a sick disk) must not stall submissions and stats.
	if s.store != nil && fl.wire != nil {
		s.store.Put(key, fl.wire)
	}
	finish(plan, nil)
}

// emit records a flight event and fans it out to the currently attached
// jobs (delivery happens outside the service lock: Progress callbacks are
// user code).
func (fl *flight) emit(s *Service, e Event) {
	s.mu.Lock()
	fl.events = append(fl.events, e)
	subs := append([]*Job(nil), fl.subs...)
	s.mu.Unlock()
	for _, j := range subs {
		j.emit(e)
	}
}

// runPlanJob is the goroutine of a campaign, verify or diagnose job: it
// waits for a worker slot, binds p to the service's compiled entry for its
// content, and runs body on the bound copy. body records the job's result;
// finish counts the outcome.
func (s *Service) runPlanJob(j *Job, p *Plan, body func(bp *Plan) error) {
	defer s.wg.Done()
	if err := s.acquireSlot(j.ctx); err != nil {
		j.finish(JobCanceled, fmt.Errorf("fpva: %v: %w", j.kind, err))
		return
	}
	defer s.releaseSlot()
	j.setRunning()
	bp, err := s.bind(p)
	if err == nil {
		err = body(bp)
	}
	if err != nil {
		j.finish(j.classifyTerminal(), err)
		return
	}
	j.finish(JobDone, nil)
}
