// Command fpvad serves the FPVA pipeline over HTTP: one long-lived
// fpva.Service (plan cache, singleflight dedup, bounded worker pool)
// behind a small JSON job API, so fpvatest/fpvasim workflows can run
// against a shared remote engine instead of re-solving per process.
//
// Usage:
//
//	fpvad                          serve on 127.0.0.1:8471
//	fpvad -addr :9000 -workers 8   tune the bind address and worker pool
//	fpvad -cache-mb 256            raise the plan-cache byte budget
//	fpvad -cache-dir /var/lib/fpvad  persist plans on disk: a restarted
//	                               daemon serves bit-identical bytes for
//	                               everything it solved before
//	fpvad -pprof-addr 127.0.0.1:6060  expose net/http/pprof (loopback only)
//	fpvad -solver-exec subprocess  run solves in fpvaworker subprocesses
//	fpvad -solver-exec subprocess -solver-workers 4 -worker-mem-mb 512 \
//	      -solver-timeout 5m       size and resource-limit the worker pool
//	fpvad -job-ttl 1h              expire terminal jobs after an hour
//	fpvad -token-file tokens -rate 10 -burst 20 -max-pending 256 \
//	      -job-timeout 10m         multi-tenant admission control: bearer
//	                               auth, per-client rate limits (429 +
//	                               Retry-After), bounded job queue (503)
//	fpvad -config fpvad.json       read all of the above from a JSON file
//	                               (flags override it); -validate checks
//	                               the configuration and exits
//
// With -cache-dir the content-addressed plan cache is written through
// to disk (atomic temp-file+rename, checksums verified on read, torn
// entries quarantined), so the cache survives kill -9 at any instant.
// On disk trouble (ENOSPC, EIO) the store degrades to memory-only mode
// and re-probes with backoff; /healthz reports "degraded" with the
// reason — still with HTTP 200 unless ?strict=1 asks for a 503.
//
// With -solver-exec subprocess every generate solve runs in a supervised
// fpvaworker process (found next to the fpvad binary, or via PATH;
// override with -solver-worker-bin): a crashing or runaway solver fails
// only its own job, the pool restarts the worker, and the daemon keeps
// serving. Plan bytes are identical to in-process mode up to timing
// statistics.
//
// API (all payloads JSON; plans and arrays use the v1 wire format):
//
//	POST /v1/jobs                submit {"kind":"generate"|"campaign"|"verify"|"diagnose", ...}
//	GET  /v1/jobs                list jobs
//	GET  /v1/jobs/{id}           job status
//	POST /v1/jobs/{id}/cancel    cancel a job
//	DELETE /v1/jobs/{id}         forget a terminal job (409 while running)
//	GET  /v1/jobs/{id}/events    NDJSON progress stream (replays, then follows)
//	GET  /v1/jobs/{id}/result    generate: the plan; campaign/verify: a report;
//	                             diagnose: the diagnosis in the v1 wire format
//	GET  /v1/jobs/{id}/plan      the job's plan (result or submitted input)
//	GET  /v1/stats               service counters (cache, store, workers,
//	                             admission)
//	GET  /healthz                liveness: JSON status document, 200 for
//	                             both "ok" and "degraded" (?strict=1
//	                             turns degraded into 503); exempt from
//	                             auth and rate limits
//
// Exit codes: 0 on clean shutdown (SIGINT/SIGTERM), 1 on runtime failure,
// 2 on a usage error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/cmd/internal/api"
	"repro/cmd/internal/cli"
	"repro/fpva"
)

// maxBodyBytes bounds submitted payloads (a 30x30 plan is ~1 MiB).
const maxBodyBytes = 32 << 20

type options struct {
	addr       string
	workers    int
	cacheMB    int
	cacheDir   string
	cacheDirMB int
	pprofAddr  string

	solverExecName string
	solverExec     fpva.SolverExecutor
	solverWorkers  int
	workerBin      string
	workerMemMB    int
	solverTimeout  time.Duration
	jobTTL         time.Duration
	jobTimeout     time.Duration

	tokenFile  string
	ratePerSec float64
	rateBurst  int
	maxPending int

	configPath string
	validate   bool
}

// defaultOptions is the base layer of the precedence stack: defaults,
// then the config file, then command-line flags.
func defaultOptions() options {
	return options{
		addr:           "127.0.0.1:8471",
		cacheMB:        64,
		cacheDirMB:     256,
		solverExecName: "in-process",
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	if opt.validate {
		if err := checkConfig(opt); err != nil {
			fmt.Fprintln(stderr, "fpvad:", err)
			return exitCode(err)
		}
		fmt.Fprintln(stdout, "fpvad: configuration ok")
		return 0
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, stdout, opt); err != nil {
		fmt.Fprintln(stderr, "fpvad:", err)
		return exitCode(err)
	}
	return 0
}

// checkConfig runs the validations that need I/O (the pure flag checks
// already ran in parseFlags): the token file must load. -validate uses
// it; run performs the same loads for real.
func checkConfig(opt options) error {
	if opt.tokenFile != "" {
		if _, err := loadTokenFile(opt.tokenFile); err != nil {
			return usagef("-token-file: %v", err)
		}
	}
	return nil
}

// usagef / exitCode alias the repo-wide CLI exit-code contract
// (cmd/internal/cli): usage 2, deadline 2, runtime 1, success 0.
var (
	usagef   = cli.Usagef
	exitCode = cli.ExitCode
)

func parseFlags(args []string, stderr io.Writer) (options, error) {
	// The config file (found by a pre-scan) seeds the flag defaults, so
	// "flags override file" falls out of flag.Parse itself.
	opt := defaultOptions()
	cfgPath, err := scanConfigArg(args)
	if err != nil {
		fmt.Fprintln(stderr, "fpvad:", err)
		return opt, usagef("%v", err)
	}
	if cfgPath != "" {
		if err := applyConfigFile(cfgPath, &opt); err != nil {
			fmt.Fprintln(stderr, "fpvad:", err)
			return opt, usagef("%v", err)
		}
	}
	fs := flag.NewFlagSet("fpvad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.configPath, "config", cfgPath, "JSON config file; flags given on the command line override it")
	fs.BoolVar(&opt.validate, "validate", false, "parse and check the configuration (config file, flags, token file), then exit")
	fs.StringVar(&opt.addr, "addr", opt.addr, "listen address (use :0 for an ephemeral port)")
	fs.IntVar(&opt.workers, "workers", opt.workers, "concurrent jobs (0 = all CPUs)")
	fs.IntVar(&opt.cacheMB, "cache-mb", opt.cacheMB, "plan-cache byte budget in MiB (0 disables caching)")
	fs.StringVar(&opt.cacheDir, "cache-dir", opt.cacheDir, "persist the plan cache in this directory (empty = memory only)")
	fs.IntVar(&opt.cacheDirMB, "cache-dir-mb", opt.cacheDirMB, "on-disk plan-store byte budget in MiB")
	fs.StringVar(&opt.pprofAddr, "pprof-addr", opt.pprofAddr, "serve net/http/pprof on this loopback address (empty = disabled)")
	fs.StringVar(&opt.solverExecName, "solver-exec", opt.solverExecName, "solver executor: in-process or subprocess")
	fs.IntVar(&opt.solverWorkers, "solver-workers", opt.solverWorkers, "subprocess-mode worker pool size (0 = the -workers value); the request field generate.solverWorkers sets branch-and-bound workers instead")
	fs.StringVar(&opt.workerBin, "solver-worker-bin", opt.workerBin, "solver worker binary (empty = fpvaworker next to fpvad, then PATH)")
	fs.IntVar(&opt.workerMemMB, "worker-mem-mb", opt.workerMemMB, "per-worker soft memory ceiling in MiB, hard RSS kill at twice that (0 = unlimited)")
	fs.DurationVar(&opt.solverTimeout, "solver-timeout", opt.solverTimeout, "per-solve deadline, e.g. 5m (0 = none)")
	fs.DurationVar(&opt.jobTTL, "job-ttl", opt.jobTTL, "drop terminal jobs from tracking after this long, e.g. 1h (0 = keep)")
	fs.DurationVar(&opt.jobTimeout, "job-timeout", opt.jobTimeout, "per-job lifetime bound, queue wait included, e.g. 10m (0 = none)")
	fs.StringVar(&opt.tokenFile, "token-file", opt.tokenFile, "bearer-token credential file, one name:token per line (empty = no auth)")
	fs.Float64Var(&opt.ratePerSec, "rate", opt.ratePerSec, "per-client sustained request rate limit in req/s (0 = unlimited)")
	fs.IntVar(&opt.rateBurst, "burst", opt.rateBurst, "per-client rate-limit burst size (0 = 1)")
	fs.IntVar(&opt.maxPending, "max-pending", opt.maxPending, "admission bound: max jobs queued or running before submissions shed with 503 (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return opt, err
		}
		return opt, usagef("%v", err)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fpvad: unexpected argument %q\n", fs.Arg(0))
		return opt, usagef("unexpected argument %q", fs.Arg(0))
	}
	if opt.pprofAddr != "" {
		if err := checkLoopback(opt.pprofAddr); err != nil {
			fmt.Fprintln(stderr, "fpvad:", err)
			return opt, usagef("%v", err)
		}
	}
	exec, err := fpva.ParseSolverExecutor(opt.solverExecName)
	if err != nil {
		fmt.Fprintf(stderr, "fpvad: -solver-exec %q: want in-process or subprocess\n", opt.solverExecName)
		return opt, usagef("-solver-exec %q", opt.solverExecName)
	}
	opt.solverExec = exec
	if opt.ratePerSec < 0 {
		fmt.Fprintln(stderr, "fpvad: -rate must be >= 0")
		return opt, usagef("-rate must be >= 0")
	}
	for _, iv := range []struct {
		name string
		v    int
	}{
		{"-workers", opt.workers},
		{"-cache-mb", opt.cacheMB},
		{"-cache-dir-mb", opt.cacheDirMB},
		{"-solver-workers", opt.solverWorkers},
		{"-worker-mem-mb", opt.workerMemMB},
		{"-solver-timeout", int(opt.solverTimeout)},
		{"-job-ttl", int(opt.jobTTL)},
		{"-job-timeout", int(opt.jobTimeout)},
		{"-burst", opt.rateBurst},
		{"-max-pending", opt.maxPending},
	} {
		if iv.v < 0 {
			fmt.Fprintf(stderr, "fpvad: %s must be >= 0\n", iv.name)
			return opt, usagef("%s must be >= 0", iv.name)
		}
	}
	return opt, nil
}

// checkLoopback rejects pprof bind addresses that would expose the
// profiling endpoints (heap contents, goroutine dumps) beyond the local
// machine.
func checkLoopback(addr string) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-pprof-addr %q: %v", addr, err)
	}
	if host == "localhost" {
		return nil
	}
	if ip := net.ParseIP(host); ip != nil && ip.IsLoopback() {
		return nil
	}
	return fmt.Errorf("-pprof-addr %q is not loopback; profiling is local-only", addr)
}

func run(ctx context.Context, w io.Writer, opt options) error {
	svcOpts := []fpva.ServiceOption{fpva.WithCacheBytes(int64(opt.cacheMB) << 20)}
	if opt.workers > 0 {
		svcOpts = append(svcOpts, fpva.WithServiceWorkers(opt.workers))
	}
	svcOpts = append(svcOpts, fpva.WithSolverExecutor(opt.solverExec))
	if opt.workerBin != "" {
		svcOpts = append(svcOpts, fpva.WithWorkerCommand(opt.workerBin))
	}
	if opt.solverWorkers > 0 {
		svcOpts = append(svcOpts, fpva.WithSolverPoolSize(opt.solverWorkers))
	}
	if opt.workerMemMB > 0 {
		svcOpts = append(svcOpts, fpva.WithWorkerMemLimitMB(opt.workerMemMB))
	}
	if opt.solverTimeout > 0 {
		svcOpts = append(svcOpts, fpva.WithSolverTimeout(opt.solverTimeout))
	}
	if opt.jobTTL > 0 {
		svcOpts = append(svcOpts, fpva.WithJobTTL(opt.jobTTL))
	}
	if opt.cacheDir != "" {
		svcOpts = append(svcOpts, fpva.WithCacheDir(opt.cacheDir),
			fpva.WithDiskCacheBytes(int64(opt.cacheDirMB)<<20))
	}
	if opt.maxPending > 0 {
		svcOpts = append(svcOpts, fpva.WithMaxPending(opt.maxPending))
	}
	if opt.jobTimeout > 0 {
		svcOpts = append(svcOpts, fpva.WithJobTimeout(opt.jobTimeout))
	}
	var tokens map[string]string
	if opt.tokenFile != "" {
		var err error
		if tokens, err = loadTokenFile(opt.tokenFile); err != nil {
			return usagef("-token-file: %v", err)
		}
	}
	adm := newAdmission(tokens, opt.ratePerSec, opt.rateBurst)
	svc := fpva.NewService(svcOpts...)
	defer svc.Close()
	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler: adm.wrap(newServer(svc, adm)),
		// Slow-loris guard: a client must finish its request headers
		// promptly or lose the connection (bodies are already bounded by
		// maxBodyBytes).
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Fprintf(w, "fpvad: listening on http://%s (%d workers, %d MiB plan cache, %v solver)\n",
		ln.Addr(), svc.Workers(), opt.cacheMB, opt.solverExec)
	if opt.cacheDir != "" {
		fmt.Fprintf(w, "fpvad: durable plan store in %s (%d MiB)\n", opt.cacheDir, opt.cacheDirMB)
	}
	if adm != nil {
		fmt.Fprintf(w, "fpvad: admission control: auth=%v rate=%g/s burst=%d\n",
			tokens != nil, opt.ratePerSec, opt.rateBurst)
	}
	var pprofSrv *http.Server
	if opt.pprofAddr != "" {
		pln, err := net.Listen("tcp", opt.pprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		// The job API runs on its own mux, so the default mux carries only
		// the net/http/pprof registrations — serve it on the loopback-only
		// profiling listener.
		pprofSrv = &http.Server{Handler: http.DefaultServeMux}
		fmt.Fprintf(w, "fpvad: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go pprofSrv.Serve(pln)
	}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		// Cancel the jobs first: event streams of running jobs end with a
		// terminal status line instead of stalling Shutdown until its
		// timeout severs them mid-flight.
		svc.Close()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
		if pprofSrv != nil {
			pprofSrv.Shutdown(shutCtx)
		}
	}()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Serve returns as soon as Shutdown is called; wait for the in-flight
	// requests to actually drain (bounded by the Shutdown timeout) before
	// tearing the service down.
	<-shutdownDone
	fmt.Fprintln(w, "fpvad: shut down")
	return nil
}

// server routes the job API onto one fpva.Service. adm (may be nil)
// supplies the admission counters for /v1/stats; the middleware itself
// wraps the whole handler in run.
type server struct {
	svc *fpva.Service
	adm *admission
}

func newServer(svc *fpva.Service, adm *admission) http.Handler {
	s := &server{svc: svc, adm: adm}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /v1/stats", s.stats)
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs", s.list)
	mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.cancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.delete)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.result)
	mux.HandleFunc("GET /v1/jobs/{id}/plan", s.plan)
	return mux
}

// healthz is the liveness document. A degraded plan store (daemon still
// serves, memory-only) keeps the 200 so load balancers don't flap;
// ?strict=1 opts orchestrators into a 503 they can drain on.
func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	h := api.Health{
		Status: "ok",
		Workers: &api.HealthWorkers{
			Slots:    st.WorkerSlots,
			Executor: st.SolverExecutor,
			Alive:    st.WorkersAlive,
			Busy:     st.WorkersBusy,
		},
	}
	if h.Workers.Slots == 0 {
		h.Workers.Slots = s.svc.Workers()
	}
	if st.Store.Mode != "" {
		h.Store = &api.HealthStore{Mode: st.Store.Mode, Reason: st.Store.Reason}
		if st.Store.Mode == "degraded" {
			h.Status = "degraded"
		}
	}
	status := http.StatusOK
	if h.Status != "ok" && r.URL.Query().Get("strict") == "1" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	out := api.ServiceStats{ServiceStats: s.svc.Stats()}
	out.AuthFailures, out.RateLimited = s.adm.counters()
	if out.ServiceStats.Store.Mode != "" {
		out.Store = &out.ServiceStats.Store
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	var req api.SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("parse request: %w", err))
		return
	}
	var job *fpva.Job
	switch req.Kind {
	case "generate":
		job, err = s.submitGenerate(req)
	case "campaign", "verify", "diagnose":
		job, err = s.submitPlanJob(req)
	default:
		err = fmt.Errorf("unknown job kind %q (want generate, campaign, verify or diagnose)", req.Kind)
	}
	if err != nil {
		httpError(w, statusForSubmitError(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, api.JobStatus(job))
}

// statusForSubmitError: malformed payloads are the client's fault; a
// closed service or a full job queue (WithMaxPending shedding) is a
// server-side 503 the client should back off and retry.
func statusForSubmitError(err error) int {
	if errors.Is(err, fpva.ErrServiceClosed) || errors.Is(err, fpva.ErrQueueFull) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// clampWorkers caps a request's parallelism at limit (GOMAXPROCS). A job
// starts one goroutine, and for ILP solves one LP solver, per worker, and
// the request chooses the count; more workers than processors add
// nothing. Campaign and diagnose answers are identical for any worker
// count, and ILP answers whenever the solve completes, so the cap changes
// no answer.
func clampWorkers(n, limit int) int {
	return min(n, limit)
}

func (s *server) submitGenerate(req api.SubmitRequest) (*fpva.Job, error) {
	if len(req.Array) == 0 {
		return nil, fmt.Errorf("generate job needs an %q payload", "array")
	}
	a, err := fpva.DecodeArray(bytes.NewReader(req.Array))
	if err != nil {
		return nil, err
	}
	var opts []fpva.GenOption
	if p := req.Generate; p != nil {
		if p.Direct {
			opts = append(opts, fpva.WithDirectModel())
		}
		if p.Block > 0 {
			opts = append(opts, fpva.WithBlockSize(p.Block))
		}
		if p.SkipLeakage {
			opts = append(opts, fpva.WithoutLeakage())
		}
		if p.SolverWorkers > 0 {
			opts = append(opts, fpva.WithSolverWorkers(clampWorkers(p.SolverWorkers, runtime.GOMAXPROCS(0))))
		}
		if p.PathEngine != "" {
			eng, err := fpva.ParsePathEngine(p.PathEngine)
			if err != nil {
				return nil, err
			}
			opts = append(opts, fpva.WithPathEngine(eng))
		}
		if p.CutEngine != "" {
			eng, err := fpva.ParseCutEngine(p.CutEngine)
			if err != nil {
				return nil, err
			}
			opts = append(opts, fpva.WithCutEngine(eng))
		}
	}
	// Jobs outlive the submitting request: the API's cancellation surface
	// is POST /v1/jobs/{id}/cancel, not the HTTP connection.
	return s.svc.SubmitGenerate(context.Background(), a, opts...)
}

func (s *server) submitPlanJob(req api.SubmitRequest) (*fpva.Job, error) {
	if len(req.Plan) == 0 {
		return nil, fmt.Errorf("%s job needs a %q payload", req.Kind, "plan")
	}
	plan, err := fpva.DecodePlan(bytes.NewReader(req.Plan))
	if err != nil {
		return nil, err
	}
	if req.Kind == "verify" {
		maxPairs := 0
		if req.Verify != nil {
			maxPairs = req.Verify.MaxPairs
		}
		return s.svc.SubmitVerify(context.Background(), plan, maxPairs)
	}
	if req.Kind == "diagnose" {
		return s.submitDiagnose(plan, req.Diagnose)
	}
	var opts []fpva.CampaignOption
	if p := req.Campaign; p != nil {
		if p.Trials > 0 {
			opts = append(opts, fpva.WithTrials(p.Trials))
		}
		if p.Faults > 0 {
			opts = append(opts, fpva.WithNumFaults(p.Faults))
		}
		if p.Seed != 0 {
			opts = append(opts, fpva.WithSeed(p.Seed))
		}
		if p.Workers > 0 {
			opts = append(opts, fpva.WithCampaignWorkers(clampWorkers(p.Workers, runtime.GOMAXPROCS(0))))
		}
		if p.MaxEscapes > 0 {
			opts = append(opts, fpva.WithMaxEscapes(p.MaxEscapes))
		}
		if p.Leaks {
			opts = append(opts, fpva.WithLeakFaults())
		}
	}
	return s.svc.SubmitCampaign(context.Background(), plan, opts...)
}

// submitDiagnose maps the wire params onto fpva diagnose options and
// submits the job. Observation readings are already fresh slices from the
// JSON decode, so the service's own deep copy is the only one retained.
func (s *server) submitDiagnose(plan *fpva.Plan, p *api.DiagnoseParams) (*fpva.Job, error) {
	var obs []fpva.Observation
	var opts []fpva.DiagnoseOption
	if p != nil {
		for _, o := range p.Observations {
			obs = append(obs, fpva.Observation{Vector: o.Vector, Readings: o.Readings})
		}
		if p.Workers > 0 {
			opts = append(opts, fpva.WithDiagnoseWorkers(clampWorkers(p.Workers, runtime.GOMAXPROCS(0))))
		}
		if p.Budget > 0 {
			opts = append(opts, fpva.WithProbeBudget(p.Budget))
		}
		if p.MaxDoubles > 0 {
			opts = append(opts, fpva.WithDoubleFaultCandidates(p.MaxDoubles))
		}
		if p.NoLeaks {
			opts = append(opts, fpva.WithoutLeakCandidates())
		}
	}
	return s.svc.SubmitDiagnose(context.Background(), plan, obs, opts...)
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	jobs := s.svc.Jobs()
	out := make([]api.Job, len(jobs))
	for i, j := range jobs {
		out[i] = api.JobStatus(j)
	}
	writeJSON(w, http.StatusOK, out)
}

// lookup resolves {id} or writes a 404.
func (s *server) lookup(w http.ResponseWriter, r *http.Request) (*fpva.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.svc.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
	}
	return j, ok
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, api.JobStatus(j))
	}
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, api.JobStatus(j))
}

// delete forgets a terminal job: its id stops resolving and it leaves
// the per-state stats (lifetime counters keep it). Deleting a job that
// is still pending or running is a 409 — cancel it first.
func (s *server) delete(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !s.svc.Forget(j.ID()) {
		// Known but not forgettable: the job has not reached a terminal
		// state (a concurrent Forget losing the race lands here too, and
		// 409 is still an honest answer: retry resolves it to a 404).
		httpError(w, http.StatusConflict,
			fmt.Errorf("job %s is %v; cancel it or wait before deleting", j.ID(), j.State()))
		return
	}
	writeJSON(w, http.StatusOK, api.JobStatus(j))
}

// events streams the job's progress as NDJSON: every recorded event from
// the start (so late watchers replay history), live events as they happen,
// and a terminal status line once the job finishes.
func (s *server) events(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for e := range j.Stream(r.Context()) {
		if enc.Encode(api.EventStatus(e)) != nil {
			return // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if r.Context().Err() != nil {
		return
	}
	enc.Encode(api.JobStatus(j))
	if flusher != nil {
		flusher.Flush()
	}
}

// notDone writes the appropriate error for a job whose result is not
// fetchable yet (409 while in flight, 500/409 for failed/canceled runs).
func notDone(w http.ResponseWriter, j *fpva.Job) bool {
	switch j.State() {
	case fpva.JobDone:
		return false
	case fpva.JobFailed:
		httpError(w, http.StatusInternalServerError, j.Err())
	case fpva.JobCanceled:
		httpError(w, http.StatusConflict, fmt.Errorf("job %s was canceled", j.ID()))
	default:
		httpError(w, http.StatusConflict, fmt.Errorf("job %s is %v; poll until done", j.ID(), j.State()))
	}
	return true
}

func (s *server) result(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok || notDone(w, j) {
		return
	}
	switch j.Kind() {
	case fpva.JobGenerate:
		s.writePlan(w, j)
	case fpva.JobCampaign:
		res, err := j.Campaign()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		rep := api.CampaignReport{
			Format: "fpva.campaign", Version: fpva.CodecVersion,
			Trials: res.Trials, Detected: res.Detected,
			Rate: res.DetectionRate(), Sims: res.Sims,
		}
		for _, esc := range res.Escapes {
			fs := make([]api.Fault, len(esc))
			for i, f := range esc {
				fs[i] = api.FaultStatus(f)
			}
			rep.Escapes = append(rep.Escapes, fs)
		}
		writeJSON(w, http.StatusOK, rep)
	case fpva.JobVerify:
		res, err := j.Verify()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		rep := api.VerifyReport{
			Format: "fpva.verify", Version: fpva.CodecVersion,
			SingleEscapes: []api.Fault{}, DoubleEscapes: [][2]api.Fault{},
		}
		for _, f := range res.SingleEscapes {
			rep.SingleEscapes = append(rep.SingleEscapes, api.FaultStatus(f))
		}
		for _, pair := range res.DoubleEscapes {
			rep.DoubleEscapes = append(rep.DoubleEscapes,
				[2]api.Fault{api.FaultStatus(pair[0]), api.FaultStatus(pair[1])})
		}
		writeJSON(w, http.StatusOK, rep)
	case fpva.JobDiagnose:
		d, err := j.Diagnosis()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		// Serve the diagnosis in its v1 wire format (like /plan serves
		// plans): curl output is DecodeDiagnosis-ready with no daemon-side
		// re-shaping to drift from the codec.
		var buf bytes.Buffer
		if err := fpva.EncodeDiagnosis(&buf, d); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
		w.WriteHeader(http.StatusOK)
		w.Write(buf.Bytes())
	}
}

// plan serves the job's plan in the v1 wire format: the generated result
// for generate jobs, the submitted input for campaign/verify jobs (the
// round-trip guarantee: the bytes are identical to re-encoding the upload).
func (s *server) plan(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if j.Kind() == fpva.JobGenerate && notDone(w, j) {
		return
	}
	s.writePlan(w, j)
}

// writePlan serves the job's plan in the v1 wire format straight from the
// service's cached encoding (PlanBytes): the bytes were produced once when
// the solve finished, so a fetch is a single Write with no re-encode.
func (s *server) writePlan(w http.ResponseWriter, j *fpva.Job) {
	wire, err := j.PlanBytes()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", fmt.Sprint(len(wire)))
	w.WriteHeader(http.StatusOK)
	w.Write(wire)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
