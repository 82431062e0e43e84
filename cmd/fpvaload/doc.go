// Command fpvaload is the repository's benchmark. It builds fpvad and
// fpvaworker from the tree, boots a real daemon on a loopback port,
// drives it from one process with closed-loop clients, checks every
// answer, and prints each metric by name with its unit. Its last line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// The benchmark is a Go module of its own (cmd/fpvaload/go.mod), so the
// repository's `go build ./...` and `go test ./...` leave it out. Run it
// from the repository root:
//
//	bash cmd/fpvaload/run.sh -workload generate-cold -seed 1 -seconds 30
//	bash cmd/fpvaload/run.sh -workload test-floor -seed 1 -seconds 30 -trace 1
//
// run.sh builds the command and keeps the Go build cache and
// configuration, the binaries, the daemons' cache directories and the
// span files under .bench_build/. `go run .` inside cmd/fpvaload works
// too. `go test .` there runs the stream and BENCHMARK.json tests plus a
// smoke test that runs every workload for one second and the traced pass
// once (about 20 s; -short skips it), and `go run repro/cmd/fpvalint .`
// runs the repository's lint suite on the package.
//
// # Load model
//
// The loop is closed: the callers of fpvad, tester scripts, CI flows and
// a station diagnosing a chip, wait for each plan or report before they
// send the next request. There is 1 client. It holds one keep-alive
// connection and runs a job as POST /v1/jobs, then GET …/events until the
// terminal line, then GET …/result, where the latency ends; a DELETE
// follows outside the latency. The daemon runs with -workers 1, and each
// request pins its own parallelism to 1 (campaign and diagnose send
// workers 1, no request sets solverWorkers), so the daemon's job runs on
// one core and this process and the daemon's runtime have the other. On
// the 2-core host the benchmark was written on, 2 clients against
// -workers 2 raised jobs/s by about 1.6x but left no core spare, and the
// spread of jobs_per_s across runs grew from 8% to 12% of the median.
// The request stream is a pure function of (-workload, -seed); the daemon
// receives only the generated requests.
//
// An untraced run boots and warms the daemon 5 times (setup_s is the
// median), then measures one window of -seconds on the last daemon. The
// warm-up is 16 requests, the same for every -seed, drawn from the stream
// of seed 0: one of every test-floor kind and plan, so the diagnosis
// signature tables are compiled before the window, and every exact-ilp
// variant. On generate-warm the warm-up is the run's own preload set.
//
// # Workloads
//
// Every grid of request dimensions is expanded as a cartesian product in
// sorted key order and walked in seeded permutations, so every seed sends
// the same mix. So are test-floor's campaign fault counts and hidden
// diagnosis faults and exact-ilp's variants: the cost of a job varies
// several-fold with each, and independent draws moved the runs' medians
// from seed to seed.
//
//	generate-cold   daemon flags: -cache-dir <tmp>
//	    A generate of a new array per request: 8x8 to 15x15, 0-2 horizontal
//	    channels, 0-2 obstacles, default engines; a repeated array is
//	    redrawn. Every request is a cache miss plus a store write: the work
//	    is in core (flow paths, cut sets, leakage), EncodePlan and the store
//	    Put. Cache hits, plan decoding and the simulator do nothing.
//	generate-warm   daemon flags: -cache-dir <tmp> -cache-mb 2
//	    72 arrays, one of every combination of the same grid, solved during
//	    set-up; each request picks one uniformly. The arrays are the same
//	    for every -seed, which only draws the picks: which plans fit in the
//	    memory cache depends on their layouts, and arrays drawn afresh per
//	    seed moved jobs_per_s by up to 20%. The same layers used the other
//	    way: about 28% of requests hit memory and the rest read back from
//	    the store (Get plus DecodePlan), with no solves, so a gain for one
//	    use that costs the other shows.
//	test-floor      daemon flags: none
//	    Campaign (10000 trials, 1-5 faults, seeded), verify (maxPairs 2000)
//	    and diagnose (3 observations of a hidden stuck-at fault, each of the
//	    plan's faults in turn), a third each, against the 5x5, 10x10 and
//	    15x15 Table I plans uploaded with every request (8 KB to 229 KB).
//	    The paper's Sec. IV path: the work is in upload decoding, the
//	    simulator and the diagnosis engine. Generation and the store do
//	    nothing.
//	exact-ilp       daemon flags: -cache-mb 0
//	    Generate with the paper's ILP engines (ilp-iterative paths, ilp
//	    cuts) on 16 4x4 arrays, each kept only if its plan is proven
//	    optimal and detects every single fault; client c of n draws the
//	    variants c, c+n, ..., so with more than one client nothing
//	    coalesces either. The 16 arrays are the same for every -seed, which
//	    only orders the requests: the ILP work varies several-fold between
//	    4x4 layouts, and a fresh draw of 16 per seed moved jobs_per_s by
//	    more than its bound. Every request solves: the work is in the LP
//	    and branch-and-bound. The arrays are 4x4 because 5x5 solves take
//	    80 ms to 1.1 s, which leaves the tail too few samples. The solves
//	    run in the daemon's process: with -solver-exec subprocess, ten
//	    interleaved pairs of runs spread 13% in jobs_per_s and 16% in
//	    latency_p50_ms against 7% and 10% in-process, and one set of ten
//	    seeds spread 34% in latency_p50_ms, past its bound. The worker
//	    subprocesses are timed by the traced pass's executor probes
//	    instead.
//
// # End-to-end metrics (-trace 0)
//
//	setup_s         s       daemon start until /healthz answers and the
//	                        warm-up ends (16 requests; the 72 preload
//	                        solves on generate-warm); median of 5 set-ups
//	jobs_per_s      jobs/s  jobs finished in the window with correct output
//	latency_p50_ms  ms      POST sent to the last byte of the result
//	latency_p90_ms  ms      (a window holds 1500 jobs or more)
//	rss_peak_mb     MiB     VmHWM of fpvad at the end of the window
//
// The run also prints the error rate (errors over jobs attempted; an error
// is a non-2xx answer, a failed or canceled job, or a wrong output) and
// the p50, p90 and p99 of each job kind, test-floor's campaign, verify and
// diagnose among them. Neither is an end-to-end metric: every end-to-end
// metric is printed on every workload and is never 0, and the JSON line
// carries the error rate as failed over attempted.
//
// BENCHMARK.json bounds every end-to-end metric at 25%, the largest bound
// it allows. The shared 2-vCPU host the benchmark was written on (Intel
// Xeon, 2.1 GHz) changes speed under its neighbours' load: a fixed CPU
// loop ran up to 1.8x slower for tens of seconds at a time, in CPU time as
// much as in wall time, and one workload's jobs_per_s moved by up to 20%
// between runs a minute apart and by 40% over two hours. No statistic
// taken inside one run removed that: the median and the fastest of the
// 1-second slices of a window, and the 10th percentile of job latency,
// moved as much as the whole-window numbers. Across ten seeds with 30 s
// windows, the four workloads interleaved, the quartile spread of
// jobs_per_s and of the latencies was 5-11% of the median in one set and
// 8-19% in a noisier hour; rss_peak_mb spread 0.5-5%. The p90 stands for
// the tail because the p99 is twice as noisy: over six generate-warm
// runs it spread 15% of its median where the p90 spread 8%.
//
// # Output checks
//
// Cheap checks run as each job ends: on generate-warm every fetch returns
// the bytes its set-up solve returned; on exact-ilp every ILP solve is
// proven optimal; every verify report has no single-fault escape. After
// the window, every 16th job is re-run in-process on a fresh
// fpva.NewService and compared byte for byte with the daemon's answer,
// *_ns timing fields zeroed; generated plans let no single fault escape
// that they do not declare uncovered; and every diagnosis is consistent
// and holds the hidden fault in its ambiguity set. A failed check counts
// as an error and makes the command exit 1.
//
// # Traced pass (-trace 1)
//
// A separate run on a fresh daemon gives the per-layer numbers. The
// spans come from this command's own files, around its calls into each
// layer's public functions; no program code records anything.
//
//  1. One client sends 200 requests from the workload's stream, one at a
//     time, with a span around each HTTP stage; right after each, the
//     same request is replayed in-process on a service configured like
//     the daemon: HTTP transport against a null server that answers with
//     the daemon's recorded bytes, payload decode, and the Service, with
//     the core phases timed inside it by their progress events.
//  2. Layer probes on the workload's own arrays and plans (below).
//  3. Five closed-loop passes of -seconds/10: one discarded, then
//     untraced, traced, traced, untraced. The /v1/stats deltas over them
//     give the ratios and counts; the jobs/s gap between the untraced and
//     the traced passes is trace.overhead.
//
// It prints a table of each replay layer's self time (duration minus
// the time its child spans cover) per job and its share of the job;
// unaccounted_ms, the median over the jobs of the unloaded e2e minus the
// time the job's replay layers cover (a median, as the daemon and the
// replay each meet the host's noise on their own; below 0 or above a
// quarter of the e2e mean, the replay has stopped representing the
// daemon); trace_overhead; and every per-layer metric. Spans (name,
// request, parent, start, end) stay in memory and are written with the
// host stamp to -spans at the end.
//
// Per-layer metrics, the layer they measure and the end-to-end metric
// and workload each should move:
//
//	fpvad.submit_ms, wait_ms, fetch_ms   client spans around the three HTTP
//	    stages; submit: latency_p50_ms @ test-floor (plan uploads), wait:
//	    @ generate-cold and exact-ilp, fetch: @ generate-warm
//	fpvad.transport_ms   the null-server replay: net/http on loopback and
//	    request parsing; latency_p50_ms @ generate-warm, test-floor
//	fpvad.bytes_in, bytes_out   bytes per job
//	service.hit_ms, miss_ms, follower_ms, readback_ms   submit to Wait on a
//	    fresh Service over a fresh cache directory; hit and readback:
//	    latency_p50_ms @ generate-warm, miss and follower: @ generate-cold
//	service.cache_hit_ratio, solves_per_job   jobs_per_s @ generate-warm
//	service.sig_cache_hit_ratio   latency_p90_ms @ test-floor
//	codec.decode_array_ms, decode_plan_ms, encode_plan_ms   the workload's
//	    own payloads; decode_plan: latency_p50_ms @ test-floor and
//	    generate-warm, encode_plan: @ generate-cold
//	core.flow_paths_ms, cut_sets_ms, leakage_ms   phase events of the
//	    service misses; latency_p50_ms @ generate-cold (heuristics) and
//	    exact-ilp (ILP)
//	core.vectors_per_plan   must not move: a change to it changes the test set
//	ilp.solves_per_plan, nodes_per_plan   Plan.Stats of the exact-ilp
//	    arrays; jobs_per_s @ exact-ilp
//	executor.inprocess_ms, subprocess_ms, ipc_overhead_ms   the exact-ilp
//	    arrays solved on each executor, cache off; inprocess:
//	    latency_p50_ms @ exact-ilp; no workload runs the subprocess executor
//	workerpool.spawns, restarts   the probe's worker pool (restarts of a
//	    daemon's pool are added); restarts must stay 0
//	store.hit_ratio, evictions_per_job   jobs_per_s @ generate-warm
//	store.writes_per_job   jobs_per_s @ generate-cold
//	sim.campaign_k1_ms … k5_ms, sims_per_campaign, verify_single_ms,
//	    verify_double_ms   Plan.Campaign (10000 trials, workers 1) and the
//	    verifications on the workload's plans; latency_p50_ms @ test-floor
//	diagnose.compile_ms, narrow_ms, plan_ms   NewDiagnoseSession on a fresh
//	    decode, three Observe calls, Diagnosis; compile: setup_s @
//	    test-floor (the warm-up fills the signature cache), narrow:
//	    latency_p50_ms, plan: latency_p90_ms @ test-floor
//	trace.e2e_ms, unaccounted_ms, overhead   the unloaded job mean, the
//	    residual the layers leave, and the cost of recording spans
//
// # Comparing two commits
//
// Check out both commits side by side and run the same workload with the
// same -seconds on each, alternating which side goes first, ten pairs or
// more, on seeds not used while the change was written. Compare the
// medians of each end-to-end metric against its bound in BENCHMARK.json,
// workload by workload, and use the traced pass of both sides to show
// which layer's self time moved.
//
// # Driving a running daemon
//
// -addr http://host:port drives an fpvad that is already serving instead
// of booting one: the daemon must run with -workers 1 and the workload's
// flags above.
// setup_s and rss_peak_mb are then not measured and not printed.
//
// Every result starts with a host stamp: nproc, GOMAXPROCS, CPU model,
// Go version, git commit when available, daemon flags and seed.
//
// Exit codes: 0 when every job passed its checks, 1 on a failed check or
// a runtime failure, 2 on a usage error.
package main
