package main

// The traced pass. It gives the per-layer numbers, from the benchmark's
// own files: spans around the calls it makes into each layer, and
// /v1/stats deltas for the counts. Program code records nothing.
//
//  1. Unloaded: one client sends traceJobs requests, one at a time, with
//     a span around each HTTP stage.
//  2. Replay: the same requests run single-threaded in-process, through
//     the layers the daemon runs them through (HTTP transport against a
//     null server that answers with the daemon's recorded bytes, payload
//     decode, the Service with the core phases inside it), on a fresh
//     service configured like the daemon. Then the layer probes.
//  3. Loaded: an untraced and a traced closed-loop pass; the counts come
//     from the traced one, and the jobs/s gap is the tracing overhead.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/cmd/internal/api"
	"repro/fpva"
)

// traceJobs is how many requests the unloaded part sends and the replay
// runs again.
const traceJobs = 200

// span is one timed call. Spans of one request share Req; Parent is -1
// for a request's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func (r *recorder) add(parent int, name, req string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	return id
}

// addJob records a client-side job: its root and the three HTTP stages.
func (r *recorder) addJob(req string, x exchange) {
	root := r.add(-1, "job", req, x.start, x.end)
	r.add(root, "fpvad.submit", req, x.start, x.submitted)
	r.add(root, "fpvad.wait", req, x.submitted, x.streamed)
	r.add(root, "fpvad.fetch", req, x.streamed, x.end)
}

// selfTimes returns each span's duration minus the time its children
// cover. Children of one span never overlap: every request's calls are
// sequential.
func (r *recorder) selfTimes() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

func (r *recorder) write(path string, stamp hostStamp) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Host  hostStamp `json:"host"`
		Spans []span    `json:"spans"`
	}{stamp, r.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedJob is one request of the unloaded part and what the daemon
// answered.
type tracedJob struct {
	req request
	x   exchange
}

// nullServer answers the job API with a recorded job's bytes and does no
// work, so replaying a request against it times the HTTP layer alone:
// both ends of net/http on loopback and the daemon's request parsing.
type nullServer struct {
	mu   sync.Mutex
	cur  exchange
	srv  *http.Server
	base string
	done chan struct{}
}

func startNullServer() (*nullServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &nullServer{base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", n.submit)
	mux.HandleFunc("GET /v1/jobs/{id}/events", n.events)
	mux.HandleFunc("GET /v1/jobs/{id}/result", n.result)
	mux.HandleFunc("DELETE /v1/jobs/{id}", n.delete)
	n.srv = &http.Server{Handler: mux}
	go func() {
		defer close(n.done)
		n.srv.Serve(ln)
	}()
	return n, nil
}

func (n *nullServer) close() {
	n.srv.Close()
	<-n.done
}

func (n *nullServer) replay(x exchange) {
	n.mu.Lock()
	n.cur = x
	n.mu.Unlock()
}

func (n *nullServer) recorded() exchange {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cur
}

func (n *nullServer) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	var req api.SubmitRequest
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeIndented(w, http.StatusAccepted, api.Job{ID: "replay", Kind: req.Kind, State: "pending"})
}

func (n *nullServer) events(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for _, line := range bytes.SplitAfter(n.recorded().events, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		w.Write(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (n *nullServer) result(w http.ResponseWriter, r *http.Request) {
	res := n.recorded().result
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(res)))
	w.WriteHeader(http.StatusOK)
	w.Write(res)
}

func (n *nullServer) delete(w http.ResponseWriter, r *http.Request) {
	writeIndented(w, http.StatusOK, api.Job{ID: "replay", State: "done"})
}

func writeIndented(w http.ResponseWriter, status int, v any) {
	b, err := indentJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

// serviceOptions configures an in-process service like the daemon the
// workload's flags describe.
func serviceOptions(flags []string, cacheDir string) []fpva.ServiceOption {
	opts := []fpva.ServiceOption{fpva.WithServiceWorkers(daemonWorkers)}
	for i := 0; i+1 < len(flags); i += 2 {
		switch v := flags[i+1]; flags[i] {
		case "-cache-dir":
			opts = append(opts, fpva.WithCacheDir(cacheDir))
		case "-cache-mb":
			mb, _ := strconv.Atoi(v)
			opts = append(opts, fpva.WithCacheBytes(int64(mb)<<20))
		}
	}
	return opts
}

// servicePath names the path a generate job took through the service,
// read off the counters it moved.
func servicePath(kind string, before, after fpva.ServiceStats) string {
	switch {
	case kind != "generate":
		return kind
	case after.CacheHits > before.CacheHits:
		return "hit"
	case after.Store.Hits > before.Store.Hits:
		return "readback"
	case after.CacheCoalesced > before.CacheCoalesced:
		return "follower"
	}
	return "miss"
}

// replayer runs requests again in-process, through the layers the
// daemon runs them through, on a service configured like the daemon.
type replayer struct {
	svc  *fpva.Service
	dir  string
	null *nullServer
	nc   *client
}

func newReplayer(ctx context.Context, w workload, wu warmUp) (*replayer, error) {
	dir, err := os.MkdirTemp("", "fpvaload-replay-")
	if err != nil {
		return nil, err
	}
	r := &replayer{dir: dir, svc: fpva.NewService(serviceOptions(w.flags, dir)...)}
	if r.null, err = startNullServer(); err != nil {
		r.close()
		return nil, err
	}
	r.nc = newClient(r.null.base)
	// Bring the service to the daemon's state after set-up, untimed.
	for _, reqs := range wu.reqs {
		for _, req := range reqs {
			if _, err := run(ctx, r.svc, req.body); err != nil {
				r.close()
				return nil, err
			}
		}
	}
	return r, nil
}

func (r *replayer) close() {
	if r.nc != nil {
		r.nc.close()
	}
	if r.null != nil {
		r.null.close()
	}
	r.svc.Close()
	os.RemoveAll(r.dir)
}

// replay runs one request the daemon answered with x, under a "replay"
// root span: the HTTP transport against the null server, the payload
// decode, and the service with the core phases inside it. It returns the
// time the layers cover.
func (r *replayer) replay(ctx context.Context, id string, body []byte, x exchange, rec *recorder) (time.Duration, error) {
	req, err := parseBody(body)
	if err != nil {
		return 0, err
	}
	before := r.svc.Stats()
	r.null.replay(x)
	nx := r.nc.job(ctx, body)
	if nx.err != nil {
		return 0, fmt.Errorf("null server: %w", nx.err)
	}
	t1 := time.Now()
	p, err := decode(req)
	t2 := time.Now()
	if err != nil {
		return 0, err
	}
	var clock phaseClock
	job, err := submit(ctx, r.svc, p, clock.option())
	if err == nil {
		err = job.Wait(ctx)
	}
	t3 := time.Now()
	if err != nil {
		return 0, err
	}
	path := servicePath(req.Kind, before, r.svc.Stats())
	root := rec.add(-1, "replay", id, nx.start, t3)
	// The transport span ends where a job's latency does, before the
	// DELETE.
	rec.add(root, "fpvad.transport", id, nx.start, nx.end)
	if p.array != nil {
		rec.add(root, "codec.decode_array", id, t1, t2)
	} else {
		rec.add(root, "codec.decode_plan", id, t1, t2)
	}
	svcSpan := rec.add(root, "service."+path, id, t2, t3)
	if path == "miss" {
		ph := clock.phases()
		for _, c := range corePhases {
			if t := ph[c.phase]; !t[0].IsZero() && !t[1].IsZero() {
				rec.add(svcSpan, c.name, id, t[0], t[1])
			}
		}
	}
	return nx.latency() + t3.Sub(t1), nil
}

// layerRow is one line of the per-layer table: a span name's self time
// per replayed job.
type layerRow struct {
	name      string
	meanMS    float64 // summed self time over the replayed jobs, per job
	p50MS     float64 // median self time of the spans present
	spanCount int
}

// layerTable summarizes the replay spans by name.
func layerTable(rec *recorder, jobs int) []layerRow {
	self := rec.selfTimes()
	byName := make(map[string][]float64)
	rec.mu.Lock()
	for i, s := range rec.spans {
		if strings.HasPrefix(s.Req, "replay/") && s.Name != "replay" {
			byName[s.Name] = append(byName[s.Name], ms(self[i]))
		}
	}
	rec.mu.Unlock()
	var rows []layerRow
	for name, v := range byName {
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		rows = append(rows, layerRow{name: name, meanMS: sum / float64(jobs), p50MS: quantile(v, 0.5), spanCount: len(v)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

// runTrace is the traced pass; it returns the per-layer metrics.
func runTrace(ctx context.Context, opt options, w workload, st stream, wu warmUp, bins binaries, stamp hostStamp, out io.Writer) (result, error) {
	s, err := setUp(ctx, w, wu, bins, opt.addr)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	rec := &recorder{epoch: time.Now()}
	chk := &checker{preload: s.preload}
	attempted, failed := 0, 0
	var errs []error
	fail := func(err error) {
		failed++
		if len(errs) < 5 {
			errs = append(errs, err)
		}
	}

	// Parts 1 and 2, interleaved: each request goes to the daemon, then
	// straight into the replay, so both meet the same machine state.
	rep, err := newReplayer(ctx, w, wu)
	if err != nil {
		return result{}, fmt.Errorf("replay: %w", err)
	}
	defer rep.close()
	var jobs []tracedJob
	// unaccounted holds each job's unloaded e2e minus the time its replay's
	// layers cover.
	var unaccounted []float64
	vals := samples{}
	for i := 0; i < traceJobs; i++ {
		req, err := st.next(i % numClients)
		if err != nil {
			return result{}, err
		}
		jctx, cancel := context.WithTimeout(ctx, jobTimeout)
		x := s.clients[0].job(jctx, req.body)
		cancel()
		attempted++
		if err := x.err; err != nil {
			fail(err)
			continue
		}
		if err := chk.inline(req, x.result); err != nil {
			fail(err)
			continue
		}
		id := strconv.Itoa(i)
		rec.addJob("unloaded/"+id, x)
		covered, err := rep.replay(ctx, "replay/"+id, req.body, x, rec)
		if err != nil {
			return result{}, fmt.Errorf("replay: %w", err)
		}
		unaccounted = append(unaccounted, ms(x.latency()-covered))
		jobs = append(jobs, tracedJob{req, x})
		vals.add("trace.e2e_ms", ms(x.latency()))
		vals.add("fpvad.submit_ms", ms(x.submitted.Sub(x.start)))
		vals.add("fpvad.wait_ms", ms(x.streamed.Sub(x.submitted)))
		vals.add("fpvad.fetch_ms", ms(x.end.Sub(x.streamed)))
		vals.add("fpvad.bytes_in", float64(x.bytesIn))
		vals.add("fpvad.bytes_out", float64(x.bytesOut))
	}
	if len(jobs) == 0 {
		return result{}, fmt.Errorf("every unloaded request failed: %v", errs)
	}
	rows := layerTable(rec, len(jobs))
	for _, r := range rows {
		if r.name == "fpvad.transport" {
			vals.add("fpvad.transport_ms", r.meanMS)
		}
	}
	restarts, err := runProbes(ctx, opt, st, bins, jobs, vals)
	if err != nil {
		return result{}, fmt.Errorf("probes: %w", err)
	}

	// Part 3: loaded passes, untraced and traced in ABBA order so drift
	// cancels out of the overhead.
	dur := time.Duration(max(opt.seconds/10, 0.25) * float64(time.Second))
	before, err := getStats(ctx, s.clients[0])
	if err != nil {
		return result{}, err
	}
	var loadedSeq atomic.Int64
	record := func(_ request, x exchange) {
		rec.addJob("loaded/"+strconv.FormatInt(loadedSeq.Add(1), 10), x)
	}
	// A discarded pass first, so the daemon and this process start the
	// measured passes in their loaded state.
	var rate [2]float64 // jobs/s untraced, traced
	for i, traced := range []bool{false, false, true, true, false} {
		var onJob func(request, exchange)
		if traced {
			onJob = record
		}
		lr, err := runLoad(ctx, s.clients, st, dur, chk, onJob)
		if err != nil {
			return result{}, err
		}
		switch {
		case traced:
			rate[1] += lr.jobsPerS() / 2
		case i > 0:
			rate[0] += lr.jobsPerS() / 2
		}
		attempted += lr.attempted
		failed += lr.failed
		errs = append(errs, lr.errs...)
	}
	after, err := getStats(ctx, s.clients[0])
	if err != nil {
		return result{}, err
	}
	statsDeltas(before, after, vals)
	restarts += after.WorkerRestarts
	vals.add("workerpool.restarts", float64(restarts))
	if restarts != 0 {
		fail(fmt.Errorf("%d solver worker restarts", restarts))
	}
	vals.add("trace.overhead", (rate[0]-rate[1])/rate[0])

	s.close()
	post := chk.post(ctx)
	failed += post.failed
	errs = append(errs, post.errs...)

	values := make(map[string]float64, len(vals))
	for name, v := range vals {
		values[name] = mean(v)
	}
	// A median over the jobs, as the daemon and the replay each meet the
	// host's noise on their own; a mean lets one stalled replay turn the
	// residual negative.
	values["trace.unaccounted_ms"] = quantile(unaccounted, 0.5)

	spans := opt.spans
	if spans == "" {
		spans = filepath.Join(stamp.root, ".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, opt.seed))
	}
	if err := rec.write(spans, stamp); err != nil {
		return result{}, err
	}

	fmt.Fprintf(out, "traced pass: %d unloaded jobs replayed in-process; 5 loaded passes of %v; spans in %s\n", len(jobs), dur, spans)
	fmt.Fprintf(out, "%-24s %10s %10s %7s %6s\n", "layer (self time)", "per_job_ms", "p50_ms", "share", "spans")
	e2e := values["trace.e2e_ms"]
	for _, r := range rows {
		fmt.Fprintf(out, "%-24s %10.4f %10.4f %6.1f%% %6d\n", r.name, r.meanMS, r.p50MS, 100*r.meanMS/e2e, r.spanCount)
	}
	fmt.Fprintf(out, "%-24s %10s %10.4f %6.1f%%\n", "unaccounted_ms", "", values["trace.unaccounted_ms"], 100*values["trace.unaccounted_ms"]/e2e)
	fmt.Fprintf(out, "%-24s %10.4f ms (unloaded, %d jobs)\n", "e2e mean", e2e, len(jobs))
	fmt.Fprintf(out, "trace_overhead %.4f (jobs/s untraced %.2f, traced %.2f)\n", values["trace.overhead"], rate[0], rate[1])
	printMetrics(out, perLayer, values)
	printChecks(out, post, failed, attempted, errs)
	return newResult(perLayer, values, attempted, failed)
}

// statsDeltas turns the daemon counters over the traced loaded pass into
// ratios and per-job counts.
func statsDeltas(before, after api.ServiceStats, vals samples) {
	jobs := after.JobsSubmitted - before.JobsSubmitted
	hits := after.CacheHits - before.CacheHits
	lookups := hits + after.CacheMisses - before.CacheMisses + after.CacheCoalesced - before.CacheCoalesced
	vals.add("service.cache_hit_ratio", ratio(hits, lookups))
	sigHits := after.SigCacheHits - before.SigCacheHits
	vals.add("service.sig_cache_hit_ratio", ratio(sigHits, sigHits+after.SigCacheMisses-before.SigCacheMisses))
	vals.add("service.solves_per_job", ratio(after.Solves-before.Solves, jobs))
	var b, a api.StoreStats
	if before.Store != nil && after.Store != nil {
		b, a = *before.Store, *after.Store
	}
	vals.add("store.hit_ratio", ratio(a.Hits-b.Hits, a.Hits-b.Hits+a.Misses-b.Misses))
	vals.add("store.writes_per_job", ratio(a.Writes-b.Writes, jobs))
	vals.add("store.evictions_per_job", ratio(a.Evictions-b.Evictions, jobs))
}

// runProbes runs the layer probes on the unloaded part's arrays and
// plans. It returns the probe worker pool's restarts.
func runProbes(ctx context.Context, opt options, st stream, bins binaries, jobs []tracedJob, vals samples) (int, error) {
	var gens []generation
	var codec []codecSample
	var plans []floorPlan
	seen := make(map[string]bool)
	arrayWires := make(map[int][]byte)
	for _, j := range jobs {
		req, err := parseBody(j.req.body)
		if err != nil {
			return 0, err
		}
		if req.Kind == "generate" {
			codec = append(codec, codecSample{array: req.Array, plan: j.x.result})
			if key := string(req.Array); !seen[key] && len(gens) < 8 {
				seen[key] = true
				p, err := decode(req)
				if err != nil {
					return 0, err
				}
				opts, err := genOptions(req.Generate)
				if err != nil {
					return 0, err
				}
				gens = append(gens, generation{p.array, opts})
				if len(plans) < len(floorCases) {
					fp, err := newFloorPlan(strconv.Itoa(len(plans)), j.x.result)
					if err != nil {
						return 0, err
					}
					plans = append(plans, fp)
				}
			}
			continue
		}
		// test-floor: the uploaded Table I plans.
		if _, ok := arrayWires[j.req.key]; !ok {
			fp, err := newFloorPlan(floorCases[j.req.key], req.Plan)
			if err != nil {
				return 0, err
			}
			wire, err := compactJSON(func(b *bytes.Buffer) error { return fpva.EncodeArray(b, fp.plan.Array()) })
			if err != nil {
				return 0, err
			}
			arrayWires[j.req.key] = wire
			gens = append(gens, generation{array: fp.plan.Array()})
			plans = append(plans, fp)
		}
		codec = append(codec, codecSample{array: arrayWires[j.req.key], plan: req.Plan})
	}
	if err := probeService(ctx, gens, vals); err != nil {
		return 0, err
	}
	if err := probeCodec(codec, vals); err != nil {
		return 0, err
	}
	ilp, ok := st.(*ilpStream)
	if !ok {
		var err error
		if ilp, err = newILPStream(opt.seed, numClients); err != nil {
			return 0, err
		}
	}
	restarts, err := probeExecutor(ctx, ilp, bins.fpvaworker, vals)
	if err != nil {
		return 0, err
	}
	rng := newRand(opt.seed, "probes")
	if err := probeSim(ctx, plans, rng, vals); err != nil {
		return 0, err
	}
	return restarts, probeDiagnose(ctx, plans, rng, vals)
}
