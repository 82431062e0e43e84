package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"
)

// The load model: numClients closed-loop clients, each with one thread of
// work in flight, against a daemon with daemonWorkers job slots; every
// request pins its own parallelism to 1. One client leaves a core of a
// 2-core host to this process and the daemon's runtime, so the window
// times the daemon rather than the scheduler sharing cores between them.
const (
	numClients    = 1
	daemonWorkers = 1
	// jobTimeout bounds one job; a healthy one takes milliseconds.
	jobTimeout = 60 * time.Second
)

// session is a daemon ready for load: booted, healthy and warmed up.
type session struct {
	d        *daemon // nil when driving an external daemon (-addr)
	flags    []string
	clients  []*client
	cacheDir string
	preload  map[int][]byte
	setup    time.Duration
}

// warmUpSeed draws the warm-up requests on every workload but
// generate-warm: the same requests for every -seed, so setup_s does not
// move with the seed.
const warmUpSeed = 0

// warmUpJobs is how many requests each client sends in set-up on every
// workload but generate-warm: enough for one of every test-floor request
// kind and plan, so the daemon's signature cache is filled, and for
// every exact-ilp variant.
const warmUpJobs = 16

// warmUp is what set-up sends: each client's requests, and whether they
// are generate-warm's preload set, whose answers every later fetch must
// match.
type warmUp struct {
	reqs    [][]request
	preload bool
}

// newWarmUp returns the preload set split between the clients on
// generate-warm, else warmUpJobs requests per client from the stream of
// warmUpSeed.
func newWarmUp(w workload, st stream) (warmUp, error) {
	wu := warmUp{reqs: make([][]request, numClients)}
	if ws, ok := st.(*warmStream); ok {
		for k, req := range ws.arrays {
			wu.reqs[k%numClients] = append(wu.reqs[k%numClients], req)
		}
		wu.preload = true
		return wu, nil
	}
	fixed, err := w.newStream(warmUpSeed)
	if err != nil {
		return wu, err
	}
	for i := range wu.reqs {
		for j := 0; j < warmUpJobs; j++ {
			req, err := fixed.next(i)
			if err != nil {
				return wu, err
			}
			if cs, ok := st.(*coldStream); ok {
				// Sent again in the window, a warm-up array would hit the cache.
				sub, err := parseBody(req.body)
				if err != nil {
					return wu, err
				}
				cs.arrays.reserve(sub.Array)
			}
			wu.reqs[i] = append(wu.reqs[i], req)
		}
	}
	return wu, nil
}

// setUp boots a daemon for the workload and warms it up: /healthz must
// answer 200, then the clients send the warm-up requests. setup covers
// all of it, from process start.
func setUp(ctx context.Context, w workload, wu warmUp, bins binaries, addr string) (*session, error) {
	start := time.Now()
	s := &session{}
	base := addr
	if addr == "" {
		for _, f := range w.flags {
			if f == cacheDirToken {
				dir, err := os.MkdirTemp("", "fpvaload-cache-")
				if err != nil {
					return nil, err
				}
				s.cacheDir = dir
				f = dir
			}
			s.flags = append(s.flags, f)
		}
		d, err := startDaemon(ctx, bins.fpvad, s.flags)
		if err != nil {
			s.close()
			return nil, err
		}
		s.d, base = d, d.base
	}
	for i := 0; i < numClients; i++ {
		s.clients = append(s.clients, newClient(base))
	}
	code, body, err := s.clients[0].do(ctx, http.MethodGet, "/healthz", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/healthz: HTTP %d: %s", code, body)
	}
	var results map[int][]byte
	if err == nil {
		results, err = send(ctx, s.clients, wu.reqs)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	if wu.preload {
		s.preload = results
	}
	s.setup = time.Since(start)
	return s, nil
}

// close stops the clients and the daemon and removes its cache.
func (s *session) close() {
	for _, c := range s.clients {
		c.close()
	}
	s.d.stop()
	if s.cacheDir != "" {
		os.RemoveAll(s.cacheDir)
	}
}

// send runs each client's requests in turn, the clients side by side,
// and returns each request's result by key.
func send(ctx context.Context, clients []*client, reqs [][]request) (map[int][]byte, error) {
	var mu sync.Mutex
	results := make(map[int][]byte)
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, req := range reqs[i] {
				jctx, cancel := context.WithTimeout(ctx, jobTimeout)
				x := c.job(jctx, req.body)
				cancel()
				if x.err != nil {
					errs[i] = fmt.Errorf("warm-up: %w", x.err)
					return
				}
				mu.Lock()
				results[req.key] = x.result
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// loadResult is one closed-loop window.
type loadResult struct {
	dur       time.Duration
	attempted int
	failed    int
	// done holds the jobs that finished inside the window and passed the
	// inline checks.
	done []doneJob
	errs []error // the first few failures
}

// doneJob is one finished job: its kind and its latency in milliseconds.
type doneJob struct {
	kind    string
	latency float64
}

func (r loadResult) jobsPerS() float64 { return float64(len(r.done)) / r.dur.Seconds() }

// latencies returns the latencies of the jobs of one kind, or of every
// job for "".
func (r loadResult) latencies(kind string) []float64 {
	var out []float64
	for _, j := range r.done {
		if kind == "" || j.kind == kind {
			out = append(out, j.latency)
		}
	}
	return out
}

func (r *loadResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

// runLoad drives the clients for dur: each sends its next request as soon
// as the previous one's result has arrived. Jobs still in flight at the
// end finish and are checked but count toward no rate or latency. onJob,
// when set, sees every successful job (the traced pass records spans
// with it).
func runLoad(ctx context.Context, clients []*client, st stream, dur time.Duration, chk *checker, onJob func(request, exchange)) (loadResult, error) {
	// Start from a collected heap, so garbage this process left before
	// the window is not collected inside it.
	runtime.GC()
	deadline := time.Now().Add(dur)
	parts := make([]loadResult, len(clients))
	fatal := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &parts[i]
			for time.Now().Before(deadline) {
				req, err := st.next(i)
				if err != nil {
					fatal[i] = err
					return
				}
				jctx, cancel := context.WithTimeout(ctx, jobTimeout)
				x := c.job(jctx, req.body)
				cancel()
				if err := ctx.Err(); err != nil {
					fatal[i] = err
					return
				}
				r.attempted++
				err = x.err
				if err == nil {
					err = chk.inline(req, x.result)
				}
				if err != nil {
					r.fail(err)
					continue
				}
				if onJob != nil {
					onJob(req, x)
				}
				if !x.end.After(deadline) {
					r.done = append(r.done, doneJob{req.kind, ms(x.latency())})
				}
			}
		}()
	}
	wg.Wait()
	out := loadResult{dur: dur}
	for i, r := range parts {
		if fatal[i] != nil {
			return out, fatal[i]
		}
		out.attempted += r.attempted
		out.done = append(out.done, r.done...)
		out.failed += r.failed
		out.errs = append(out.errs, r.errs...)
	}
	return out, nil
}
