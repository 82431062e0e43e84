package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/cmd/internal/api"
	"repro/fpva"
)

// rerunEvery is the share of jobs the checks re-run in-process after the
// window: every rerunEvery-th job that finishes.
const rerunEvery = 16

// checker judges the daemon's answers. Cheap checks run as each job
// finishes; re-runs and diagnosis decoding run after the window, outside
// the timing.
type checker struct {
	// preload holds, on generate-warm, the plan bytes each array returned
	// during set-up; every later fetch must return the same bytes.
	preload map[int][]byte

	mu   sync.Mutex
	seq  int
	kept []keptJob
}

type keptJob struct {
	req    request
	result []byte
	rerun  bool
}

// inline checks one finished job and keeps it for the post-window checks
// when they need it. Safe for concurrent use.
func (c *checker) inline(req request, result []byte) error {
	if c.preload != nil && !bytes.Equal(result, c.preload[req.key]) {
		return fmt.Errorf("array %d: plan bytes differ from its set-up solve", req.key)
	}
	if req.exactILP {
		var plan struct {
			Stats struct {
				PathNonOptimal int `json:"path_ilp_non_optimal"`
				CutNonOptimal  int `json:"cut_ilp_non_optimal"`
			} `json:"stats"`
		}
		if err := json.Unmarshal(result, &plan); err != nil {
			return fmt.Errorf("plan: %w", err)
		}
		if s := plan.Stats; s.PathNonOptimal != 0 || s.CutNonOptimal != 0 {
			return fmt.Errorf("variant %d: %d path and %d cut ILP solves not proven optimal", req.key, s.PathNonOptimal, s.CutNonOptimal)
		}
	}
	if req.kind == "verify" {
		var rep api.VerifyReport
		if err := json.Unmarshal(result, &rep); err != nil {
			return fmt.Errorf("verify report: %w", err)
		}
		if len(rep.SingleEscapes) != 0 {
			return fmt.Errorf("verify: %d single faults escape plan %s", len(rep.SingleEscapes), floorCases[req.key])
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	rerun := c.seq%rerunEvery == 0
	if rerun || req.kind == "diagnose" {
		c.kept = append(c.kept, keptJob{req: req, result: result, rerun: rerun})
	}
	return nil
}

// postResult is the outcome of the post-window checks.
type postResult struct {
	reruns    int     // jobs re-run in-process
	diagnoses int     // diagnoses decoded and judged
	failed    int     // jobs that failed a check
	errs      []error // the first few failures
}

// post runs the deferred checks on two goroutines, one per core.
func (c *checker) post(ctx context.Context) postResult {
	svc := fpva.NewService(fpva.WithServiceWorkers(2))
	defer svc.Close()
	c.mu.Lock()
	kept := c.kept
	c.mu.Unlock()
	errs := make([]error, len(kept))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = checkKept(ctx, svc, kept[i])
			}
		}()
	}
	var res postResult
	for i, k := range kept {
		work <- i
		if k.rerun {
			res.reruns++
		}
		if k.req.kind == "diagnose" {
			res.diagnoses++
		}
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			res.failed++
			if len(res.errs) < 5 {
				res.errs = append(res.errs, err)
			}
		}
	}
	return res
}

func checkKept(ctx context.Context, svc *fpva.Service, k keptJob) error {
	if k.req.kind == "diagnose" {
		d, err := fpva.DecodeDiagnosis(bytes.NewReader(k.result))
		if err != nil {
			return err
		}
		if !d.Consistent {
			return fmt.Errorf("diagnose on %s: readings of %v judged inconsistent", floorCases[k.req.key], k.req.hidden)
		}
		found := false
		for _, fs := range d.Ambiguity {
			found = found || (len(fs) == 1 && fs[0] == k.req.hidden)
		}
		if !found {
			return fmt.Errorf("diagnose on %s: hidden fault %v not in the ambiguity set", floorCases[k.req.key], k.req.hidden)
		}
	}
	if !k.rerun {
		return nil
	}
	want, err := run(ctx, svc, k.req.body)
	if err != nil {
		return fmt.Errorf("in-process re-run: %w", err)
	}
	if !bytes.Equal(zeroNS(want), zeroNS(k.result)) {
		return fmt.Errorf("%s result differs from its in-process re-run", k.req.kind)
	}
	if k.req.kind == "generate" {
		plan, err := fpva.DecodePlan(bytes.NewReader(k.result))
		if err != nil {
			return err
		}
		escapes, err := plan.VerifySingleFaults(ctx)
		if err != nil {
			return err
		}
		if n := undeclared(plan, escapes); n != 0 {
			return fmt.Errorf("generated plan lets %d single faults escape that it does not declare uncovered", n)
		}
	}
	return nil
}

// undeclared counts the escapes a plan does not own up to. A generator
// may find no vector for a valve (about one 8x8-15x15 layout in 10000
// leaves a valve without a cut); it then lists the valve as uncovered,
// and only the stuck-at fault that needs the missing vector may escape.
func undeclared(plan *fpva.Plan, escapes []fpva.Fault) int {
	declared := make(map[fpva.Fault]bool)
	for _, e := range plan.UncoveredPath() {
		declared[fpva.Fault{Kind: fpva.StuckAt0, A: e}] = true
	}
	for _, e := range plan.UncoveredCut() {
		declared[fpva.Fault{Kind: fpva.StuckAt1, A: e}] = true
	}
	n := 0
	for _, f := range escapes {
		if !declared[f] {
			n++
		}
	}
	return n
}
