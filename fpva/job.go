package fpva

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// JobKind names the pipeline stage a Job runs.
type JobKind int

const (
	// JobGenerate is a test-generation job (SubmitGenerate).
	JobGenerate JobKind = iota
	// JobCampaign is a fault-injection campaign job (SubmitCampaign).
	JobCampaign
	// JobVerify is an exhaustive 1-/2-fault verification job (SubmitVerify).
	JobVerify
	// JobDiagnose is an adaptive fault-diagnosis job (SubmitDiagnose).
	JobDiagnose
)

func (k JobKind) String() string {
	switch k {
	case JobGenerate:
		return "generate"
	case JobCampaign:
		return "campaign"
	case JobVerify:
		return "verify"
	case JobDiagnose:
		return "diagnose"
	}
	return fmt.Sprintf("JobKind(%d)", int(k))
}

// JobState is one node of the job state machine:
//
//	pending -> running -> done | failed | canceled
//
// Pending jobs are queued for a worker slot (or coalesced onto an in-flight
// identical solve); the three right-hand states are terminal.
type JobState int

const (
	// JobPending means the job is queued or waiting on a shared solve.
	JobPending JobState = iota
	// JobRunning means the job holds a worker slot (or its shared solve is
	// executing).
	JobRunning
	// JobDone means the job finished and its result is available.
	JobDone
	// JobFailed means the job finished with an error other than its own
	// cancellation.
	JobFailed
	// JobCanceled means the job's context was canceled before it finished.
	JobCanceled
)

func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Terminal reports whether the state is done, failed or canceled.
func (s JobState) Terminal() bool { return s >= JobDone }

// VerifyResult is the outcome of a JobVerify: the single faults and fault
// pairs the plan's vector set failed to detect (both empty on a fully
// covered array).
type VerifyResult struct {
	SingleEscapes []Fault
	DoubleEscapes [][2]Fault
}

// Job is a handle to one submitted unit of work. Handles are safe for
// concurrent use: any number of goroutines may Wait, Stream, poll State or
// Cancel the same job.
type Job struct {
	id   string
	kind JobKind
	svc  *Service

	// ctx governs the job; cancel is invoked by Cancel, by service Close,
	// and when the submitting context is canceled.
	ctx    context.Context
	cancel context.CancelFunc

	// progress is the submitter's callback (from WithProgress /
	// WithCampaignProgress), invoked synchronously after each event is
	// recorded.
	progress Progress

	// inPlan is the input plan of campaign/verify jobs, available from the
	// moment of submission.
	inPlan *Plan

	mu       sync.Mutex
	state    JobState
	runAt    time.Time // running-transition instant, zero if it never ran
	doneAt   time.Time // terminal-transition instant, for WithJobTTL expiry
	cacheHit bool
	events   []Event
	notify   chan struct{} // closed and replaced on every append
	err      error
	plan     *Plan     // generate result; a memory hit decodes it on first use
	wire     []byte    // v1 wire encoding of plan, when the service had one
	arr      *Array    // what a memory hit decodes onto: the submitter's array
	geom     *geometry // and the cache entry's geometry, if it kept any
	camp     CampaignResult
	verify   VerifyResult
	diag     *Diagnosis
	done     chan struct{}
}

func newJob(svc *Service, id string, kind JobKind, ctx context.Context, progress Progress) *Job {
	var jctx context.Context
	var cancel context.CancelFunc
	if svc.jobTimeout > 0 {
		// WithJobTimeout: the deadline covers the job's whole lifetime,
		// queue wait included. finish always calls cancel, releasing the
		// timer.
		jctx, cancel = context.WithTimeout(ctx, svc.jobTimeout)
	} else {
		jctx, cancel = context.WithCancel(ctx)
	}
	return &Job{
		id: id, kind: kind, svc: svc,
		ctx: jctx, cancel: cancel,
		progress: progress,
		notify:   make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// ID returns the service-unique job identifier.
func (j *Job) ID() string { return j.id }

// Kind returns the job's kind.
func (j *Job) Kind() JobKind { return j.kind }

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// CacheHit reports whether a generate job was served from the plan cache,
// or a diagnose job reused a cached signature table (meaningful once the
// job is done).
func (j *Job) CacheHit() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cacheHit
}

// Err returns the job's terminal error (nil while running or when done).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Cancel requests cancellation. It is a no-op on a terminal job; otherwise
// the job moves to JobCanceled as soon as its workers drain.
func (j *Job) Cancel() { j.cancel() }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes (returning its terminal error, nil
// for success) or ctx is canceled (returning ctx.Err()).
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Events returns a snapshot of the progress events observed so far, in
// emission order.
func (j *Job) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, len(j.events))
	copy(out, j.events)
	return out
}

// Stream returns a channel that replays every event from the start of the
// job and then follows live ones; it is closed once the job is terminal
// and all events have been delivered. Cancel ctx to stop early — the
// stream goroutine blocks on an unread channel otherwise.
func (j *Job) Stream(ctx context.Context) <-chan Event {
	out := make(chan Event)
	go func() {
		defer close(out)
		next := 0
		for {
			j.mu.Lock()
			events := j.events[next:]
			notify := j.notify
			terminal := j.state.Terminal()
			j.mu.Unlock()
			for _, e := range events {
				select {
				case out <- e:
				case <-ctx.Done():
					return
				}
			}
			next += len(events)
			if terminal {
				return
			}
			select {
			case <-notify:
			case <-j.done:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// Plan returns the job's plan: the generated plan of a finished
// JobGenerate, on the array the job was submitted with, or the input plan
// of a campaign/verify job (available immediately). It fails with
// ErrJobRunning on an unfinished generate job and with the job's error on
// a failed one. A job served from the memory cache holds only the plan's
// wire bytes: its first Plan call decodes them, and fails if they no
// longer decode. Every call returns the same plan.
func (j *Job) Plan() (*Plan, error) {
	if j.kind != JobGenerate {
		return j.inPlan, nil
	}
	j.mu.Lock()
	p, err := j.plan, j.planErrLocked()
	arr, wire, geom := j.arr, j.wire, j.geom
	j.mu.Unlock()
	if p != nil || err != nil {
		return p, err
	}
	// A memory hit. Decode outside the lock; of two racing first calls,
	// the first to store its plan wins.
	if p, err = decodeOn(arr, wire, geom); err != nil {
		return nil, fmt.Errorf("fpva: job %s: %w", j.id, err)
	}
	j.mu.Lock()
	if j.plan == nil {
		j.plan = p
	}
	p = j.plan
	j.mu.Unlock()
	return p, nil
}

// decodeOn decodes a cached plan onto the array a (see planOn) and
// attaches the entry's geometry, if it kept any.
func decodeOn(a *Array, wire []byte, geom *geometry) (*Plan, error) {
	p, err := decodePlan(wire)
	if err != nil {
		return nil, err
	}
	p.a, p.ts.Array = a, a.g
	if geom != nil {
		p.ts.Paths, p.ts.Cuts, p.geometry = geom.paths, geom.cuts, true
	}
	return p, nil
}

// planErrLocked reports why a generate job has no plan to hand out: it is
// unfinished, or it failed. The caller holds j.mu.
func (j *Job) planErrLocked() error {
	switch {
	case j.kind != JobGenerate:
		return nil
	case !j.state.Terminal():
		return fmt.Errorf("fpva: job %s: %w", j.id, ErrJobRunning)
	}
	return j.err
}

// PlanBytes returns the job's plan in the v1 wire format. For generate
// jobs on a caching service these are the exact bytes encoded once when
// the solve finished (or retrieved from the cache), so serving them — as
// fpvad's /plan handler does — neither re-encodes nor decodes the plan;
// they are bit-identical to EncodePlan of the same plan. The returned
// slice is shared and must not be modified. When no cached encoding
// exists (caching disabled, or a campaign/verify input plan) the plan is
// encoded on demand.
func (j *Job) PlanBytes() ([]byte, error) {
	j.mu.Lock()
	wire, err := j.wire, j.planErrLocked()
	j.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if wire != nil {
		return wire, nil
	}
	plan, err := j.Plan()
	if err != nil {
		return nil, err
	}
	enc := encodePlan(plan, true)
	// Memoize the fallback encoding: the plan is immutable, so later
	// fetches (fpvad /plan, /result) reuse these bytes too.
	j.mu.Lock()
	if j.wire == nil {
		j.wire = enc
	}
	wire = j.wire
	j.mu.Unlock()
	return wire, nil
}

// Campaign returns the result of a finished JobCampaign.
func (j *Job) Campaign() (CampaignResult, error) {
	if j.kind != JobCampaign {
		return CampaignResult{}, fmt.Errorf("fpva: job %s is a %v job: %w", j.id, j.kind, ErrWrongJobKind)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case !j.state.Terminal():
		return CampaignResult{}, fmt.Errorf("fpva: job %s: %w", j.id, ErrJobRunning)
	case j.err != nil:
		return j.camp, j.err
	}
	return j.camp, nil
}

// Verify returns the result of a finished JobVerify.
func (j *Job) Verify() (VerifyResult, error) {
	if j.kind != JobVerify {
		return VerifyResult{}, fmt.Errorf("fpva: job %s is a %v job: %w", j.id, j.kind, ErrWrongJobKind)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case !j.state.Terminal():
		return VerifyResult{}, fmt.Errorf("fpva: job %s: %w", j.id, ErrJobRunning)
	case j.err != nil:
		return VerifyResult{}, j.err
	}
	return j.verify, nil
}

// Diagnosis returns the result of a finished JobDiagnose.
func (j *Job) Diagnosis() (*Diagnosis, error) {
	if j.kind != JobDiagnose {
		return nil, fmt.Errorf("fpva: job %s is a %v job: %w", j.id, j.kind, ErrWrongJobKind)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case !j.state.Terminal():
		return nil, fmt.Errorf("fpva: job %s: %w", j.id, ErrJobRunning)
	case j.err != nil:
		return nil, j.err
	}
	return j.diag, nil
}

// emit records one progress event, wakes streamers, and invokes the
// submitter's callback synchronously (matching the direct-call API: the
// callback has returned for every event before the job turns terminal).
func (j *Job) emit(e Event) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.events = append(j.events, e)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
	if j.progress != nil {
		j.progress(e)
	}
}

// setRunning moves a pending job to JobRunning.
func (j *Job) setRunning() {
	j.mu.Lock()
	if j.state == JobPending {
		j.state = JobRunning
		j.runAt = time.Now()
	}
	j.mu.Unlock()
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state JobState, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.err = err
	j.doneAt = time.Now()
	var ran time.Duration
	if !j.runAt.IsZero() {
		ran = j.doneAt.Sub(j.runAt)
	}
	j.mu.Unlock()
	j.cancel() // release the context watcher; no-op if already canceled
	// Tally the outcome before waking waiters, so Stats read after Wait
	// returns counts this job as terminal.
	j.svc.noteTerminal(j.kind, state, ran)
	close(j.done)
}

// finishPlan completes a generate job successfully. p is the plan on the
// job's own array, or nil for a memory hit, which Plan decodes from wire.
// wire, when non-nil, is the plan's v1 encoding (from the solve or the
// cache), retained so PlanBytes can serve it without re-encoding; hit
// reports whether the plan came from the memory cache or the disk store.
func (j *Job) finishPlan(p *Plan, wire []byte, hit bool) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.plan, j.wire, j.cacheHit = p, wire, hit
	j.mu.Unlock()
	j.finish(JobDone, nil)
}

// finishHit completes a generate job from a memory-cache entry. The job
// serves the entry's wire bytes, and its first Plan call decodes them
// onto a, the caller's array.
func (j *Job) finishHit(a *Array, ent cacheEntry) {
	j.mu.Lock()
	j.arr, j.geom = a, ent.geom
	j.mu.Unlock()
	j.finishPlan(nil, ent.wire, true)
}

// expiredBefore reports whether the job turned terminal before the cutoff
// (the WithJobTTL expiry test).
func (j *Job) expiredBefore(cutoff time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal() && j.doneAt.Before(cutoff)
}

// classifyTerminal maps a worker failure to the terminal state: if the
// job's own context was canceled the failure is JobCanceled, everything
// else is JobFailed.
func (j *Job) classifyTerminal() JobState {
	if j.ctx.Err() != nil {
		return JobCanceled
	}
	return JobFailed
}
