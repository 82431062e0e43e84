package workerpool

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"time"
)

// Config tunes a Pool. Only Command is required.
type Config struct {
	// Command is the worker argv: Command[0] is the binary (resolved via
	// PATH when not absolute), the rest its arguments.
	Command []string
	// Workers is the number of subprocess slots (default 1). Each slot
	// runs at most one job at a time; processes spawn on demand and are
	// kept alive across jobs.
	Workers int
	// JobTimeout bounds one job's wall clock (0 = none); the ctx given to
	// Do can only tighten it. An expired job is first sent a cancel frame
	// and the worker is SIGKILLed only if it does not answer within
	// CancelGrace.
	JobTimeout time.Duration
	// CancelGrace is how long a canceled or expired job may keep its
	// worker before the supervisor kills it (default 2s).
	CancelGrace time.Duration
	// PingInterval spaces liveness pings (default 500ms); a worker that
	// misses PingMisses consecutive pongs (default 4) is killed.
	PingInterval time.Duration
	PingMisses   int
	// RSSLimitBytes kills a worker whose resident set exceeds the limit
	// (0 = disabled; enforced only where /proc is available). This is the
	// hard backstop above the worker's own soft runtime/debug memory
	// limit.
	RSSLimitBytes int64
	// RSSPoll spaces resident-set checks (default 250ms).
	RSSPoll time.Duration
	// SpawnTimeout bounds the handshake: a fresh process must deliver its
	// hello frame within it (default 10s).
	SpawnTimeout time.Duration
	// BackoffMin/BackoffMax shape the restart backoff after a crash or
	// kill (defaults 100ms and 3s, doubling per consecutive failure).
	BackoffMin, BackoffMax time.Duration
	// MaxFrameBytes bounds one response frame (default
	// DefaultMaxFrameBytes); an oversized announcement is a protocol
	// violation and kills the worker.
	MaxFrameBytes int64
	// Stderr receives the workers' stderr (default: discarded).
	Stderr io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.CancelGrace <= 0 {
		c.CancelGrace = 2 * time.Second
	}
	if c.PingInterval <= 0 {
		c.PingInterval = 500 * time.Millisecond
	}
	if c.PingMisses <= 0 {
		c.PingMisses = 4
	}
	if c.RSSPoll <= 0 {
		c.RSSPoll = 250 * time.Millisecond
	}
	if c.SpawnTimeout <= 0 {
		c.SpawnTimeout = 10 * time.Second
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 3 * time.Second
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = DefaultMaxFrameBytes
	}
	return c
}

// Stats is a point-in-time snapshot of a pool's supervision counters.
type Stats struct {
	// Workers is the configured slot count; Alive and Busy count live
	// processes and slots currently running a job.
	Workers, Alive, Busy int
	// Spawns counts every successful process start; Restarts counts
	// worker deaths (crashes and kills) the pool recovered from; Kills
	// counts the supervisor-initiated subset (deadline escalation,
	// missed pings, RSS limit, protocol violations).
	Spawns, Restarts, Kills int
	// JobsDone / JobsFailed count completed dispatches.
	JobsDone, JobsFailed int
}

// Sentinel errors a Do call can wrap.
var (
	// ErrPoolClosed is returned by Do after Close.
	ErrPoolClosed = errors.New("workerpool: pool closed")
	// ErrWorkerCrashed marks a job that died with its worker process; the
	// pool restarts the worker, and only this one job is affected.
	ErrWorkerCrashed = errors.New("workerpool: worker crashed")
	// ErrWorkerKilled marks a job whose worker the supervisor had to kill
	// (unanswered cancel, missed pings, RSS over limit, protocol
	// violation).
	ErrWorkerKilled = errors.New("workerpool: worker killed")
)

// Pool supervises a fixed set of worker-subprocess slots and dispatches
// jobs to them. It is safe for concurrent use; Do blocks until a slot is
// free.
type Pool struct {
	cfg   Config
	queue chan *poolJob
	stop  chan struct{}
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
	stats  Stats
	pids   map[int]int // slot id -> live pid
}

type poolJob struct {
	ctx     context.Context
	req     []byte
	onEvent func([]byte)
	resp    chan jobResult // buffered: the slot never blocks delivering
}

type jobResult struct {
	payload []byte
	err     error
}

// New builds a pool and starts its supervisor slots. Worker processes
// spawn lazily on first dispatch, so a misconfigured Command surfaces as
// a Do error, not a constructor failure.
func New(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:   cfg,
		queue: make(chan *poolJob),
		stop:  make(chan struct{}),
		pids:  make(map[int]int),
	}
	p.stats.Workers = cfg.Workers
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.slot(i)
	}
	return p
}

// Stats returns a snapshot of the supervision counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Alive = len(p.pids)
	return st
}

// Pids returns the live worker process IDs (fault-injection tests kill
// them; operators correlate them with system metrics).
func (p *Pool) Pids() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, 0, len(p.pids))
	for i := 0; i < p.cfg.Workers; i++ {
		if pid, ok := p.pids[i]; ok {
			out = append(out, pid)
		}
	}
	return out
}

// Do dispatches one job and blocks until its response, the ctx ends, or
// the pool closes. A worker crash or kill fails exactly this job; later
// dispatches see a restarted worker.
func (p *Pool) Do(ctx context.Context, req []byte, onEvent func(event []byte)) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrPoolClosed
	}
	j := &poolJob{ctx: ctx, req: req, onEvent: onEvent, resp: make(chan jobResult, 1)}
	select {
	case p.queue <- j:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.stop:
		return nil, ErrPoolClosed
	}
	select {
	case r := <-j.resp:
		return r.payload, r.err
	case <-ctx.Done():
		// The slot notices j.ctx and escalates cancel -> kill on its own;
		// the caller gets its context error immediately.
		return nil, ctx.Err()
	}
}

// Close drains the pool: no new dispatches are accepted, in-flight jobs
// run to completion, and every worker is shut down (stdin close first,
// SIGKILL after CancelGrace). It is idempotent.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.stop)
	p.wg.Wait()
	return nil
}

// slot is one supervisor goroutine: it owns at most one worker process at
// a time, spawning on demand with backoff, running jobs, and answering
// for the worker's health between them.
func (p *Pool) slot(id int) {
	defer p.wg.Done()
	var w *proc
	backoff := p.cfg.BackoffMin
	idlePing := time.NewTicker(p.cfg.PingInterval)
	defer idlePing.Stop()
	idleMisses := 0
	defer func() {
		if w != nil {
			p.shutdownProc(id, w)
		}
	}()
	for {
		select {
		case <-p.stop:
			return
		case j := <-p.queue:
			if err := j.ctx.Err(); err != nil {
				j.resp <- jobResult{err: err}
				continue
			}
			if w == nil {
				var err error
				w, err = p.spawn(id, &backoff)
				if err != nil {
					// The spawn failure fails this one job; the next
					// dispatch retries (after the grown backoff).
					p.finishJob(j, nil, err)
					continue
				}
			}
			payload, err, dead := p.runJob(id, w, j)
			if dead {
				// Crash or kill mid-job: the next spawn on this slot backs
				// off, so a worker that dies instantly on every job cannot
				// turn the pool into a fork bomb.
				p.noteDeath(id)
				w = nil
				backoff = min(backoff*2, p.cfg.BackoffMax)
			} else {
				backoff = p.cfg.BackoffMin
			}
			// After noteDeath, so Stats counts the death once Do returns.
			p.finishJob(j, payload, err)
			idleMisses = 0
		case <-idlePing.C:
			if w == nil {
				continue
			}
			alive := true
			// Consume anything the idle worker sent (pongs; a closed
			// channel means the process died under us).
		drain:
			for {
				select {
				case m, ok := <-w.msgs:
					if !ok {
						alive = false
						break drain
					}
					if m.typ == framePong {
						idleMisses = 0
					}
				default:
					break drain
				}
			}
			if !alive {
				p.noteDeath(id)
				w = nil
				idleMisses = 0
				continue
			}
			idleMisses++
			if idleMisses > p.cfg.PingMisses {
				p.killProc(id, w, "missed pings while idle")
				p.noteDeath(id)
				w = nil
				idleMisses = 0
				continue
			}
			if err := w.send(framePing, nil); err != nil {
				p.killProc(id, w, "ping write failed")
				p.noteDeath(id)
				w = nil
				idleMisses = 0
			}
		}
	}
}

// finishJob accounts one job's outcome and delivers it (the response
// channel is buffered, so the slot never blocks). Accounting comes first,
// so Stats counts every job whose Do has returned.
//
//fpva:allocfree
func (p *Pool) finishJob(j *poolJob, payload []byte, err error) {
	p.mu.Lock()
	if err != nil {
		p.stats.JobsFailed++
	} else {
		p.stats.JobsDone++
	}
	p.mu.Unlock()
	j.resp <- jobResult{payload: payload, err: err}
}

// noteDeath records a worker death the pool will recover from.
func (p *Pool) noteDeath(id int) {
	p.mu.Lock()
	p.stats.Restarts++
	delete(p.pids, id)
	p.mu.Unlock()
}

// runJob drives one dispatched job on a live worker. It returns the
// response payload or error, plus whether the worker died (or had to be
// killed) doing it.
func (p *Pool) runJob(id int, w *proc, j *poolJob) (payload []byte, err error, dead bool) {
	p.mu.Lock()
	p.stats.Busy++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.stats.Busy--
		p.mu.Unlock()
	}()

	if err := w.send(frameJob, j.req); err != nil {
		p.killProc(id, w, "job write failed")
		return nil, fmt.Errorf("%w: %v", ErrWorkerCrashed, err), true
	}

	jctx := j.ctx
	var cancelTimeout context.CancelFunc
	if p.cfg.JobTimeout > 0 {
		jctx, cancelTimeout = context.WithTimeout(jctx, p.cfg.JobTimeout)
		defer cancelTimeout()
	}

	ping := time.NewTicker(p.cfg.PingInterval)
	defer ping.Stop()
	misses := 0

	var rssC <-chan time.Time
	if p.cfg.RSSLimitBytes > 0 && rssSupported() {
		rss := time.NewTicker(p.cfg.RSSPoll)
		defer rss.Stop()
		rssC = rss.C
	}

	ctxDone := jctx.Done()
	var grace <-chan time.Time
	canceled := false

	for {
		select {
		case m, ok := <-w.msgs:
			if !ok {
				werr := w.waitErr()
				return nil, fmt.Errorf("%w: %v", ErrWorkerCrashed, werr), true
			}
			switch m.typ {
			case framePong:
				misses = 0
			case frameEvent:
				if !canceled && j.onEvent != nil {
					j.onEvent(m.payload)
				}
			case frameResult:
				if canceled {
					// The worker raced its result against our cancel; the
					// job is already lost to its caller, but the worker
					// honored the protocol and stays up.
					return nil, jctx.Err(), false
				}
				return m.payload, nil, false
			case frameError:
				if canceled {
					return nil, jctx.Err(), false
				}
				return nil, fmt.Errorf("workerpool: worker: %s", m.payload), false
			default:
				p.killProc(id, w, fmt.Sprintf("protocol violation: frame type %d", m.typ))
				return nil, fmt.Errorf("%w: protocol violation (frame type %d)", ErrWorkerKilled, m.typ), true
			}
		case <-ctxDone:
			// Deadline or caller cancel: ask nicely, then escalate.
			canceled = true
			ctxDone = nil
			w.send(frameCancel, nil)
			t := time.NewTimer(p.cfg.CancelGrace)
			defer t.Stop()
			grace = t.C
		case <-grace:
			p.killProc(id, w, "cancel unanswered")
			return nil, fmt.Errorf("%w: %v (cancel unanswered after %v)", ErrWorkerKilled, jctx.Err(), p.cfg.CancelGrace), true
		case <-ping.C:
			misses++
			if misses > p.cfg.PingMisses {
				p.killProc(id, w, "missed pings")
				return nil, fmt.Errorf("%w: missed %d pings", ErrWorkerKilled, misses), true
			}
			if err := w.send(framePing, nil); err != nil {
				p.killProc(id, w, "ping write failed")
				return nil, fmt.Errorf("%w: %v", ErrWorkerCrashed, err), true
			}
		case <-rssC:
			if rss := procRSS(w.pid); rss > p.cfg.RSSLimitBytes {
				p.killProc(id, w, "RSS over limit")
				return nil, fmt.Errorf("%w: resident set %d bytes exceeds limit %d", ErrWorkerKilled, rss, p.cfg.RSSLimitBytes), true
			}
		}
	}
}

// frameMsg is one worker->pool frame, payload copied out of the read
// buffer.
type frameMsg struct {
	typ     byte
	payload []byte
}

// proc is one live worker process.
type proc struct {
	cmd   *exec.Cmd
	pid   int
	stdin io.WriteCloser
	bw    *bufio.Writer
	wmu   sync.Mutex
	msgs  chan frameMsg // closed when the stdout stream ends
	done  chan struct{} // closed once the process is reaped

	werrMu sync.Mutex
	werr   error // cmd.Wait outcome
}

// send writes one frame to the worker, serialized against concurrent
// senders (job dispatch vs. liveness pings). It is the supervisor side
// of the per-job hot path, so it stays allocation-free: the frame header
// lives on the stack and the payload is written as-is.
//
//fpva:allocfree
func (w *proc) send(typ byte, payload []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if err := writeFrame(w.bw, typ, payload); err != nil {
		return err
	}
	return w.bw.Flush()
}

func (w *proc) waitErr() error {
	<-w.done
	w.werrMu.Lock()
	defer w.werrMu.Unlock()
	if w.werr == nil {
		return errors.New("exited")
	}
	return w.werr
}

// spawn starts a worker process and completes the hello handshake,
// applying (and growing) the restart backoff on failure.
func (p *Pool) spawn(id int, backoff *time.Duration) (*proc, error) {
	if *backoff > p.cfg.BackoffMin {
		// A recent failure on this slot: give the machine a beat before
		// the next exec storm.
		select {
		case <-time.After(*backoff):
		case <-p.stop:
			return nil, ErrPoolClosed
		}
	}
	w, err := p.startProc()
	if err == nil {
		err = p.awaitHello(w)
		if err != nil {
			p.killProc(id, w, "handshake failed")
		}
	}
	if err != nil {
		*backoff = min(*backoff*2, p.cfg.BackoffMax)
		return nil, fmt.Errorf("workerpool: spawn worker: %w", err)
	}
	p.mu.Lock()
	p.stats.Spawns++
	p.pids[id] = w.pid
	p.mu.Unlock()
	return w, nil
}

func (p *Pool) startProc() (*proc, error) {
	if len(p.cfg.Command) == 0 {
		return nil, errors.New("no worker command configured")
	}
	cmd := exec.Command(p.cfg.Command[0], p.cfg.Command[1:]...)
	if p.cfg.Stderr != nil {
		cmd.Stderr = p.cfg.Stderr
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &proc{
		cmd:   cmd,
		pid:   cmd.Process.Pid,
		stdin: stdin,
		bw:    bufio.NewWriterSize(stdin, 64<<10),
		msgs:  make(chan frameMsg, 16),
		done:  make(chan struct{}),
	}
	go p.readProc(w, stdout)
	return w, nil
}

// readProc owns the worker's stdout: it decodes frames into w.msgs
// (payloads copied out of the shared read buffer), closes the channel on
// any stream end or decode error — garbage and truncated frames land
// here — and reaps the process.
func (p *Pool) readProc(w *proc, stdout io.Reader) {
	br := bufio.NewReaderSize(stdout, 64<<10)
	var buf []byte
	for {
		typ, payload, nbuf, err := readFrame(br, buf, p.cfg.MaxFrameBytes)
		buf = nbuf
		if err != nil {
			break
		}
		w.msgs <- frameMsg{typ: typ, payload: append([]byte(nil), payload...)}
	}
	close(w.msgs)
	// A decode error leaves the worker alive and possibly blocked writing
	// into the now-unread pipe; kill it so Wait can reap. When the stream
	// ended because the process exited this is a no-op.
	w.cmd.Process.Kill()
	err := w.cmd.Wait()
	w.werrMu.Lock()
	w.werr = err
	w.werrMu.Unlock()
	close(w.done)
}

// awaitHello completes the handshake: the first frame must be a hello
// with the exact protocol payload, within the spawn timeout.
func (p *Pool) awaitHello(w *proc) error {
	t := time.NewTimer(p.cfg.SpawnTimeout)
	defer t.Stop()
	select {
	case m, ok := <-w.msgs:
		if !ok {
			return fmt.Errorf("worker exited before hello: %v", w.waitErr())
		}
		if m.typ != frameHello || string(m.payload) != string(helloPayload) {
			return fmt.Errorf("bad hello (frame type %d, payload %q): protocol mismatch", m.typ, m.payload)
		}
		return nil
	case <-t.C:
		return fmt.Errorf("no hello within %v", p.cfg.SpawnTimeout)
	}
}

// killProc hard-kills a worker and accounts the kill. The reader
// goroutine observes the stream end and reaps the process; the drain
// keeps it from blocking on buffered frames nobody will read.
func (p *Pool) killProc(id int, w *proc, reason string) {
	w.cmd.Process.Kill()
	w.stdin.Close()
	go drainMsgs(w.msgs)
	p.mu.Lock()
	p.stats.Kills++
	delete(p.pids, id)
	p.mu.Unlock()
	_ = reason // reasons surface in the job errors; kept for call-site readability
}

// drainMsgs discards a dead worker's remaining frames so its reader
// goroutine can finish and reap the process.
func drainMsgs(msgs <-chan frameMsg) {
	for range msgs {
	}
}

// shutdownProc drains one worker on pool close: close its stdin (Serve
// exits cleanly on EOF), give it CancelGrace to go, then kill.
func (p *Pool) shutdownProc(id int, w *proc) {
	w.stdin.Close()
	go drainMsgs(w.msgs)
	t := time.NewTimer(p.cfg.CancelGrace)
	defer t.Stop()
	select {
	case <-w.done:
	case <-t.C:
		w.cmd.Process.Kill()
		<-w.done
	}
	p.mu.Lock()
	delete(p.pids, id)
	p.mu.Unlock()
}
