package fpva

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/workerpool"
)

// The subprocess-executor tests re-exec this test binary as the worker:
// TestMain checks the mode env var and, when set, serves the solver-worker
// protocol on stdin/stdout instead of running the test suite.
const workerEnv = "FPVA_TEST_WORKER"

func TestMain(m *testing.M) {
	switch os.Getenv(workerEnv) {
	case "":
		os.Exit(m.Run())
	case "solve":
		// The real worker, exactly as cmd/fpvaworker runs it.
		if err := ServeSolverWorker(context.Background(), os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
	case "failsolve":
		// Healthy worker whose every solve reports an error.
		workerpool.Serve(context.Background(), os.Stdin, os.Stdout,
			func(ctx context.Context, req []byte, emit func([]byte)) ([]byte, error) {
				return nil, errors.New("synthetic solver failure")
			})
	case "hangsolve":
		// Cooperative hang: the solve never finishes on its own but honors
		// cancellation (deadline tests stay fast; the SIGKILL escalation
		// path is covered by the workerpool package's own tests).
		workerpool.Serve(context.Background(), os.Stdin, os.Stdout,
			func(ctx context.Context, req []byte, emit func([]byte)) ([]byte, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			})
	default:
		os.Exit(2)
	}
	os.Exit(0)
}

// workerPids exposes the live worker process IDs to the fault-injection
// tests.
func (s *Service) workerPids() []int {
	if s.pool == nil {
		return nil
	}
	return s.pool.Pids()
}

// newSubprocessService builds a subprocess-executor service whose workers
// are this test binary in the given mode.
func newSubprocessService(t *testing.T, mode string, opts ...ServiceOption) *Service {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	os.Setenv(workerEnv, mode)
	t.Cleanup(func() { os.Unsetenv(workerEnv) })
	all := append([]ServiceOption{
		WithSolverExecutor(ExecSubprocess),
		WithWorkerCommand(exe),
	}, opts...)
	svc := NewService(all...)
	t.Cleanup(func() { svc.Close() })
	return svc
}

// normalizePlanWire re-marshals a plan's wire bytes with the timing
// statistics zeroed. Timings are measurements, not content — they are the
// only fields allowed to differ between an in-process and a subprocess
// solve of the same request.
func normalizePlanWire(t *testing.T, wire []byte) string {
	t.Helper()
	var env planEnvelope
	if err := json.Unmarshal(wire, &env); err != nil {
		t.Fatalf("plan wire does not parse: %v", err)
	}
	env.Stats.TPNanos = 0
	env.Stats.TCNanos = 0
	env.Stats.TLNanos = 0
	env.Stats.TNanos = 0
	env.Stats.SolverWallNanos = 0
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func generateOn(t *testing.T, svc *Service, a *Array, opts ...GenOption) *Job {
	t.Helper()
	j, err := svc.SubmitGenerate(context.Background(), a, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatalf("generate failed: %v", err)
	}
	return j
}

// TestSubprocessBitIdentical is the tentpole acceptance check: a
// subprocess-mode solve must return plan wire bytes bit-identical to the
// in-process solve of the same request (timing statistics normalized),
// with the same phase-event sequence.
func TestSubprocessBitIdentical(t *testing.T) {
	a, err := NewArray(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	inproc := NewService()
	defer inproc.Close()
	sub := newSubprocessService(t, "solve")

	var inEvents, subEvents []Event
	jIn := generateOn(t, inproc, a, WithProgress(func(e Event) { inEvents = append(inEvents, e) }))
	jSub := generateOn(t, sub, a, WithProgress(func(e Event) { subEvents = append(subEvents, e) }))

	wireIn, err := jIn.PlanBytes()
	if err != nil {
		t.Fatal(err)
	}
	wireSub, err := jSub.PlanBytes()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalizePlanWire(t, wireSub), normalizePlanWire(t, wireIn); got != want {
		t.Errorf("subprocess plan wire differs from in-process:\n got %s\nwant %s", got, want)
	}
	if len(subEvents) == 0 {
		t.Fatal("subprocess solve emitted no phase events")
	}
	if len(subEvents) != len(inEvents) {
		t.Fatalf("event count mismatch: subprocess %d, in-process %d", len(subEvents), len(inEvents))
	}
	for i := range subEvents {
		if subEvents[i] != inEvents[i] {
			t.Errorf("event %d: subprocess %+v, in-process %+v", i, subEvents[i], inEvents[i])
		}
	}
	st := sub.Stats()
	if st.SolverExecutor != "subprocess" || st.WorkerSpawns != 1 || st.WorkersAlive != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestSubprocessEngineOptionsTravel exercises the non-default knobs over
// the wire: direct model, no leakage, explicit engines, block size.
func TestSubprocessEngineOptionsTravel(t *testing.T) {
	a, err := NewArray(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	inproc := NewService()
	defer inproc.Close()
	sub := newSubprocessService(t, "solve")
	opts := []GenOption{
		WithDirectModel(),
		WithoutLeakage(),
		WithPathEngine(PathEngineSerpentine),
		WithCutEngine(CutEngineDual),
	}
	wireIn, err := generateOn(t, inproc, a, opts...).PlanBytes()
	if err != nil {
		t.Fatal(err)
	}
	wireSub, err := generateOn(t, sub, a, opts...).PlanBytes()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalizePlanWire(t, wireSub), normalizePlanWire(t, wireIn); got != want {
		t.Errorf("subprocess plan wire differs from in-process:\n got %s\nwant %s", got, want)
	}
	plan, err := generateOn(t, sub, a, opts...).Plan()
	if err != nil {
		t.Fatal(err)
	}
	if n := plan.Stats().NL; n != 0 {
		t.Errorf("WithoutLeakage did not travel: %d leakage vectors", n)
	}
}

// TestSubprocessCacheAndSingleflight: identical submissions hit the plan
// cache (no second solve), and the cached bytes are the worker's response
// verbatim.
func TestSubprocessCacheAndSingleflight(t *testing.T) {
	a, err := NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sub := newSubprocessService(t, "solve")
	first, err := generateOn(t, sub, a).PlanBytes()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewArray(4, 4) // content-identical, distinct instance
	if err != nil {
		t.Fatal(err)
	}
	j2 := generateOn(t, sub, b)
	if !j2.CacheHit() {
		t.Error("second identical submission missed the cache")
	}
	second, err := j2.PlanBytes()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Error("cache returned different bytes than the worker produced")
	}
	if st := sub.Stats(); st.Solves != 1 {
		t.Errorf("expected exactly one subprocess solve, got %d", st.Solves)
	}
}

// TestSubprocessPortBinding: a worker answers with wire bytes, which carry
// neither port names nor attachment order, yet the job's plan sits on the
// caller's array, and so does a renamed memory hit's, with the solve's
// vectors.
func TestSubprocessPortBinding(t *testing.T) {
	sub := newSubprocessService(t, "solve")
	solveArr, hitArr := portedArray(t, "y", "x"), portedArray(t, "p", "q")
	j := generateOn(t, sub, solveArr)
	solved, err := j.Plan()
	if err != nil {
		t.Fatal(err)
	}
	checkPortBinding(t, "subprocess solve", j, solveArr, solved)
	checkPortBinding(t, "memory hit", generateOn(t, sub, hitArr), hitArr, solved)
}

// TestSubprocessKill9FailsExactlyOneJob is the crash-isolation acceptance
// check: SIGKILLing the worker mid-solve fails that job and only that
// job; the service keeps serving and the next solve runs on a restarted
// worker.
func TestSubprocessKill9FailsExactlyOneJob(t *testing.T) {
	a, err := NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sub := newSubprocessService(t, "hangsolve")
	j, err := sub.SubmitGenerate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick the solve up, then SIGKILL it.
	var pid int
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if pids := sub.workerPids(); len(pids) == 1 && sub.Stats().WorkersBusy == 1 {
			pid = pids[0]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if pid == 0 {
		t.Fatal("worker never became busy")
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err == nil {
		t.Fatal("job survived its worker being SIGKILLed")
	} else if !errors.Is(err, workerpool.ErrWorkerCrashed) {
		t.Fatalf("err = %v, want ErrWorkerCrashed", err)
	}
	if st := j.State(); st != JobFailed {
		t.Fatalf("job state = %v, want failed", st)
	}
	// Exactly one job was hurt: a fresh solve succeeds on a respawned
	// worker (same array — the failed solve must not have poisoned the
	// cache or the flight table).
	os.Setenv(workerEnv, "solve")
	if _, err := generateOn(t, sub, a).Plan(); err != nil {
		t.Fatalf("post-kill solve: %v", err)
	}
	st := sub.Stats()
	if st.WorkerRestarts != 1 {
		t.Errorf("restarts = %d, want 1", st.WorkerRestarts)
	}
	ks := st.Kinds["generate"]
	if ks.Failed != 1 || ks.Done != 1 {
		t.Errorf("generate kind stats = %+v, want 1 failed / 1 done", ks)
	}
}

// TestSubprocessWorkerErrorFailsJob: a worker-side solve error travels
// back as the job's error; the worker survives.
func TestSubprocessWorkerErrorFailsJob(t *testing.T) {
	a, err := NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sub := newSubprocessService(t, "failsolve")
	j, err := sub.SubmitGenerate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	err = j.Wait(context.Background())
	if err == nil || !strings.Contains(err.Error(), "synthetic solver failure") {
		t.Fatalf("err = %v, want the worker's failure message", err)
	}
	if st := sub.Stats(); st.WorkerRestarts != 0 || st.WorkersAlive != 1 {
		t.Errorf("worker should have survived a solve error: %+v", st)
	}
}

// TestSubprocessSolverTimeout: WithSolverTimeout bounds a subprocess
// solve; the job fails with a deadline error and the (cooperative) worker
// survives.
func TestSubprocessSolverTimeout(t *testing.T) {
	a, err := NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sub := newSubprocessService(t, "hangsolve", WithSolverTimeout(150*time.Millisecond))
	j, err := sub.SubmitGenerate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if st := sub.Stats(); st.WorkerKills != 0 {
		t.Errorf("cooperative cancel should not kill the worker: %+v", st)
	}
}

// TestSolveWorkerJobRejectsGarbage covers the worker-side request
// validation: non-JSON, wrong format, bad version, bad array, bad engine.
func TestSolveWorkerJobRejectsGarbage(t *testing.T) {
	noEvents := func([]byte) {}
	a, err := NewArray(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	badEngine, err := json.Marshal(solveEnvelope{
		Format: SolveFormat, Version: CodecVersion, Array: a.Text(), PathEngine: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  string
	}{
		{"not json", "not json at all"},
		{"wrong format", `{"format":"fpva.plan","version":1,"array":""}`},
		{"wrong version", `{"format":"fpva.solve","version":99,"array":""}`},
		{"bad array", `{"format":"fpva.solve","version":1,"array":"not an array"}`},
		{"bad engine", string(badEngine)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := solveWorkerJob(context.Background(), []byte(tc.req), noEvents); err == nil {
				t.Error("invalid solve request was accepted")
			}
		})
	}
}

func TestParseSolverExecutor(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SolverExecutor
		ok   bool
	}{
		{"in-process", ExecInProcess, true},
		{"subprocess", ExecSubprocess, true},
		{"threads", 0, false},
	} {
		got, err := ParseSolverExecutor(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseSolverExecutor(%q) = %v, %v", tc.in, got, err)
		}
	}
	if ExecInProcess.String() != "in-process" || ExecSubprocess.String() != "subprocess" {
		t.Error("executor names changed; fpvad -solver-exec documents these")
	}
}
