package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/cmd/internal/api"
	"repro/fpva"
	"repro/internal/workerpool" // test files are exempt from apiboundary
)

// workerEnv re-execs the test binary as a solver worker: "solve" serves
// real solves (what fpvaworker does), "hang" accepts a job and blocks
// until canceled or killed — the crash-injection target.
const workerEnv = "FPVAD_TEST_WORKER"

func TestMain(m *testing.M) {
	switch mode := os.Getenv(workerEnv); mode {
	case "":
		os.Exit(m.Run())
	case "solve":
		if err := fpva.ServeSolverWorker(context.Background(), os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "test worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	case "hang":
		err := workerpool.Serve(context.Background(), os.Stdin, os.Stdout,
			func(ctx context.Context, req []byte, emit func([]byte)) ([]byte, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			})
		if err != nil {
			fmt.Fprintln(os.Stderr, "test worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	default:
		fmt.Fprintf(os.Stderr, "unknown %s mode %q\n", workerEnv, mode)
		os.Exit(2)
	}
}

func newTestServer(t *testing.T) (*httptest.Server, *fpva.Service) {
	t.Helper()
	svc := fpva.NewService()
	srv := httptest.NewServer(newServer(svc, nil))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv, svc
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func waitDone(t *testing.T, base, id string) api.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, b := getBody(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status poll: %d %s", code, b)
		}
		var j api.Job
		if err := json.Unmarshal(b, &j); err != nil {
			t.Fatal(err)
		}
		switch j.State {
		case "done", "failed", "canceled":
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never finished")
	return api.Job{}
}

func encodeArray(t *testing.T, rows, cols int) string {
	t.Helper()
	a, err := fpva.NewArray(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fpva.EncodeArray(&buf, a); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestGenerateJobLifecycle drives the smoke-test flow in-process: submit a
// 4x4 generate job, stream its NDJSON progress, and fetch the plan.
func TestGenerateJobLifecycle(t *testing.T) {
	srv, _ := newTestServer(t)
	code, b := postJSON(t, srv.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"generate","array":%s}`, encodeArray(t, 4, 4)))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, b)
	}
	var j api.Job
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatal(err)
	}
	if j.Kind != "generate" || j.ID == "" {
		t.Fatalf("submit response %+v", j)
	}

	// The events endpoint replays history and follows to the terminal line.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	var phases, lines int
	var last api.Job
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
		var e api.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e.Event == "phase-started" || e.Event == "phase-finished" {
			phases++
		}
		if e.Event == "" { // terminal status line
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if phases != 6 {
		t.Errorf("streamed %d phase events, want 6 (got %d lines)", phases, lines)
	}
	if last.State != "done" {
		t.Errorf("terminal stream line %+v", last)
	}

	code, planBytes := getBody(t, srv.URL+"/v1/jobs/"+j.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, planBytes)
	}
	plan, err := fpva.DecodePlan(bytes.NewReader(planBytes))
	if err != nil {
		t.Fatalf("result is not a v1 plan: %v", err)
	}
	if plan.NumVectors() == 0 {
		t.Error("plan has no vectors")
	}
}

// TestPlanRoundTripBitIdentical is the acceptance check: a plan generated
// locally (the bytes fpvatest -o writes) submitted to fpvad comes back
// bit-identical from the plan endpoint.
func TestPlanRoundTripBitIdentical(t *testing.T) {
	srv, _ := newTestServer(t)
	a, err := fpva.BenchmarkArray("5x5")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fpva.Generate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if err := fpva.EncodePlan(&local, plan); err != nil {
		t.Fatal(err)
	}
	code, b := postJSON(t, srv.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"campaign","plan":%s,"campaign":{"trials":200,"faults":2,"seed":11}}`,
			local.String()))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, b)
	}
	var j api.Job
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatal(err)
	}
	code, remote := getBody(t, srv.URL+"/v1/jobs/"+j.ID+"/plan")
	if code != http.StatusOK {
		t.Fatalf("plan fetch: %d %s", code, remote)
	}
	if !bytes.Equal(local.Bytes(), remote) {
		t.Error("plan round trip through fpvad is not bit-identical")
	}

	if got := waitDone(t, srv.URL, j.ID); got.State != "done" {
		t.Fatalf("campaign job: %+v", got)
	}
	code, b = getBody(t, srv.URL+"/v1/jobs/"+j.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("campaign result: %d %s", code, b)
	}
	var rep api.CampaignReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Format != "fpva.campaign" || rep.Trials != 200 || rep.Detected != 200 {
		t.Errorf("campaign report %+v", rep)
	}

	// The same campaign replayed locally must agree bit for bit.
	localRes, err := plan.Campaign(context.Background(),
		fpva.WithTrials(200), fpva.WithNumFaults(2), fpva.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if localRes.Detected != rep.Detected || localRes.Sims != rep.Sims {
		t.Errorf("remote campaign diverges: local %+v, remote %+v", localRes, rep)
	}
}

// TestVerifyJob: the verify kind reports empty escape sets on a covered
// array.
func TestVerifyJob(t *testing.T) {
	srv, _ := newTestServer(t)
	a, err := fpva.NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fpva.Generate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fpva.EncodePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	code, b := postJSON(t, srv.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"verify","plan":%s,"verify":{"maxPairs":500}}`, buf.String()))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, b)
	}
	var j api.Job
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, srv.URL, j.ID); got.State != "done" {
		t.Fatalf("verify job: %+v", got)
	}
	code, b = getBody(t, srv.URL+"/v1/jobs/"+j.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("verify result: %d %s", code, b)
	}
	var rep api.VerifyReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Format != "fpva.verify" || len(rep.SingleEscapes) != 0 || len(rep.DoubleEscapes) != 0 {
		t.Errorf("verify report %+v", rep)
	}
}

// TestDiagnoseJob drives the closed-loop diagnose kind over HTTP: submit
// a plan plus one faulty observation, stream the diagnose ticks, and
// decode the wire diagnosis from the result endpoint.
func TestDiagnoseJob(t *testing.T) {
	srv, _ := newTestServer(t)
	a, err := fpva.NewArray(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fpva.Generate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := fpva.EncodePlan(&wire, plan); err != nil {
		t.Fatal(err)
	}

	// Play the technician: measure vector 0 on a device with a hidden
	// stuck-at-0 fault.
	hidden := []fpva.Fault{{Kind: fpva.StuckAt0, A: plan.Vectors()[0].Open[0]}}
	sim, err := a.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	v0 := a.NewVector(plan.Vectors()[0].Name)
	for _, e := range plan.Vectors()[0].Open {
		if err := v0.SetOpen(e, true); err != nil {
			t.Fatal(err)
		}
	}
	readings, err := sim.Readings(v0, hidden)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(readings)
	if err != nil {
		t.Fatal(err)
	}

	params := fmt.Sprintf(`"observations":[{"vector":0,"readings":%s}]`, rb)
	code, b := postJSON(t, srv.URL+"/v1/jobs", fmt.Sprintf(
		`{"kind":"diagnose","plan":%s,"diagnose":{%s}}`, wire.String(), params))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, b)
	}
	var j api.Job
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatal(err)
	}
	if j.Kind != "diagnose" {
		t.Fatalf("submit response %+v", j)
	}
	if got := waitDone(t, srv.URL, j.ID); got.State != "done" {
		t.Fatalf("diagnose job: %+v", got)
	}

	// The event stream carries one diagnose tick per observation.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ticks := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e api.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if e.Event == "diagnose-tick" {
			ticks++
			if e.Round != 1 || e.Ambiguity <= 0 {
				t.Errorf("diagnose tick %+v", e)
			}
		}
	}
	if ticks != 1 {
		t.Errorf("streamed %d diagnose ticks, want 1", ticks)
	}

	code, result := getBody(t, srv.URL+"/v1/jobs/"+j.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, result)
	}
	d, err := fpva.DecodeDiagnosis(bytes.NewReader(result))
	if err != nil {
		t.Fatalf("result is not a v1 diagnosis: %v", err)
	}
	if !d.Consistent || d.FaultFree {
		t.Errorf("diagnosis consistent=%t faultFree=%t", d.Consistent, d.FaultFree)
	}
	found := false
	for _, fs := range d.Ambiguity {
		if len(fs) == 1 && fs[0] == hidden[0] {
			found = true
		}
	}
	if !found {
		t.Errorf("hidden fault %v missing from ambiguity set %v", hidden[0], d.Ambiguity)
	}

	// Stats surface the diagnose counters and per-kind tallies.
	code, b = getBody(t, srv.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, b)
	}
	var st api.ServiceStats
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Diagnoses != 1 || st.SigCacheMisses != 1 || st.CompileMisses != 1 || st.CompileHits != 0 {
		t.Errorf("diagnose stats %+v", st)
	}
	if ks := st.Kinds["diagnose"]; ks.Submitted != 1 || ks.Done != 1 {
		t.Errorf("per-kind stats %+v", st.Kinds)
	}

	// Old clients still send the removed planner and engine selectors:
	// they are ignored like any unknown field, and the result bytes are
	// those of the same request without them.
	code, b = postJSON(t, srv.URL+"/v1/jobs", fmt.Sprintf(
		`{"kind":"diagnose","plan":%s,"diagnose":{%s,"planner":"ilp","engine":"scalar"}}`, wire.String(), params))
	if code != http.StatusAccepted {
		t.Fatalf("old-client submit: %d %s", code, b)
	}
	var old api.Job
	if err := json.Unmarshal(b, &old); err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, srv.URL, old.ID); got.State != "done" {
		t.Fatalf("old-client diagnose job: %+v", got)
	}
	code, b = getBody(t, srv.URL+"/v1/jobs/"+old.ID+"/result")
	if code != http.StatusOK || !bytes.Equal(b, result) {
		t.Errorf("old-client result: %d\n%s\nwant\n%s", code, b, result)
	}
}

// TestSubmitErrors: malformed submissions map to 400 with a JSON error,
// unknown jobs to 404, unfinished results to 409.
func TestSubmitErrors(t *testing.T) {
	srv, svc := newTestServer(t)
	for name, body := range map[string]string{
		"bad json":        `{`,
		"unknown kind":    `{"kind":"mystery"}`,
		"generate no arr": `{"kind":"generate"}`,
		"campaign no pln": `{"kind":"campaign"}`,
		"bad array":       `{"kind":"generate","array":{"format":"fpva.array","version":9,"text":""}}`,
		"bad plan":        `{"kind":"campaign","plan":{"format":"fpva.plan","version":1,"array":"x"}}`,
		"bad engine":      `{"kind":"generate","array":` + encodeArray(t, 3, 3) + `,"generate":{"pathEngine":"nope"}}`,
	} {
		code, b := postJSON(t, srv.URL+"/v1/jobs", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, code, b)
		}
		var e map[string]string
		if err := json.Unmarshal(b, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error payload %s", name, b)
		}
	}
	if code, _ := getBody(t, srv.URL+"/v1/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}
	if code, _ := getBody(t, srv.URL+"/v1/jobs/nope/result"); code != http.StatusNotFound {
		t.Errorf("unknown job result: %d, want 404", code)
	}

	// A canceled-before-running job reports 409 on result fetch.
	a, _ := fpva.NewArray(3, 3)
	job, err := svc.SubmitGenerate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	job.Cancel()
	<-job.Done()
	if job.State() == fpva.JobCanceled {
		if code, _ := getBody(t, srv.URL+"/v1/jobs/"+job.ID()+"/result"); code != http.StatusConflict {
			t.Errorf("canceled job result: %d, want 409", code)
		}
	}
}

// TestStatsAndList: the observability endpoints reflect submitted work.
func TestStatsAndList(t *testing.T) {
	srv, _ := newTestServer(t)
	arr := encodeArray(t, 4, 4)
	for i := 0; i < 2; i++ {
		code, b := postJSON(t, srv.URL+"/v1/jobs", `{"kind":"generate","array":`+arr+`}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, code, b)
		}
		var j api.Job
		if err := json.Unmarshal(b, &j); err != nil {
			t.Fatal(err)
		}
		waitDone(t, srv.URL, j.ID)
	}
	code, b := getBody(t, srv.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, b)
	}
	var st api.ServiceStats
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.JobsSubmitted != 2 || st.JobsDone != 2 {
		t.Errorf("stats jobs %+v", st)
	}
	if st.Solves != 1 || st.CacheHits+st.CacheCoalesced != 1 {
		t.Errorf("identical submissions did not dedup: %+v", st)
	}
	if st.CompileHits != 0 || st.CompileMisses != 0 {
		t.Errorf("generate jobs compiled vectors: %+v", st)
	}
	code, b = getBody(t, srv.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, b)
	}
	var jobs []api.Job
	if err := json.Unmarshal(b, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Errorf("listed %d jobs, want 2", len(jobs))
	}
	if code, _ := getBody(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
}

// TestCancelEndpoint cancels a queued job over HTTP.
func TestCancelEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	// A deliberately heavy solve so cancel lands while it is in flight.
	code, b := postJSON(t, srv.URL+"/v1/jobs",
		`{"kind":"generate","array":`+encodeArray(t, 10, 10)+
			`,"generate":{"direct":true,"pathEngine":"ilp-iterative"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, b)
	}
	var j api.Job
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatal(err)
	}
	code, b = postJSON(t, srv.URL+"/v1/jobs/"+j.ID+"/cancel", "")
	if code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, b)
	}
	if got := waitDone(t, srv.URL, j.ID); got.State != "canceled" {
		t.Errorf("after cancel: %+v", got)
	}
}

// TestDeleteJobEndpoint is the DELETE /v1/jobs/{id} contract, table-style:
// unknown ids 404, live jobs 409, terminal jobs 200 and then 404 — with
// the per-state stats dropping the job while lifetime tallies keep it.
func TestDeleteJobEndpoint(t *testing.T) {
	srv, svc := newTestServer(t)
	del := func(id string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	// A terminal job first (on a one-CPU service the live job below would
	// otherwise hold the only worker slot and starve it).
	code, b := postJSON(t, srv.URL+"/v1/jobs", `{"kind":"generate","array":`+encodeArray(t, 4, 4)+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, b)
	}
	var done api.Job
	if err := json.Unmarshal(b, &done); err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv.URL, done.ID)
	// And a live one to 409 against: heavy enough that delete lands
	// mid-solve.
	a, err := fpva.NewArray(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	live, err := svc.SubmitGenerate(context.Background(), a,
		fpva.WithDirectModel(), fpva.WithPathEngine(fpva.PathEngineILPIterative))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Cancel()

	for _, tc := range []struct {
		name string
		id   string
		code int
	}{
		{"unknown id", "nope", http.StatusNotFound},
		{"running job", live.ID(), http.StatusConflict},
		{"terminal job", done.ID, http.StatusOK},
		{"already deleted", done.ID, http.StatusNotFound},
	} {
		if code, b := del(tc.id); code != tc.code {
			t.Errorf("%s: DELETE %s = %d, want %d (%s)", tc.name, tc.id, code, tc.code, b)
		}
	}

	code, b = getBody(t, srv.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, b)
	}
	var st api.ServiceStats
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.JobsDone != 0 {
		t.Errorf("deleted job still counted done: %+v", st)
	}
	if st.JobsSubmitted != 2 || st.Kinds["generate"].Done != 1 {
		t.Errorf("lifetime counters must survive deletion: %+v", st)
	}
	if n := len(svc.Jobs()); n != 1 {
		t.Errorf("tracking %d jobs after delete, want 1 (the live one)", n)
	}
}

// newSubprocessServer boots a daemon whose solves run in re-execs of the
// test binary (workerEnv selects the worker behavior).
func newSubprocessServer(t *testing.T, mode string) (*httptest.Server, *fpva.Service) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(workerEnv, mode)
	svc := fpva.NewService(
		fpva.WithSolverExecutor(fpva.ExecSubprocess),
		fpva.WithWorkerCommand(exe),
		fpva.WithSolverPoolSize(1),
	)
	srv := httptest.NewServer(newServer(svc, nil))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv, svc
}

// normalizeWire strips the five timing fields from a plan's wire bytes
// (they are measurements, not content) and re-marshals the rest into a
// canonical form for comparison.
func normalizeWire(t *testing.T, wire []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(wire, &m); err != nil {
		t.Fatalf("plan wire does not parse: %v", err)
	}
	stats, ok := m["stats"].(map[string]any)
	if !ok {
		t.Fatalf("plan wire has no stats object: %.200s", wire)
	}
	for _, k := range []string{"tp_ns", "tc_ns", "tl_ns", "t_ns", "solver_wall_ns"} {
		delete(stats, k)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runGenerate submits one generate job and returns its plan wire bytes.
func runGenerate(t *testing.T, base, arrayJSON string) []byte {
	t.Helper()
	code, b := postJSON(t, base+"/v1/jobs", `{"kind":"generate","array":`+arrayJSON+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, b)
	}
	var j api.Job
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, base, j.ID); got.State != "done" {
		t.Fatalf("generate job: %+v", got)
	}
	code, wire := getBody(t, base+"/v1/jobs/"+j.ID+"/plan")
	if code != http.StatusOK {
		t.Fatalf("plan fetch: %d %s", code, wire)
	}
	return wire
}

// TestSubprocessDaemonPlanIdentical is the executor-transparency
// acceptance check over HTTP: the same array generated by a
// subprocess-mode daemon and an in-process one serves the same plan
// bytes up to timing statistics.
func TestSubprocessDaemonPlanIdentical(t *testing.T) {
	subSrv, _ := newSubprocessServer(t, "solve")
	inSrv, _ := newTestServer(t)
	arr := encodeArray(t, 5, 4)
	wireSub := runGenerate(t, subSrv.URL, arr)
	wireIn := runGenerate(t, inSrv.URL, arr)
	if normalizeWire(t, wireSub) != normalizeWire(t, wireIn) {
		t.Error("subprocess-mode plan differs from in-process beyond timing stats")
	}
	code, b := getBody(t, subSrv.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, b)
	}
	var st api.ServiceStats
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.SolverExecutor != "subprocess" || st.WorkerSlots != 1 || st.WorkerSpawns < 1 {
		t.Errorf("worker stats not surfaced: %+v", st)
	}
}

// childPids lists direct child processes via /proc — in these tests the
// only children are pool workers.
func childPids(t *testing.T) []int {
	t.Helper()
	self := os.Getpid()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, path := range stats {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // raced with process exit
		}
		// /proc/<pid>/stat: "pid (comm) state ppid ..."; comm may hold
		// spaces, so parse from after the last ')'.
		s := string(b)
		i := strings.LastIndexByte(s, ')')
		if i < 0 {
			continue
		}
		fields := strings.Fields(s[i+1:])
		if len(fields) < 2 {
			continue
		}
		if ppid, err := strconv.Atoi(fields[1]); err != nil || ppid != self {
			continue
		}
		pid, err := strconv.Atoi(filepath.Base(filepath.Dir(path)))
		if err == nil {
			pids = append(pids, pid)
		}
	}
	return pids
}

// TestSubprocessDaemonKill9KeepsServing is the crash-isolation
// acceptance check end to end: kill -9 the worker mid-solve, exactly
// that job fails, /healthz stays green, and the restarted pool serves
// the next solve.
func TestSubprocessDaemonKill9KeepsServing(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("worker pid discovery reads /proc")
	}
	srv, _ := newSubprocessServer(t, "hang")
	code, b := postJSON(t, srv.URL+"/v1/jobs", `{"kind":"generate","array":`+encodeArray(t, 4, 4)+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, b)
	}
	var j api.Job
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatal(err)
	}

	// Wait until the hang worker holds the job, then shoot it.
	pid := 0
	deadline := time.Now().Add(10 * time.Second)
	for pid == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never went busy")
		}
		_, sb := getBody(t, srv.URL+"/v1/stats")
		var st api.ServiceStats
		if err := json.Unmarshal(sb, &st); err != nil {
			t.Fatal(err)
		}
		if st.WorkersBusy == 1 {
			if pids := childPids(t); len(pids) == 1 {
				pid = pids[0]
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}

	if got := waitDone(t, srv.URL, j.ID); got.State != "failed" || !strings.Contains(got.Error, "worker crashed") {
		t.Fatalf("after kill -9: %+v, want failed with a worker-crash error", got)
	}
	if code, _ := getBody(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz after worker crash: %d", code)
	}

	// The daemon keeps serving: flip the worker mode to a real solver (the
	// replacement spawns with the current environment) and run a solve.
	t.Setenv(workerEnv, "solve")
	runGenerate(t, srv.URL, encodeArray(t, 3, 3))

	code, b = getBody(t, srv.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, b)
	}
	var st api.ServiceStats
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.JobsFailed != 1 || st.JobsDone != 1 || st.WorkerRestarts < 1 {
		t.Errorf("crash accounting: %+v", st)
	}
}

// TestClampWorkers pins the cap on request parallelism: a request may ask
// for fewer workers than the limit, never more. The cap is tested as a
// pure function, so no test starts the goroutines a huge request asks for.
func TestClampWorkers(t *testing.T) {
	for _, tc := range []struct{ n, limit, want int }{
		{1, 2, 1},
		{2, 2, 2},
		{3, 2, 2},
		{1 << 40, 4, 4},
	} {
		if got := clampWorkers(tc.n, tc.limit); got != tc.want {
			t.Errorf("clampWorkers(%d, %d) = %d, want %d", tc.n, tc.limit, got, tc.want)
		}
	}
}

// TestParseFlags is the table-driven exit-code contract for the daemon's
// flag surface.
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"defaults", nil, 0},
		{"addr", []string{"-addr", ":0"}, 0},
		{"bad flag", []string{"-nope"}, 2},
		{"negative workers", []string{"-workers", "-1"}, 2},
		{"negative cache", []string{"-cache-mb", "-5"}, 2},
		{"stray arg", []string{"extra"}, 2},
		{"pprof loopback ip", []string{"-pprof-addr", "127.0.0.1:0"}, 0},
		{"pprof localhost", []string{"-pprof-addr", "localhost:6060"}, 0},
		{"pprof public addr", []string{"-pprof-addr", "0.0.0.0:6060"}, 2},
		{"pprof missing port", []string{"-pprof-addr", "127.0.0.1"}, 2},
		{"solver exec subprocess", []string{"-solver-exec", "subprocess"}, 0},
		{"solver exec in-process", []string{"-solver-exec", "in-process"}, 0},
		{"bad solver exec", []string{"-solver-exec", "alien"}, 2},
		{"solver tuning", []string{"-solver-workers", "4", "-worker-mem-mb", "512", "-solver-timeout", "5m", "-job-ttl", "1h"}, 0},
		{"negative solver workers", []string{"-solver-workers", "-1"}, 2},
		{"negative worker mem", []string{"-worker-mem-mb", "-1"}, 2},
		{"bad solver timeout", []string{"-solver-timeout", "soon"}, 2},
		{"negative job ttl", []string{"-job-ttl", "-1s"}, 2},
	} {
		var errb strings.Builder
		_, err := parseFlags(tc.args, &errb)
		if got := exitCode(err); got != tc.code {
			t.Errorf("%s: exit %d, want %d (err %v)", tc.name, got, tc.code, err)
		}
	}
}
