package main

// Tests for the multi-tenant front door: config-file precedence,
// -validate, bearer auth (401), rate limiting (429 + Retry-After),
// queue-full shedding (503), and the healthz status document.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/cmd/internal/api"
	"repro/fpva"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestConfigFilePrecedence(t *testing.T) {
	cfg := writeFile(t, t.TempDir(), "fpvad.json", `{
		"addr": "127.0.0.1:9999",
		"cacheMB": 128,
		"ratePerSec": 5,
		"rateBurst": 10,
		"maxPending": 64,
		"jobTimeout": "10m",
		"solverExec": "in-process"
	}`)
	// File values apply where no flag is given; explicit flags win.
	opt, err := parseFlags([]string{"-config", cfg, "-cache-mb", "32"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.addr != "127.0.0.1:9999" {
		t.Errorf("addr = %q, want the file's value", opt.addr)
	}
	if opt.cacheMB != 32 {
		t.Errorf("cacheMB = %d, want the flag's 32 over the file's 128", opt.cacheMB)
	}
	if opt.ratePerSec != 5 || opt.rateBurst != 10 || opt.maxPending != 64 {
		t.Errorf("admission opts = %+v", opt)
	}
	if opt.jobTimeout != 10*time.Minute {
		t.Errorf("jobTimeout = %v, want 10m", opt.jobTimeout)
	}
}

// TestConfigFileCacheMBZero: "cacheMB": 0 in the config file disables the
// plan cache, as -cache-mb 0 does; an absent key keeps the default.
func TestConfigFileCacheMBZero(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		doc  string
		want int
	}{
		{`{"cacheMB": 0}`, 0},
		{`{"cacheMB": 128}`, 128},
		{`{"addr": "127.0.0.1:9999"}`, defaultOptions().cacheMB},
	} {
		cfg := writeFile(t, dir, "fpvad.json", tc.doc)
		opt, err := parseFlags([]string{"-config", cfg}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", tc.doc, err)
		}
		if opt.cacheMB != tc.want {
			t.Errorf("%s: cacheMB = %d, want %d", tc.doc, opt.cacheMB, tc.want)
		}
	}
}

func TestConfigFileRejectsUnknownFields(t *testing.T) {
	cfg := writeFile(t, t.TempDir(), "fpvad.json", `{"adr": ":9"}`)
	if _, err := parseFlags([]string{"-config", cfg}, io.Discard); err == nil {
		t.Fatal("typo'd config field parsed silently")
	}
}

func TestScanConfigArg(t *testing.T) {
	cases := []struct {
		args []string
		want string
		err  bool
	}{
		{[]string{"-config", "a.json"}, "a.json", false},
		{[]string{"--config=b.json", "-addr", ":0"}, "b.json", false},
		{[]string{"-addr", ":0"}, "", false},
		{[]string{"--", "-config", "x.json"}, "", false},
		{[]string{"-config"}, "", true},
	}
	for _, c := range cases {
		got, err := scanConfigArg(c.args)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("scanConfigArg(%v) = %q, %v; want %q, err=%v", c.args, got, err, c.want, c.err)
		}
	}
}

func TestValidateFlag(t *testing.T) {
	dir := t.TempDir()
	tokens := writeFile(t, dir, "tokens", "alice:secret-token-1\n")
	good := writeFile(t, dir, "good.json", `{"tokenFile": `+strconv.Quote(tokens)+`}`)
	var out, errOut strings.Builder
	if code := realMain([]string{"-config", good, "-validate"}, &out, &errOut); code != 0 {
		t.Fatalf("valid config: exit %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "configuration ok") {
		t.Errorf("stdout = %q", out.String())
	}

	bad := writeFile(t, dir, "bad.json", `{"tokenFile": "/does/not/exist"}`)
	if code := realMain([]string{"-config", bad, "-validate"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("missing token file: exit %d, want 2", code)
	}
	if code := realMain([]string{"-validate", "-rate", "-1"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("negative rate: exit %d, want 2", code)
	}
}

func TestLoadTokenFile(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "tokens", `
# comment line
alice:alice-secret-1

bare-token-long-enough
`)
	tokens, err := loadTokenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tokens["alice-secret-1"] != "alice" {
		t.Errorf("named credential not parsed: %v", tokens)
	}
	if name := tokens["bare-token-long-enough"]; !strings.HasPrefix(name, "client-") {
		t.Errorf("bare token name = %q, want a derived client-* name", name)
	}
	for _, bad := range []string{"alice:short", "a:dup-token-1\nb:dup-token-1", "same:token-one-1\nsame:token-two-2", ""} {
		p := writeFile(t, dir, "bad", bad)
		if _, err := loadTokenFile(p); err == nil {
			t.Errorf("token file %q parsed without error", bad)
		}
	}
}

// admissionServer builds a service + admission-wrapped test server, the
// same stack run() assembles.
func admissionServer(t *testing.T, adm *admission, svcOpts ...fpva.ServiceOption) (*httptest.Server, *fpva.Service) {
	t.Helper()
	svc := fpva.NewService(svcOpts...)
	srv := httptest.NewServer(adm.wrap(newServer(svc, adm)))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv, svc
}

func TestAuthRequired(t *testing.T) {
	adm := newAdmission(map[string]string{"tenant-a-secret": "tenant-a"}, 0, 0)
	srv, _ := admissionServer(t, adm)

	// No token: 401 with a challenge.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated: %d, want 401", resp.StatusCode)
	}
	if got := resp.Header.Get("WWW-Authenticate"); !strings.Contains(got, "Bearer") {
		t.Errorf("WWW-Authenticate = %q", got)
	}

	// Wrong token: still 401.
	req, _ := http.NewRequest("GET", srv.URL+"/v1/stats", nil)
	req.Header.Set("Authorization", "Bearer wrong-secret-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad token: %d, want 401", resp.StatusCode)
	}

	// Right token: through, and the stats report the two failures.
	req, _ = http.NewRequest("GET", srv.URL+"/v1/stats", nil)
	req.Header.Set("Authorization", "Bearer tenant-a-secret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st api.ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated: %d, want 200", resp.StatusCode)
	}
	if st.AuthFailures != 2 {
		t.Errorf("authFailures = %d, want 2", st.AuthFailures)
	}

	// /healthz needs no credentials (load balancers probe it).
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz without auth: %d, want 200", resp.StatusCode)
	}
}

func TestRateLimit429(t *testing.T) {
	adm := newAdmission(nil, 1, 2) // 1 req/s sustained, burst of 2
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	adm.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}
	srv, _ := admissionServer(t, adm)

	status := func() (int, string) {
		resp, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}
	if code, _ := status(); code != http.StatusOK {
		t.Fatalf("request 1: %d", code)
	}
	if code, _ := status(); code != http.StatusOK {
		t.Fatalf("request 2 (burst): %d", code)
	}
	code, retry := status()
	if code != http.StatusTooManyRequests {
		t.Fatalf("request 3: %d, want 429", code)
	}
	if sec, err := strconv.Atoi(retry); err != nil || sec < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", retry)
	}
	// A second of refill buys exactly one more request.
	mu.Lock()
	clock = clock.Add(time.Second)
	mu.Unlock()
	if code, _ := status(); code != http.StatusOK {
		t.Errorf("post-refill request: %d, want 200", code)
	}
	if code, _ := status(); code != http.StatusTooManyRequests {
		t.Errorf("second post-refill request: %d, want 429", code)
	}
	if _, limited := adm.counters(); limited != 2 {
		t.Errorf("rateLimited = %d, want 2", limited)
	}
}

// TestRateLimitSweepsFullBuckets: buckets that have refilled to the burst
// are dropped, so one-off peers do not pile up in the map, while a client
// held at its limit keeps its state across the sweep.
func TestRateLimitSweepsFullBuckets(t *testing.T) {
	const rate, burst = 1.0, 2
	adm := newAdmission(nil, rate, burst)
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	adm.now = func() time.Time { return clock }
	charge := func(client string) bool {
		_, limited := adm.limit(client)
		return limited
	}
	charge("hog")
	for i := range 10000 {
		if charge(fmt.Sprintf("10.0.%d.%d", i/256, i%256)) {
			t.Fatalf("host %d limited on its first request", i)
		}
	}
	// A refill period later every one-off bucket is full; the hog drains
	// its refilled burst and is limited again.
	clock = clock.Add(time.Duration(burst / rate * float64(time.Second)))
	for i := range burst {
		if charge("hog") {
			t.Fatalf("hog limited on request %d of its burst", i+1)
		}
	}
	if !charge("hog") {
		t.Fatal("hog not limited past its burst")
	}
	charge("192.0.2.1")
	if n := len(adm.buckets); n > 2 {
		t.Errorf("%d buckets after one more new host, want the hog's and the new host's", n)
	}
	if !charge("hog") {
		t.Error("the sweep forgot that the hog is over its limit")
	}
}

func TestQueueFullSheds503(t *testing.T) {
	srv, svc := newAdmissionlessShedServer(t)
	// Hog the single admission slot with a job stuck in its progress
	// callback (callbacks run synchronously, so this is deterministic).
	a, err := fpva.NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hog, err := svc.SubmitGenerate(t.Context(), a,
		fpva.WithProgress(func(fpva.Event) {
			once.Do(func() { close(started) })
			<-release
		}))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	code, body := postJSON(t, srv.URL+"/v1/jobs", `{"kind":"verify"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("malformed request during overload: %d, want 400", code)
	}
	arr := encodeArray(t, 3, 3)
	code, body = postJSON(t, srv.URL+"/v1/jobs", `{"kind":"generate","array":`+arr+`}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overloaded submit: %d, want 503 (body %s)", code, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("503 body is not the JSON error document: %s", body)
	}

	close(release)
	if err := hog.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	code, _ = postJSON(t, srv.URL+"/v1/jobs", `{"kind":"generate","array":`+arr+`}`)
	if code != http.StatusAccepted {
		t.Errorf("post-drain submit: %d, want 202", code)
	}
}

func newAdmissionlessShedServer(t *testing.T) (*httptest.Server, *fpva.Service) {
	t.Helper()
	svc := fpva.NewService(fpva.WithServiceWorkers(1), fpva.WithMaxPending(1))
	srv := httptest.NewServer(newServer(svc, nil))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv, svc
}

func TestHealthzDocument(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := getBody(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var h api.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.Store != nil {
		t.Errorf("store section present without -cache-dir: %+v", h.Store)
	}
	if h.Workers == nil || h.Workers.Slots < 1 || h.Workers.Executor == "" {
		t.Errorf("workers section = %+v", h.Workers)
	}
	// Strict mode changes nothing while healthy.
	if code, _ := getBody(t, srv.URL+"/healthz?strict=1"); code != http.StatusOK {
		t.Errorf("healthy strict healthz: %d, want 200", code)
	}
}

func TestHealthzDegradedStore(t *testing.T) {
	// A cache dir nested under a regular file cannot be created: the
	// store comes up degraded from birth, the daemon still serves.
	blocker := writeFile(t, t.TempDir(), "file", "not a directory")
	svc := fpva.NewService(fpva.WithCacheDir(filepath.Join(blocker, "cache")))
	srv := httptest.NewServer(newServer(svc, nil))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	code, body := getBody(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("degraded healthz: %d, want 200 (degraded still serves)", code)
	}
	var h api.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Store == nil || h.Store.Mode != "degraded" || h.Store.Reason == "" {
		t.Errorf("health = %+v, want degraded with a reason", h)
	}
	if code, _ := getBody(t, srv.URL+"/healthz?strict=1"); code != http.StatusServiceUnavailable {
		t.Errorf("strict degraded healthz: %d, want 503", code)
	}
	// The store section also reaches /v1/stats.
	_, body = getBody(t, srv.URL+"/v1/stats")
	var st api.ServiceStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Store == nil || st.Store.Mode != "degraded" {
		t.Errorf("stats store = %+v", st.Store)
	}
}
