package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/cmd/internal/api"
	"repro/fpva"
)

// TestStatsDocument pins the /v1/stats document key by key on the stack
// run() assembles: a service behind the admission middleware runs one
// generate, campaign, verify and diagnose job, once memory-only and once
// with a plan store (-cache-dir). One request carries no token and one
// comes from a client whose bucket is dry, so each admission counter
// reads 1. The *WallNs values are timings: they must be numbers, and are
// then compared as a placeholder. Key order is not part of the document.
func TestStatsDocument(t *testing.T) {
	const (
		cacheCap = 8 << 20
		diskCap  = 16 << 20
		tokenA   = "stats-token-a"
		tokenB   = "stats-token-b"
	)
	for _, withStore := range []bool{false, true} {
		name := "memory"
		if withStore {
			name = "cache-dir"
		}
		t.Run(name, func(t *testing.T) {
			adm := newAdmission(map[string]string{tokenA: "a", tokenB: "b"}, 1e-9, 1<<20)
			adm.buckets["b"] = &bucket{last: time.Now()} // dry: b's next request is limited
			opts := []fpva.ServiceOption{fpva.WithCacheBytes(cacheCap)}
			if withStore {
				opts = append(opts, fpva.WithCacheDir(t.TempDir()), fpva.WithDiskCacheBytes(diskCap))
			}
			srv, svc := admissionServer(t, adm, opts...)

			call := func(method, path, token, body string) (int, []byte) {
				t.Helper()
				req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				if token != "" {
					req.Header.Set("Authorization", "Bearer "+token)
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
			run := func(body string) string {
				t.Helper()
				code, b := call("POST", "/v1/jobs", tokenA, body)
				if code != http.StatusAccepted {
					t.Fatalf("submit: %d %s", code, b)
				}
				var j api.Job
				if err := json.Unmarshal(b, &j); err != nil {
					t.Fatal(err)
				}
				job, ok := svc.Job(j.ID)
				if !ok {
					t.Fatalf("job %s not found", j.ID)
				}
				<-job.Done()
				if job.State() != fpva.JobDone {
					t.Fatalf("%s job: %s: %v", j.Kind, job.State(), job.Err())
				}
				return j.ID
			}

			id := run(`{"kind":"generate","array":` + encodeArray(t, 4, 4) + `}`)
			code, plan := call("GET", "/v1/jobs/"+id+"/result", tokenA, "")
			if code != http.StatusOK {
				t.Fatalf("generate result: %d %s", code, plan)
			}
			run(`{"kind":"campaign","plan":` + string(plan) + `,"campaign":{"trials":200,"faults":2,"seed":11}}`)
			run(`{"kind":"verify","plan":` + string(plan) + `,"verify":{"maxPairs":500}}`)
			run(`{"kind":"diagnose","plan":` + string(plan) + `}`)
			if code, b := call("GET", "/v1/stats", "", ""); code != http.StatusUnauthorized {
				t.Fatalf("stats without a token: %d %s", code, b)
			}
			if code, b := call("GET", "/v1/stats", tokenB, ""); code != http.StatusTooManyRequests {
				t.Fatalf("stats from a dry bucket: %d %s", code, b)
			}

			code, b := call("GET", "/v1/stats", tokenA, "")
			if code != http.StatusOK {
				t.Fatalf("stats: %d %s", code, b)
			}
			var got map[string]any
			if err := json.Unmarshal(b, &got); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"solverWallNs", "campaignWallNs", "diagnoseWallNs"} {
				if _, ok := got[k].(float64); !ok {
					t.Errorf("%s = %v, want a number", k, got[k])
				}
				got[k] = "ns"
			}

			// The plan cache and the store charge an entry its wire length,
			// the bytes /result serves.
			store := ""
			if withStore {
				store = fmt.Sprintf(`,"store":{"mode":"ok","entries":1,"bytes":%d,"capBytes":%d,
					"hits":0,"misses":1,"writes":1,"writeErrors":0,"skippedWrites":0,
					"readErrors":0,"quarantined":0,"evictions":0,"trips":0,"recoveries":0}`,
					len(plan), diskCap)
			}
			kind := `{"submitted":1,"done":1,"failed":0,"canceled":0}`
			var want map[string]any
			doc := fmt.Sprintf(`{
				"jobsSubmitted":4,"jobsPending":0,"jobsRunning":0,"jobsDone":4,"jobsFailed":0,"jobsCanceled":0,
				"cacheHits":0,"cacheMisses":1,"cacheCoalesced":0,"cacheEntries":1,"cacheBytes":%d,"cacheCapBytes":%d,
				"solves":1,"solverWallNs":"ns","campaigns":1,"campaignWallNs":"ns","verifies":1,
				"diagnoses":1,"diagnoseWallNs":"ns","sigCacheHits":0,"sigCacheMisses":1,
				"compileHits":2,"compileMisses":1,"solverExecutor":"in-process","jobsShed":0,
				"authFailures":1,"rateLimited":1,
				"kinds":{"generate":%[3]s,"campaign":%[3]s,"verify":%[3]s,"diagnose":%[3]s}%[4]s}`,
				len(plan), cacheCap, kind, store)
			if err := json.Unmarshal([]byte(doc), &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("/v1/stats:\n got %v\nwant %v", got, want)
			}
		})
	}
}
