package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/fpva"
)

// FuzzSubmit feeds arbitrary bodies to POST /v1/jobs on a service that is
// already closed, so no job ever runs. Whatever the body, the submit
// handler must answer 400 (malformed), 413 (too large) or 503 (well formed,
// service closed) with a JSON error document: never a panic, a 500 or an
// accepted job. The seeds are one valid body per job kind, plus an
// old-client diagnose body carrying the removed planner and engine fields.
//
// Run beyond the seeds with: go test -run '^$' -fuzz FuzzSubmit ./cmd/fpvad
func FuzzSubmit(f *testing.F) {
	a, err := fpva.NewArray(3, 3)
	if err != nil {
		f.Fatal(err)
	}
	plan, err := fpva.Generate(context.Background(), a)
	if err != nil {
		f.Fatal(err)
	}
	var arr, wire bytes.Buffer
	if err := fpva.EncodeArray(&arr, a); err != nil {
		f.Fatal(err)
	}
	if err := fpva.EncodePlan(&wire, plan); err != nil {
		f.Fatal(err)
	}
	sim, err := a.NewSimulator()
	if err != nil {
		f.Fatal(err)
	}
	golden, err := sim.Readings(a.NewVector("closed"), nil)
	if err != nil {
		f.Fatal(err)
	}
	readings, err := json.Marshal(golden)
	if err != nil {
		f.Fatal(err)
	}
	svc := fpva.NewService()
	svc.Close()
	h := newServer(svc, nil)
	submit := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		return rec
	}
	for _, body := range []string{
		fmt.Sprintf(`{"kind":"generate","array":%s,"generate":{"pathEngine":"serpentine","block":3}}`, arr.String()),
		fmt.Sprintf(`{"kind":"campaign","plan":%s,"campaign":{"trials":100,"faults":2,"seed":7,"leaks":true}}`, wire.String()),
		fmt.Sprintf(`{"kind":"verify","plan":%s,"verify":{"maxPairs":10}}`, wire.String()),
		fmt.Sprintf(`{"kind":"diagnose","plan":%s,"diagnose":{"observations":[{"vector":0,"readings":%s}],"budget":3}}`,
			wire.String(), readings),
		fmt.Sprintf(`{"kind":"diagnose","plan":%s,"diagnose":{"planner":"ilp","engine":"scalar"}}`, wire.String()),
	} {
		// A valid body passes decoding and is refused only by the closed
		// service.
		if rec := submit([]byte(body)); rec.Code != http.StatusServiceUnavailable {
			f.Fatalf("seed %.60q...: status %d, want 503: %s", body, rec.Code, rec.Body)
		}
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := submit(body)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var doc struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc.Error == "" {
			t.Fatalf("status %d: body is not a JSON error document: %q", rec.Code, rec.Body)
		}
	})
}
