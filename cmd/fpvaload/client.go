package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/cmd/internal/api"
)

// client is one closed-loop caller of the job API. It holds one
// keep-alive connection and runs one job at a time.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// exchange is one job as its client saw it. The timestamps split the
// job's latency into the three HTTP stages: submit (POST), wait (event
// stream until the terminal line) and fetch (result GET).
type exchange struct {
	start, submitted, streamed, end time.Time
	bytesIn, bytesOut               int
	events, result                  []byte
	err                             error
}

func (x exchange) latency() time.Duration { return x.end.Sub(x.start) }

// do sends one request and reads the whole answer, so the connection
// stays reusable.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, b, nil
}

// job runs one job end to end: POST /v1/jobs, the event stream until its
// terminal line, and GET …/result, where the latency ends. The DELETE
// that forgets the job follows outside the latency.
func (c *client) job(ctx context.Context, body []byte) exchange {
	x := exchange{start: time.Now(), bytesIn: len(body)}
	code, sub, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d: %s", code, strings.TrimSpace(string(sub)))
	}
	var job api.Job
	if err == nil {
		err = json.Unmarshal(sub, &job)
	}
	if err != nil {
		x.err = err
		return x
	}
	x.submitted = time.Now()
	path := "/v1/jobs/" + job.ID
	code, x.events, err = c.do(ctx, http.MethodGet, path+"/events", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("events: HTTP %d", code)
	}
	if err == nil {
		err = terminalDone(x.events)
	}
	if err != nil {
		x.err = fmt.Errorf("job %s: %w", job.ID, err)
		return x
	}
	x.streamed = time.Now()
	code, x.result, err = c.do(ctx, http.MethodGet, path+"/result", nil)
	x.end = time.Now()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d: %s", code, strings.TrimSpace(string(x.result)))
	}
	x.bytesOut = len(sub) + len(x.events) + len(x.result)
	if err == nil {
		code, _, err = c.do(ctx, http.MethodDelete, path, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("delete: HTTP %d", code)
		}
	}
	if err != nil {
		x.err = fmt.Errorf("job %s: %w", job.ID, err)
	}
	return x
}

// terminalDone checks the last line of an event stream: the job's
// terminal status, which must be "done".
func terminalDone(events []byte) error {
	lines := bytes.Split(bytes.TrimSpace(events), []byte("\n"))
	var final api.Job
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
		return fmt.Errorf("event stream: last line: %w", err)
	}
	if final.State != "done" {
		return fmt.Errorf("job ended %s: %s", final.State, final.Error)
	}
	return nil
}
