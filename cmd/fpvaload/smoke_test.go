package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCommand runs fpvaload in-process and decodes its last line.
func runCommand(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if code != 0 {
		t.Fatalf("fpvaload %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct %v, %d of %d jobs failed\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
	}
	return res
}

func checkPrinted(t *testing.T, res result, specs []metric) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(specs))
	}
	for _, m := range specs {
		if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("metric %s: printed %+v (present %v), want unit %s", m.name, got, ok, m.unit)
		}
	}
}

// TestSmoke builds the daemon, runs every workload for a second and the
// traced pass once, and checks that every job passed its checks and every
// metric was printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots fpvad; skipped under -short")
	}
	bin := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runCommand(t, "-workload", w.name, "-seed", "1", "-seconds", "1", "-bin", bin)
			checkPrinted(t, res, endToEnd)
		})
	}
	t.Run("trace", func(t *testing.T) {
		spans := filepath.Join(t.TempDir(), "spans.json")
		res := runCommand(t, "-workload", "generate-cold", "-seed", "1", "-seconds", "1", "-trace", "1", "-bin", bin, "-spans", spans)
		checkPrinted(t, res, perLayer)
		b, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		var f struct {
			Host  hostStamp `json:"host"`
			Spans []span    `json:"spans"`
		}
		if err := json.Unmarshal(b, &f); err != nil {
			t.Fatal(err)
		}
		if f.Host.NProc == 0 || len(f.Spans) < 2*traceJobs {
			t.Errorf("spans file: host %+v, %d spans", f.Host, len(f.Spans))
		}
	})
}
