package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/fpva"
)

// TestParseFlags is the table-driven flag contract, including -timeout.
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		code  int
		check func(options) bool
	}{
		{"defaults", nil, 0, func(o options) bool {
			return o.trials == 10000 && o.maxFaults == 5 && o.seed == 2017 && o.timeout == 0
		}},
		{"timeout", []string{"-timeout", "90s"}, 0, func(o options) bool {
			return o.timeout == 90*time.Second
		}},
		{"plan and trials", []string{"-plan", "p.json", "-trials", "500"}, 0, func(o options) bool {
			return o.planFile == "p.json" && o.trials == 500
		}},
		{"bad timeout", []string{"-timeout", "never"}, 2, nil},
		{"unknown flag", []string{"-nope"}, 2, nil},
		{"stray argument", []string{"extra"}, 2, nil},
	} {
		var errb strings.Builder
		opt, err := parseFlags(tc.args, &errb)
		if got := exitCode(err); got != tc.code {
			t.Errorf("%s: exit %d, want %d (err %v)", tc.name, got, tc.code, err)
			continue
		}
		if tc.check != nil && err == nil && !tc.check(opt) {
			t.Errorf("%s: options %+v", tc.name, opt)
		}
	}
}

// TestExitCodes pins the error classification: usage 2, deadline 2,
// runtime 1, success 0.
func TestExitCodes(t *testing.T) {
	if got := exitCode(nil); got != 0 {
		t.Errorf("nil: %d", got)
	}
	if got := exitCode(usagef("bad")); got != 2 {
		t.Errorf("usage: %d", got)
	}
	if got := exitCode(fmt.Errorf("campaign: %w", context.DeadlineExceeded)); got != 2 {
		t.Errorf("wrapped deadline: %d", got)
	}
	if got := exitCode(fmt.Errorf("boom")); got != 1 {
		t.Errorf("runtime: %d", got)
	}
}

// TestRealMainExitCodes runs the binary entry point end to end per class,
// including a deadline abort mid-campaign.
func TestRealMainExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"flag error", []string{"-nope"}, 2},
		{"no selector", nil, 2},
		{"ambiguous selectors", []string{"-case", "5x5", "-rows", "3", "-cols", "3"}, 2},
		{"baseline with plan", []string{"-plan", "p.json", "-baseline"}, 2},
		{"runtime failure", []string{"-case", "7x7"}, 1},
		{"missing plan file", []string{"-plan", "/nonexistent/plan.json"}, 1},
		{"success", []string{"-rows", "3", "-cols", "3", "-trials", "20", "-faults", "1"}, 0},
		{"deadline", []string{"-case", "5x5", "-trials", "100000000", "-timeout", "50ms"}, 2},
	} {
		var out, errb strings.Builder
		if got := realMain(tc.args, &out, &errb); got != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, got, tc.code, errb.String())
		}
	}
}

func TestValidateSelectors(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  options
		ok   bool
	}{
		{"none", options{}, false},
		{"case", options{caseName: "5x5"}, true},
		{"dims", options{rows: 4, cols: 4}, true},
		{"rows only", options{rows: 4}, false},
		{"plan", options{planFile: "p.json"}, true},
		{"case and plan", options{caseName: "5x5", planFile: "p.json"}, false},
		{"case and dims", options{caseName: "5x5", rows: 4, cols: 4}, false},
		{"plan and baseline", options{planFile: "p.json", baseline: true}, false},
	} {
		err := validateSelectors(tc.opt)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestRunSmallCampaign(t *testing.T) {
	var b strings.Builder
	err := run(context.Background(), &b, options{caseName: "5x5",
		trials: 100, maxFaults: 2, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"proposed", "faults", "1.0000"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithLeaks(t *testing.T) {
	var b strings.Builder
	err := run(context.Background(), &b, options{caseName: "5x5",
		trials: 50, maxFaults: 3, seed: 7, workers: 2, leaks: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "proposed") {
		t.Errorf("output:\n%s", b.String())
	}
}

func TestRunBaseline(t *testing.T) {
	var b strings.Builder
	err := run(context.Background(), &b, options{caseName: "5x5",
		trials: 50, maxFaults: 1, seed: 1, workers: 1, baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "baseline") {
		t.Errorf("output:\n%s", b.String())
	}
}

func TestRunCustomDims(t *testing.T) {
	var b strings.Builder
	err := run(context.Background(), &b, options{rows: 4, cols: 4,
		trials: 50, maxFaults: 1, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "FPVA 4x4") {
		t.Errorf("output:\n%s", b.String())
	}
}

// TestRunDiagnose: the -diagnose study isolates every single stuck-at
// fault on a small array, and its output is bit-identical across worker
// counts and repeat runs, apart from the wall-clock generation time on
// line 1.
func TestRunDiagnose(t *testing.T) {
	untimed := regexp.MustCompile(`generated in [^)]*`)
	var want string
	for _, workers := range []int{1, 2, 4} {
		var b strings.Builder
		err := run(context.Background(), &b, options{rows: 3, cols: 3,
			diagnose: true, seed: 9, workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := untimed.ReplaceAllString(b.String(), "generated in")
		if workers == 1 {
			want = out
			for _, sub := range []string{"diagnosis (greedy planner)", "stuck-at-0", "stuck-at-1", "singleton"} {
				if !strings.Contains(out, sub) {
					t.Errorf("output missing %q:\n%s", sub, out)
				}
			}
		} else if out != want {
			t.Errorf("workers=%d output diverges:\n%s\nvs workers=1:\n%s", workers, out, want)
		}
	}
}

// TestRunDiagnoseSampled: -diagnose-trials takes a deterministic seeded
// sample.
func TestRunDiagnoseSampled(t *testing.T) {
	outs := make([]string, 2)
	for i := range outs {
		var b strings.Builder
		err := run(context.Background(), &b, options{caseName: "5x5",
			diagnose: true, diagTrials: 6, seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = b.String()
	}
	if outs[0] != outs[1] {
		t.Errorf("sampled diagnose runs diverge:\n%s\nvs\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], "diagnosis (greedy planner): 6 hidden faults") {
		t.Errorf("output:\n%s", outs[0])
	}
}

// TestRunDiagnoseUsageErrors: negative sample counts are usage errors
// (exit code 2).
func TestRunDiagnoseUsageErrors(t *testing.T) {
	err := run(context.Background(), io.Discard, options{rows: 3, cols: 3, diagnose: true, diagTrials: -1})
	if exitCode(err) != 2 {
		t.Errorf("negative trials: exit %d (err %v), want 2", exitCode(err), err)
	}
}

// TestRunPlanFileMatchesInProcess is the wire-format acceptance check: a
// plan serialized by the fpvatest flow and replayed via -plan must produce
// the same campaign table as the in-process path for the same seed.
func TestRunPlanFileMatchesInProcess(t *testing.T) {
	a, err := fpva.BenchmarkArray("5x5")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fpva.Generate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fpva.EncodePlan(f, plan); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var inproc, replay strings.Builder
	if err := run(context.Background(), &inproc, options{caseName: "5x5",
		trials: 300, maxFaults: 3, seed: 42}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &replay, options{planFile: path,
		trials: 300, maxFaults: 3, seed: 42}); err != nil {
		t.Fatal(err)
	}
	trim := func(s string) string {
		// Drop the first line: it carries the plan source label and
		// generation wall-clock time.
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			return s[i+1:]
		}
		return s
	}
	if trim(inproc.String()) != trim(replay.String()) {
		t.Errorf("plan replay diverges from in-process run:\n-- in-process --\n%s-- replay --\n%s",
			inproc.String(), replay.String())
	}
}

func TestRunWorkerCountsAgree(t *testing.T) {
	// The campaign must print identical detection tables no matter how many
	// workers shard the trials.
	var seq, par strings.Builder
	if err := run(context.Background(), &seq, options{caseName: "5x5",
		trials: 200, maxFaults: 3, seed: 42, workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), &par, options{caseName: "5x5",
		trials: 200, maxFaults: 3, seed: 42, workers: 8}); err != nil {
		t.Fatal(err)
	}
	trim := func(s string) string {
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			return s[i+1:]
		}
		return s
	}
	if trim(seq.String()) != trim(par.String()) {
		t.Errorf("worker counts disagree:\n-- workers=1 --\n%s-- workers=8 --\n%s",
			seq.String(), par.String())
	}
}

func TestRunUnknownCase(t *testing.T) {
	var b strings.Builder
	err := run(context.Background(), &b, options{caseName: "7x7",
		trials: 10, maxFaults: 1, seed: 1})
	if err == nil {
		t.Error("unknown case accepted")
	}
}
