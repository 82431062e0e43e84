package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile is the root BENCHMARK.json, field for field.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestBenchmarkFileMatchesCommand fails when the command prints a metric
// BENCHMARK.json lacks, when BENCHMARK.json lists one the command never
// prints, or when a name falls outside [A-Za-z0-9_.-]+.
func TestBenchmarkFileMatchesCommand(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	type decl struct{ unit, better string }
	check := func(kind string, file map[string]decl, specs []metric) {
		for _, m := range specs {
			got, ok := file[m.name]
			switch {
			case !ok:
				t.Errorf("the command prints %s metric %s, BENCHMARK.json lacks it", kind, m.name)
			case got != decl{m.unit, m.better}:
				t.Errorf("%s: BENCHMARK.json has %v, the command %s %s", m.name, got, m.unit, m.better)
			}
			delete(file, m.name)
		}
		for name := range file {
			t.Errorf("BENCHMARK.json lists %s metric %s, the command never prints it", kind, name)
		}
	}
	e2e := make(map[string]decl)
	for _, m := range f.EndToEnd {
		e2e[m.Name] = decl{m.Unit, m.Better}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end-to-end", e2e, endToEnd)
	layer := make(map[string]decl)
	for _, m := range f.PerLayer {
		layer[m.Name] = decl{m.Unit, m.Better}
	}
	check("per-layer", layer, perLayer)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	for _, m := range f.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range f.PerLayer {
		names = append(names, m.Name)
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if !metricName.MatchString(n) {
			t.Errorf("name %q falls outside [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
}

func TestNewResultRejectsUndeclaredAndMissingMetrics(t *testing.T) {
	specs := []metric{{name: "a_ms", unit: "ms"}, {name: "b", unit: "count"}}
	if _, err := newResult(specs, map[string]float64{"a_ms": 1, "b": 2}, 1, 0); err != nil {
		t.Fatalf("declared metrics: %v", err)
	}
	if _, err := newResult(specs, map[string]float64{"a_ms": 1}, 1, 0); err == nil {
		t.Error("a declared metric without a value was accepted")
	}
	if _, err := newResult(specs, map[string]float64{"a_ms": 1, "b": 2, "c": 3}, 1, 0); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}
