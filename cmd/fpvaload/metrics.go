package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// metric declares one metric the command prints. BENCHMARK.json lists
// the same names, units and directions; a test keeps the two in step.
type metric struct {
	name, unit, better string
	// moves names the end-to-end metric and workload a per-layer metric
	// should move.
	moves string
}

// endToEnd are the metrics of an untraced run, what a caller of fpvad
// sees.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "jobs_per_s", unit: "jobs/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p90_ms", unit: "ms", better: "lower"},
	{name: "rss_peak_mb", unit: "MiB", better: "lower"},
}

// perLayer are the metrics of a traced run, named after the layer
// (package) they measure.
var perLayer = []metric{
	{"fpvad.submit_ms", "ms", "lower", "latency_p50_ms @ test-floor (plan uploads)"},
	{"fpvad.wait_ms", "ms", "lower", "latency_p50_ms @ generate-cold, exact-ilp"},
	{"fpvad.fetch_ms", "ms", "lower", "latency_p50_ms @ generate-warm"},
	{"fpvad.transport_ms", "ms", "lower", "latency_p50_ms @ generate-warm, test-floor"},
	{"fpvad.bytes_in", "bytes", "lower", "latency_p50_ms @ test-floor"},
	{"fpvad.bytes_out", "bytes", "lower", "latency_p50_ms @ generate-warm"},
	{"service.hit_ms", "ms", "lower", "latency_p50_ms @ generate-warm"},
	{"service.miss_ms", "ms", "lower", "latency_p50_ms @ generate-cold"},
	{"service.follower_ms", "ms", "lower", "latency_p50_ms @ generate-cold"},
	{"service.readback_ms", "ms", "lower", "latency_p50_ms @ generate-warm"},
	{"service.cache_hit_ratio", "ratio", "higher", "jobs_per_s @ generate-warm"},
	{"service.sig_cache_hit_ratio", "ratio", "higher", "latency_p90_ms @ test-floor"},
	{"service.solves_per_job", "count", "lower", "jobs_per_s @ generate-warm"},
	{"codec.decode_array_ms", "ms", "lower", "latency_p50_ms @ generate-cold"},
	{"codec.decode_plan_ms", "ms", "lower", "latency_p50_ms @ test-floor, generate-warm"},
	{"codec.encode_plan_ms", "ms", "lower", "latency_p50_ms @ generate-cold"},
	{"core.flow_paths_ms", "ms", "lower", "latency_p50_ms @ generate-cold, exact-ilp"},
	{"core.cut_sets_ms", "ms", "lower", "latency_p50_ms @ generate-cold, exact-ilp"},
	{"core.leakage_ms", "ms", "lower", "latency_p50_ms @ generate-cold"},
	{"core.vectors_per_plan", "count", "lower", "none: a change alters the test set"},
	{"ilp.solves_per_plan", "count", "lower", "jobs_per_s @ exact-ilp"},
	{"ilp.nodes_per_plan", "count", "lower", "jobs_per_s @ exact-ilp"},
	{"executor.inprocess_ms", "ms", "lower", "latency_p50_ms @ exact-ilp"},
	{"executor.subprocess_ms", "ms", "lower", "none: no workload runs -solver-exec subprocess"},
	{"executor.ipc_overhead_ms", "ms", "lower", "none: no workload runs -solver-exec subprocess"},
	{"workerpool.spawns", "count", "lower", "none: no workload runs -solver-exec subprocess"},
	{"workerpool.restarts", "count", "lower", "none: must stay 0"},
	{"store.hit_ratio", "ratio", "higher", "jobs_per_s @ generate-warm"},
	{"store.writes_per_job", "count", "lower", "jobs_per_s @ generate-cold"},
	{"store.evictions_per_job", "count", "lower", "jobs_per_s @ generate-warm"},
	{"sim.campaign_k1_ms", "ms", "lower", "latency_p50_ms @ test-floor"},
	{"sim.campaign_k2_ms", "ms", "lower", "latency_p50_ms @ test-floor"},
	{"sim.campaign_k3_ms", "ms", "lower", "latency_p50_ms @ test-floor"},
	{"sim.campaign_k4_ms", "ms", "lower", "latency_p50_ms @ test-floor"},
	{"sim.campaign_k5_ms", "ms", "lower", "latency_p50_ms @ test-floor"},
	{"sim.sims_per_campaign", "count", "lower", "latency_p50_ms @ test-floor"},
	{"sim.verify_single_ms", "ms", "lower", "latency_p50_ms @ test-floor"},
	{"sim.verify_double_ms", "ms", "lower", "latency_p50_ms @ test-floor"},
	{"diagnose.compile_ms", "ms", "lower", "setup_s @ test-floor"},
	{"diagnose.narrow_ms", "ms", "lower", "latency_p50_ms @ test-floor"},
	{"diagnose.plan_ms", "ms", "lower", "latency_p90_ms @ test-floor"},
	{"trace.e2e_ms", "ms", "lower", "latency_p50_ms @ every workload"},
	{"trace.unaccounted_ms", "ms", "lower", "none: the residual the layers do not explain"},
	{"trace.overhead", "ratio", "lower", "none: the cost of recording spans"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the command prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult pairs every declared metric with its measured value. A
// value for an undeclared metric, or a declared metric without a value,
// is a bug in the command and fails the run.
func newResult(specs []metric, values map[string]float64, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(specs))}
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", m.name, v)
		}
		r.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if len(values) != len(specs) {
		for name := range values {
			if _, ok := r.Metrics[name]; !ok {
				return r, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return r, nil
}

func (r result) line() (string, error) {
	b, err := json.Marshal(r)
	return string(b), err
}

// ms converts a duration to milliseconds with all its digits.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// ratio is num/den, 0 when nothing was counted.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
