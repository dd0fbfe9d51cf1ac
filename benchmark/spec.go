package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec mirrors BENCHMARK.json, the contract between this program and
// whoever judges a change with it: the command, the workloads, and every
// metric with its unit, direction and regression bound.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric is one measured value as it is printed and stored.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric the harness emits. The lists below and
// BENCHMARK.json must agree; a test checks that they do.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"proofs_per_s", "1/s"},
	{"proof_p50_ms", "ms"},
	{"proof_p90_ms", "ms"},
	{"verify_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_proof", "count"},
}

var perLayerMetrics = []metricDef{
	{"ff.mul_ns", "ns"}, {"ff.mul_allocs", "count"},
	{"tower.fq2_mul_ns", "ns"}, {"tower.fq2_mul_allocs", "count"},
	{"tower.fq12_mul_us", "us"}, {"tower.fq12_mul_allocs", "count"},
	{"curve.g1_add_ns", "ns"}, {"curve.g1_add_allocs", "count"},
	{"curve.g1_double_ns", "ns"}, {"curve.g1_double_allocs", "count"},
	{"curve.g2_add_ns", "ns"}, {"curve.g2_add_allocs", "count"},
	{"curve.g2_double_ns", "ns"}, {"curve.g2_double_allocs", "count"},
	{"pairing.engine_new_ms", "ms"}, {"pairing.miller_ms", "ms"},
	{"pairing.final_exp_ms", "ms"}, {"pairing.pair_ms", "ms"}, {"pairing.pair_allocs", "count"},
	{"r1cs.solve_ms", "ms"},
	{"ntt.transform_ms", "ms"},
	{"poly.compute_h_ms", "ms"}, {"poly.compute_h_batch_ms_per_proof", "ms"},
	{"msm.A_ms", "ms"}, {"msm.B1_ms", "ms"}, {"msm.B2_ms", "ms"}, {"msm.H_ms", "ms"}, {"msm.K_ms", "ms"},
	{"msm.point_adds", "count"}, {"msm.doubles", "count"},
	{"msm.table_build_s", "s"}, {"msm.table_build_B2_s", "s"}, {"msm.table_mb", "MB"},
	{"groth16.setup_s", "s"}, {"groth16.prove_ms", "ms"}, {"groth16.poly_ms", "ms"},
	{"groth16.msm_ms", "ms"}, {"groth16.other_ms", "ms"}, {"groth16.verify_ms", "ms"},
	{"groth16.prove_batch_ms_per_proof", "ms"}, {"groth16.batch_verify_ms_per_proof", "ms"},
	{"service.register_s", "s"},
	{"service.queue_ms_p50", "ms"}, {"service.prove_ms_p50", "ms"},
	{"service.verify_ms_p50", "ms"}, {"service.total_ms_p50", "ms"},
	{"service.http_overhead_ms_p50", "ms"},
	{"service.batch_size_p50", "count"}, {"service.batches_fused", "count"},
	{"service.batches_fallback", "count"}, {"service.jobs_rejected", "count"},
	{"process.cpu_util", "ratio"}, {"process.gc_pause_ms", "ms"},
	{"process.heap_inuse_after_setup_mb", "MB"},
	{"trace.overhead_ratio", "ratio"},
}

// metricSet collects measured values by name and renders them in the order
// and with the units of a definition list.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}
