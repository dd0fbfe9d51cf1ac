package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(v, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(v, 0.50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile([]float64{7}, 0.90); got != 7 {
		t.Errorf("p90 of one sample = %v", got)
	}
}

// A percentile is reported as steady only with ten samples beyond it: p90
// needs 100 samples, and 99 are one short.
func TestSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{100, 0.90, 10}, {99, 0.90, 9}, {110, 0.90, 11}, {1000, 0.99, 10}, {0, 0.9, 0}, {20, 0.5, 10}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives, because the acceptance procedure computes spread with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 11, 13, 20}, 10.25, 18.25},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

// The probe's slowdown over an interval is the median of the samples inside
// it, widened to a second for short ones; a nil probe reads the clock as is.
func TestProbeSlowdown(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	p := &probe{}
	for i := 0; i < 100; i++ { // one sample every 100 ms; seconds 4 to 7 ran at half speed
		p.at = append(p.at, at(100*i))
		p.slow = append(p.slow, 1)
		if i >= 40 && i < 70 {
			p.slow[i] = 2
		}
	}
	p.slow[55] = 9 // one preempted sample must not matter
	slow := interval{at(5000), at(6500)}
	if got := p.slowdown(slow); got != 2 {
		t.Errorf("slowdown in the slow spell = %v, want 2", got)
	}
	if got := p.ms(slow); math.Abs(got-750) > 1e-9 {
		t.Errorf("1500 ms at half speed = %v ms at reference speed, want 750", got)
	}
	if got := p.slowdown(interval{at(5490), at(5510)}); got != 2 {
		t.Errorf("a 20 ms interval takes the second around it: %v, want 2", got)
	}
	if got := p.slowdown(interval{at(1000), at(1010)}); got != 1 {
		t.Errorf("quiet spell: %v, want 1", got)
	}
	if got := p.slowdown(interval{at(20000), at(20010)}); got != 1 {
		t.Errorf("no sample near the interval: %v, want 1", got)
	}
	var none *probe
	if got := none.ms(slow); math.Abs(got-1500) > 1e-9 {
		t.Errorf("nil probe: %v ms, want 1500", got)
	}
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name+" "+d.unit)
	}
	sort.Strings(out)
	return out
}

func specNames(ms []specMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

// BENCHMARK.json and the harness must name the same workloads and metrics,
// with the same units, inside the limits of the contract.
func TestSpecMatchesHarness(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the allowed alphabet", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s is outside the allowed alphabet", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, d := range endToEndMetrics {
		check(d.name, d.unit)
	}
	for _, d := range perLayerMetrics {
		check(d.name, d.unit)
	}
	var have, want []string
	for _, w := range workloads {
		check(w.name, "")
		have = append(have, w.name)
	}
	for _, w := range sp.Workloads {
		want = append(want, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(have, ",") != strings.Join(want, ",") {
		t.Errorf("workloads: harness %v, BENCHMARK.json %v", have, want)
	}
	if a, b := names(endToEndMetrics), specNames(sp.EndToEnd); strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("end-to-end metrics differ:\nharness %v\nspec    %v", a, b)
	}
	if a, b := names(perLayerMetrics), specNames(sp.PerLayer); strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("per-layer metrics differ:\nharness %v\nspec    %v", a, b)
	}
	setup := false
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	if sp.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d != the harness default %d", sp.RunSeconds, defaultSeconds)
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", sp.Paths)
	}
}

func writeResults(t *testing.T, dir, name string, values map[string][]float64, failed int) string {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	f := resultFile{Seed: 1, Seconds: 1, Workloads: map[string][]*result{}}
	for _, w := range sp.Workloads {
		for run := 0; run < 4; run++ {
			r := &result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metric{}}
			for _, m := range sp.EndToEnd {
				v := 100.0
				if vs, ok := values[m.Name]; ok {
					v = vs[run]
				}
				r.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
			}
			f.Workloads[w.Name] = append(f.Workloads[w.Name], r)
		}
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	flat := writeResults(t, dir, "a.json", nil, 0)
	// proofs_per_s is higher-is-better, the latencies lower-is-better.
	moved := writeResults(t, dir, "b.json", map[string][]float64{
		"proofs_per_s": {50, 50, 50, 50},    // halved: worse
		"proof_p50_ms": {50, 50, 50, 50},    // halved: better
		"proof_p90_ms": {10, 100, 100, 400}, // same median, wild spread: unresolved
	}, 0)

	var out bytes.Buffer
	if code := run([]string{"-spec", "../BENCHMARK.json", "-compare", flat, flat}, &out, &out); code != 0 {
		t.Fatalf("identical files: exit %d\n%s", code, out.String())
	}
	if strings.Contains(out.String(), worse) || strings.Contains(out.String(), unresolved) || strings.Contains(out.String(), better) {
		t.Errorf("identical files must compare as same everywhere:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-spec", "../BENCHMARK.json", "-compare", flat, moved}, &out, &out); code != 1 {
		t.Fatalf("a worse row must exit 1, got %d\n%s", code, out.String())
	}
	for _, want := range []struct{ metric, verdict string }{
		{"proofs_per_s", worse}, {"proof_p50_ms", better}, {"proof_p90_ms", unresolved}, {"verify_p50_ms", same},
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			fields := strings.Fields(line)
			if len(fields) > 2 && fields[0] == "prove_large" && fields[1] == want.metric {
				found = true
				if fields[len(fields)-1] != want.verdict {
					t.Errorf("%s: %q, want verdict %s", want.metric, line, want.verdict)
				}
			}
		}
		if !found {
			t.Errorf("no row for %s in:\n%s", want.metric, out.String())
		}
	}

	// Failed proofs on the new side are a regression whatever the timings say.
	out.Reset()
	broken := writeResults(t, dir, "c.json", nil, 3)
	if code := run([]string{"-spec", "../BENCHMARK.json", "-compare", flat, broken}, &out, &out); code != 1 {
		t.Errorf("failed proofs must exit 1, got %d", code)
	}
}

// smokeRun drives one workload through the real entry point at smoke scale
// and returns its result line.
func smokeRun(t *testing.T, workload, trace string) *result {
	t.Helper()
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "-smoke", "-out", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("%s: exit %d\n%s%s", workload, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("%s: result line must have exactly correct, attempted, failed, metrics: %s", workload, lines[len(lines)-1])
	}
	res, err := lastResult(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: %+v", workload, res)
	}
	if trace == "1" {
		data, err := os.ReadFile(filepath.Join(dir, "trace-"+workload+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &tf); err != nil || len(tf.TraceEvents) == 0 {
			t.Errorf("%s: trace file does not load: %v", workload, err)
		}
	}
	return res
}

func emitted(res *result) []string {
	var out []string
	for name, m := range res.Metrics {
		out = append(out, name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

// Every workload, end to end at smoke scale: set-up, warm-up, window, the
// check of every proof and the negative control. The emitted names must be
// exactly the end-to-end list.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // timings mean nothing at smoke scale; overlap the single-threaded phases
			res := smokeRun(t, w.name, "0")
			if a, b := emitted(res), names(endToEndMetrics); strings.Join(a, ",") != strings.Join(b, ",") {
				t.Errorf("emitted %v, want %v", a, b)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v; end-to-end metrics are never 0", name, m.Value)
				}
			}
		})
	}
}

// The traced run on the library workload (stage replay, kernel loops and
// the service probe) and on one service workload (scrape deltas).
func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"prove_large", "serve_batch"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := smokeRun(t, name, "1")
			if a, b := emitted(res), names(perLayerMetrics); strings.Join(a, ",") != strings.Join(b, ",") {
				t.Errorf("emitted %v, want %v", a, b)
			}
			m := res.Metrics
			sum := m["poly.compute_h_ms"].Value + m["groth16.other_ms"].Value
			for _, q := range []string{"A", "B1", "B2", "H", "K"} {
				sum += m["msm."+q+"_ms"].Value
			}
			if prove := m["groth16.prove_ms"].Value; math.Abs(sum-prove) > 1e-6*prove {
				t.Errorf("stages sum to %v, prove is %v", sum, prove)
			}
		})
	}
}

// The gate must count a proof that does not prove its statement, whether
// it lands among the singly verified proofs or in a BatchVerify chunk.
func TestGateCountsBadProofs(t *testing.T) {
	in, err := genInputs(5, []int{16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := newLibTarget(in)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lt.prove(nil, 0, 1, 0, 0, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, bad := gate(lt, in, rep.proofs, 2, nil); bad != 0 {
		t.Fatalf("good proofs: %d counted bad", bad)
	}
	if err := negativeControl(lt, in, rep.proofs[0]); err != nil {
		t.Errorf("negative control on a sound verifier: %v", err)
	}
	for _, i := range []int{0, 1} { // with 2 singles of 4, proof 0 is verified singly and 1 in a chunk
		ps := append([]proven(nil), rep.proofs...)
		ps[i].witness = 9 // now claims another public input
		if _, bad := gate(lt, in, ps, 2, nil); bad != 1 {
			t.Errorf("bad proof at %d: gate counted %d", i, bad)
		}
	}
}
