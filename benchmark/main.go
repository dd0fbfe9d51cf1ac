// Command benchmark is the repository's performance reference: four proving
// workloads measured request in → verified proof out, and a separate traced
// run that attributes the time to each layer (ff → tower → curve → pairing |
// ntt → poly | msm → r1cs → groth16 → service). BENCHMARK.json names its
// metrics and their regression bounds; README.md says how to read them.
//
//	go run ./benchmark                       every workload, each in a child process
//	go run ./benchmark -trace 1              the traced run (per-layer metrics, trace files)
//	go run ./benchmark -workload serve_warm  one workload, in this process
//	go run ./benchmark -compare A.json B.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gzkp/internal/service"
	"gzkp/internal/telemetry"
)

// Seed 1 is the development seed; seed 7 is held out: a gain found on seed 1
// must also hold there.
const (
	defaultSeed    = 1
	defaultSeconds = 15 // BENCHMARK.json's run_seconds
)

// scale sets how much of everything a run does; smoke is the reduced pass
// the tests drive through every workload.
type scale struct {
	setupReps  int // setups per run; setup_s is their median
	warmup     int // untimed requests per client before the window
	maxProofs  int // cap on proofs per window (0 = the window's length decides)
	singles    int // proofs verified one by one for verify_p50_ms
	replay     int // witnesses the stage replay walks
	loopScale  int // divisor of the kernel loops' iteration counts
	probeCount int // requests of the library workload's service probe
}

var (
	fullScale  = scale{setupReps: 3, warmup: 3, singles: 20, replay: 10, loopScale: 1, probeCount: 10}
	smokeScale = scale{setupReps: 1, warmup: 1, maxProofs: 8, singles: 2, replay: 1, loopScale: 100, probeCount: 2}
)

// clientCount is both GOMAXPROCS and the number of closed-loop clients of
// the service workloads: one generator process, no more goroutines issuing
// requests than cores.
func clientCount() int { return min(runtime.NumCPU(), 4) }

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	runs     int
	outDir   string
	specPath string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o       options
		trace   int
		compare bool
	)
	fs.StringVar(&o.workload, "workload", "", "run this workload in-process and print one JSON result line (default: every workload, each in a child process)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "generates circuits, witnesses and request order")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 = the traced run: per-layer metrics and out/trace-<workload>.json")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny circuits and capped windows: exercises every code path in seconds")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload when running every workload; compare needs several to see spread")
	fs.StringVar(&o.outDir, "out", "benchmark/out", "directory for result and trace files")
	fs.StringVar(&o.specPath, "spec", "BENCHMARK.json", "the benchmark contract (names, units, bounds)")
	fs.BoolVar(&compare, "compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	runtime.GOMAXPROCS(clientCount())

	var err error
	switch {
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		var worse bool
		if worse, err = compareFiles(stdout, o.specPath, fs.Arg(0), fs.Arg(1)); err == nil && worse {
			return 1
		}
	case o.workload != "":
		var res *result
		if res, err = runWorkload(o, stdout); err == nil {
			line, _ := json.Marshal(res)
			fmt.Fprintf(stdout, "%s\n", line)
			if !res.Correct {
				return 1
			}
		}
	default:
		var ok bool
		if ok, err = runAll(o, stdout, stderr); err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// measured is one warm window of a workload with its proofs checked.
type measured struct {
	win      *window
	verifies []interval // the gate's timed single verifies
	bad      int        // delivered proofs that failed the check
	mallocs  uint64     // heap allocations of the whole process during the window
	rssMB    float64    // resident-set high-water mark when the window ended
}

func (m *measured) good() int      { return len(m.win.proofs) - m.bad }
func (m *measured) failures() int  { return m.win.failed + m.bad }
func (m *measured) delivered() int { return len(m.win.proofs) }

// rate is checked proofs per second of the window, at reference speed.
func (m *measured) rate(p *probe) float64 {
	return float64(m.good()) / (m.win.span.seconds() / p.slowdown(m.win.span))
}

// latencies has one entry per delivered proof: its request's round trip in
// milliseconds at reference speed.
func (m *measured) latencies(p *probe) []float64 {
	var out []float64
	for _, r := range m.win.requests {
		v := p.ms(r.interval)
		for i := 0; i < r.proofs; i++ {
			out = append(out, v)
		}
	}
	return out
}

// endToEnd fills in the end-to-end metrics of one run, with p deciding how
// time is read: at reference speed, or by the clock when p is nil.
func endToEnd(m metricSet, p *probe, setups []interval, ref *measured) {
	lat := ref.latencies(p)
	m["setup_s"] = median(p.each(setups)) / 1e3
	m["proofs_per_s"] = ref.rate(p)
	m["proof_p50_ms"] = median(lat)
	m["proof_p90_ms"] = percentile(lat, 0.90)
	m["verify_p50_ms"] = median(p.each(ref.verifies))
	m["peak_rss_mb"] = ref.rssMB
	m["allocs_per_proof"] = float64(ref.mallocs) / float64(ref.delivered())
}

func measure(t target, in *inputs, clients, batch int, dur time.Duration, sc scale, tr *tracer) *measured {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	win := runWindow(t, in, clients, batch, dur, sc.maxProofs, tr)
	runtime.ReadMemStats(&ms1)
	rss := peakRSSMB() // before the gate: checking proofs is the harness's memory, not the program's
	verifies, bad := gate(t, in, win.proofs, sc.singles, tr)
	return &measured{win: win, verifies: verifies, bad: bad, mallocs: ms1.Mallocs - ms0.Mallocs, rssMB: rss}
}

// runWorkload sets one workload up, warms it, measures it and checks every
// proof. Untraced it reports the end-to-end metrics; traced it reports the
// per-layer metrics and writes the trace file.
func runWorkload(o options, stdout io.Writer) (*result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	sc := fullScale
	if o.smoke {
		sc = smokeScale
		small := make([]int, len(w.sizes))
		for i, n := range w.sizes {
			small[i] = max(n/16, 8) // 8 is the smallest synthetic circuit
		}
		w.sizes = small
	}
	clients := clientCount()
	if w.srv == nil {
		clients = 1 // one caller; the cores are used inside the kernels
	}
	in, err := genInputs(o.seed, w.sizes, clients)
	if err != nil {
		return nil, err
	}

	speed := startProbe()
	defer speed.finish()
	var (
		t      target
		setups []interval
	)
	for r := 0; r < sc.setupReps; r++ {
		if t != nil {
			t.close()
			t = nil
			runtime.GC() // the discarded keys and tables must not count as this setup's memory
		}
		t0 := time.Now()
		if t, err = newTarget(w, in); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, interval{t0, time.Now()})
	}
	defer t.close()
	var afterSetup runtime.MemStats
	runtime.ReadMemStats(&afterSetup)

	if warm := runWindow(t, in, clients, w.batch, time.Hour, sc.warmup*clients*w.batch, nil); warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %w", warm.firstErr)
	}

	dur := time.Duration(o.seconds * float64(time.Second))
	ref := measure(t, in, clients, w.batch, dur, sc, nil)
	res := &result{Attempted: ref.win.attempted, Failed: ref.failures()}
	if ref.win.firstErr != nil {
		fmt.Fprintf(stdout, "%s: first failed request: %v\n", w.name, ref.win.firstErr)
	}
	if ref.delivered() == 0 {
		return nil, fmt.Errorf("%s: no proof was delivered", w.name)
	}
	control := negativeControl(t, in, ref.win.proofs[0])
	if control != nil {
		fmt.Fprintf(stdout, "%s: %v\n", w.name, control)
	}

	m := metricSet{}
	defs := endToEndMetrics
	if !o.trace {
		byClock := metricSet{}
		endToEnd(byClock, nil, setups, ref)
		endToEnd(m, speed, setups, ref)
		n := ref.delivered()
		fmt.Fprintf(stdout, "%s: %d proofs in %.2f s; proof_p90_ms has %d samples beyond it (steady from 10)\n",
			w.name, n, ref.win.span.seconds(), beyond(n, 0.90))
		fmt.Fprintf(stdout, "%s: machine slowdown %.3f; by the clock: setup %.4f s, %.4f proofs/s, proof p50 %.2f ms, p90 %.2f ms, verify p50 %.2f ms\n",
			w.name, speed.slowdown(ref.win.span), byClock["setup_s"], byClock["proofs_per_s"], byClock["proof_p50_ms"],
			byClock["proof_p90_ms"], byClock["verify_p50_ms"])
	} else {
		defs = perLayerMetrics
		tr := &tracer{speed: speed}
		traced, err := tracedRun(m, w, in, t, clients, dur, sc, tr)
		if err != nil {
			return nil, err
		}
		res.Attempted += traced.win.attempted
		res.Failed += traced.failures()
		m["service.register_s"] = median(speed.each(setups)) / 1e3 // the service probe's own on the library workload
		m["process.heap_inuse_after_setup_mb"] = float64(afterSetup.HeapInuse) / (1 << 20)
		m["trace.overhead_ratio"] = traced.rate(speed) / ref.rate(speed)
		if w.srv == nil {
			if err := serviceProbe(m, in, sc, tr); err != nil {
				return nil, fmt.Errorf("service probe: %w", err)
			}
		}
		if err := stageReplay(m, in, &in.circuits[len(in.circuits)-1], sc.replay, tr); err != nil {
			return nil, fmt.Errorf("stage replay: %w", err)
		}
		if err := kernelLoops(m, in.curve, sc.loopScale, tr); err != nil {
			return nil, fmt.Errorf("kernel loops: %w", err)
		}
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(o.outDir, "trace-"+w.name+".json")
		if err := tr.writeChrome(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "%s: %d spans in %s\n", w.name, len(tr.spans), path)
	}
	if res.Metrics, err = m.render(defs); err != nil {
		return nil, err
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-14s %-36s %14.4f %s\n", w.name, d.name, m[d.name], d.unit)
	}
	res.Correct = res.Failed == 0 && control == nil
	return res, nil
}

// tracedRun repeats the window with spans recorded, and reads what only a
// running window can show: the service's own per-job account and counters,
// and how busy the process kept its cores.
func tracedRun(m metricSet, w workloadDef, in *inputs, t target, clients int, dur time.Duration, sc scale, tr *tracer) (*measured, error) {
	st, _ := t.(*svcTarget)
	var before, after telemetry.Snapshot
	var err error
	if st != nil {
		if before, err = st.scrape(); err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, wall0 := cpuSeconds(), time.Now()
	traced := measure(t, in, clients, w.batch, dur, sc, tr)
	// CPU use over window and gate together: both keep every core busy when
	// nothing waits, so idle time here is the scheduler's.
	m["process.cpu_util"] = (cpuSeconds() - cpu0) / (time.Since(wall0).Seconds() * float64(clientCount()))
	runtime.ReadMemStats(&ms1)
	m["process.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	if st != nil {
		if after, err = st.scrape(); err != nil {
			return nil, err
		}
		serviceMetrics(m, traced.win, before, after, tr.speed)
	}
	return traced, nil
}

// serviceMetrics reduces the service's own account of a window: per-job
// medians from the JobStatus of each reply, and counter deltas between two
// /metrics scrapes.
func serviceMetrics(m metricSet, win *window, before, after telemetry.Snapshot, speed *probe) {
	var queue, prove, verify, total []float64
	for _, j := range win.jobs {
		queue = append(queue, float64(j.QueueNS)/1e6)
		prove = append(prove, float64(j.ProveNS)/1e6)
		verify = append(verify, float64(j.VerifyNS)/1e6)
		total = append(total, float64(j.TotalNS)/1e6)
	}
	// The service timed these on its own clock; bring them to reference
	// speed with the window's slowdown.
	slow := speed.slowdown(win.span)
	m["service.queue_ms_p50"] = median(queue) / slow
	m["service.prove_ms_p50"] = median(prove) / slow
	m["service.verify_ms_p50"] = median(verify) / slow
	m["service.total_ms_p50"] = median(total) / slow
	m["service.http_overhead_ms_p50"] = median(win.overheadMS) / slow
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	m["service.batches_fused"] = delta("service.batches.fused")
	m["service.batches_fallback"] = delta("service.batches.fallback")
	m["service.jobs_rejected"] = delta("service.jobs.rejected")

	// The service's own median dispatch size, over its life so far: warm-up
	// and the untraced window carry the same traffic as the traced one.
	m["service.batch_size_p50"] = float64(after.Histograms["service.batch_size"].P50)
}

// serviceProbe gives the library workload its service-layer numbers: the
// same circuit and witnesses sent through a tables-cached service by one
// client, a few requests, so the fixed cost the service adds to a proof
// (queue hand-off, server-side verify, HTTP and JSON) is on record beside
// the workload that does not pay it.
func serviceProbe(m metricSet, in *inputs, sc scale, tr *tracer) error {
	t0 := time.Now()
	st, err := newSvcTarget(in, service.Config{Preprocess: true, FusedBatch: true})
	if err != nil {
		return err
	}
	defer st.close()
	register := tr.speed.ms(interval{t0, time.Now()}) / 1e3
	before, err := st.scrape()
	if err != nil {
		return err
	}
	win := runWindow(st, in, 1, 1, time.Hour, sc.probeCount, tr)
	if win.failed > 0 {
		return win.firstErr
	}
	after, err := st.scrape()
	if err != nil {
		return err
	}
	serviceMetrics(m, win, before, after, tr.speed)
	m["service.register_s"] = register
	return nil
}

// cpuSeconds is the CPU time (user + system) this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// ---- every workload, each in a child process

// environment stamps a result file with where its numbers came from.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func readEnvironment() environment {
	env := environment{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// resultFile is what runAll writes and -compare reads: every run of every
// workload, so that medians and run-to-run spread can be taken from it.
type resultFile struct {
	Env       environment          `json:"env"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Workloads map[string][]*result `json:"workloads"`
}

// runAll runs every workload in a fresh child process of this program, so
// set-up time and peak memory are the workload's own, prints every metric,
// and writes the result file.
func runAll(o options, stdout, stderr io.Writer) (ok bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	file := resultFile{Env: readEnvironment(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Workloads: map[string][]*result{}}
	ok = true
	for _, w := range workloads {
		for r := 0; r < o.runs; r++ {
			traceArg := "0"
			if o.trace {
				traceArg = "1"
			}
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-out", o.outDir, "-trace", traceArg, fmt.Sprintf("-smoke=%t", o.smoke)}
			var buf bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = io.MultiWriter(stdout, &buf)
			cmd.Stderr = stderr
			runErr := cmd.Run()
			res, perr := lastResult(buf.Bytes())
			if perr != nil {
				return false, fmt.Errorf("%s: %v (child: %v)", w.name, perr, runErr)
			}
			ok = ok && res.Correct && runErr == nil
			file.Workloads[w.name] = append(file.Workloads[w.name], res)
		}
	}

	defs := endToEndMetrics
	name := "results.json"
	if o.trace {
		defs, name = perLayerMetrics, "layers.json"
	}
	fmt.Fprintf(stdout, "\n%s, seed %d, %g s windows, %d run(s) per workload: median (spread = interquartile distance / median)\n",
		file.Env.CPUModel, o.seed, o.seconds, o.runs)
	for _, w := range workloads {
		runs := file.Workloads[w.name]
		proofs, failed := 0, 0
		for _, r := range runs {
			proofs += r.Attempted - r.Failed
			failed += r.Failed
		}
		fmt.Fprintf(stdout, "%s: %d proofs checked, %d failed\n", w.name, proofs, failed)
		for _, d := range defs {
			vals := metricValues(runs, d.name)
			fmt.Fprintf(stdout, "  %-36s %14.4f %-6s spread %5.1f%%\n", d.name, median(vals), d.unit, 100*spread(vals))
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return false, err
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(o.outDir, name)
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return ok, os.WriteFile(path, data, 0o644)
}

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	out = bytes.TrimSpace(out)
	var res result
	if err := json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &res); err != nil || res.Metrics == nil {
		return nil, fmt.Errorf("no result line in output")
	}
	return &res, nil
}

func metricValues(runs []*result, name string) []float64 {
	var vals []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			vals = append(vals, v.Value)
		}
	}
	return vals
}
