// Package core is the GZKP engine: it wires the paper's optimized POLY
// (internal/ntt) and MSM (internal/msm) stages into the proof-generation
// pipeline — seven NTT operations and five multi-scalar multiplications per
// proof (§5.2) — with pluggable strategies so every baseline of §5 runs on
// the same substrate, plus the multi-device partitioning of Table 4.
//
// The engine is fault-tolerant: every modeled kernel launch is accounted
// against an optional fault plan (internal/gpusim.FaultPlan), and failures
// are recovered per their class (internal/resilience) — transient faults
// retry in place with backoff, a lost device's partition moves to a
// survivor, and a modeled OOM degrades that partition to a thriftier
// checkpointed table (Algorithm 1 with a larger M). Worker panics surface as errors from
// ProvePipeline instead of crashing the process, and a cancelled context
// unwinds the pipeline at the next chunk boundary.
//
// For pairing curves the engine produces real Groth16 proofs (via
// internal/groth16); for the 753-bit MNT4753-sim curve it runs the same
// computational pipeline on synthetic Groth16-shaped inputs, which is what
// the paper's Table 2 timings measure.
package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/gpusim"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/par"
	"gzkp/internal/poly"
	"gzkp/internal/resilience"
	"gzkp/internal/telemetry"
	"gzkp/internal/workload"
)

// Engine binds a curve to stage strategies.
type Engine struct {
	Curve *curve.Curve
	NTT   ntt.Config
	MSM   msm.Config
	// Devices > 1 partitions each MSM horizontally and round-robins the
	// NTTs, emulating the paper's multi-GPU split (Table 4).
	Devices int
	// Faults, when non-nil, is consulted before every modeled kernel launch
	// (the seven NTTs and each per-partition MSM), keyed by logical device
	// index — the deterministic fault-injection hook.
	Faults *gpusim.FaultPlan
	// Retry bounds transient-fault retries; the zero value uses the
	// resilience defaults (4 attempts, 1ms..50ms capped backoff).
	Retry resilience.Policy
}

// NewGZKP returns an engine with the paper's full optimization set.
func NewGZKP(id curve.ID) *Engine {
	return &Engine{
		Curve:   curve.Get(id),
		NTT:     ntt.Config{Strategy: ntt.GZKP},
		MSM:     msm.Config{Strategy: msm.GZKP, SignedBuckets: true},
		Devices: 1,
	}
}

// NewBaseline returns the best-GPU baseline configuration (bellperson-like).
func NewBaseline(id curve.ID) *Engine {
	return &Engine{
		Curve:   curve.Get(id),
		NTT:     ntt.Config{Strategy: ntt.ShuffleBaseline},
		MSM:     msm.Config{Strategy: msm.PippengerWindows},
		Devices: 1,
	}
}

// Result reports one pipeline execution.
type Result struct {
	PolyNS, MSMNS int64
	// PreprocessNS is the one-time GZKP table construction (Algorithm 1),
	// which in deployment happens at setup — it is reported separately and
	// excluded from MSMNS, matching the paper's measurement protocol.
	PreprocessNS int64
	NTTStats     []ntt.Stats
	MSMStats     []msm.Stats
	// Outputs makes the computation observable (and lets tests compare
	// engines): the five MSM results.
	Outputs []curve.Affine

	// Fault-recovery accounting (all zero on a fault-free run).
	Retries     int   // transient kernel launches retried in place
	Failovers   int   // work units moved off a device after it was lost
	Degrades    int   // OOM recoveries (memory-thriftier table rebuilds)
	LostDevices []int // logical devices removed by failover, in loss order
}

// TotalNS is the end-to-end proof-generation time.
func (r *Result) TotalNS() int64 { return r.PolyNS + r.MSMNS }

// runState tracks per-run device health and recovery accounting. A device
// lost to a DeviceLost fault stays dead for the remainder of the run (the
// failover granularity of a real multi-GPU rig: a fallen-off-the-bus GPU
// does not come back without operator action).
type runState struct {
	mu     sync.Mutex
	alive  []bool
	nAlive int
	faults *gpusim.FaultPlan

	retries, failovers, degrades int
	lost                         []int
}

func newRunState(devices int, faults *gpusim.FaultPlan) *runState {
	alive := make([]bool, devices)
	for i := range alive {
		alive[i] = true
	}
	return &runState{alive: alive, nAlive: devices, faults: faults}
}

// deviceFor maps work unit u onto an alive logical device, round-robin over
// the survivors. ok is false when every device is dead.
func (rs *runState) deviceFor(u int) (dev int, ok bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.nAlive == 0 {
		return 0, false
	}
	slot := u % rs.nAlive
	for d, a := range rs.alive {
		if !a {
			continue
		}
		if slot == 0 {
			return d, true
		}
		slot--
	}
	return 0, false
}

func (rs *runState) kill(dev int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.alive[dev] {
		rs.alive[dev] = false
		rs.nAlive--
		rs.lost = append(rs.lost, dev)
	}
}

// launch consults the fault plan for one modeled kernel launch on dev.
func (rs *runState) launch(dev int) error {
	if rs.faults == nil {
		return nil
	}
	return rs.faults.BeforeLaunch(dev)
}

func (rs *runState) note(counter *int) {
	rs.mu.Lock()
	*counter++
	rs.mu.Unlock()
}

func (rs *runState) fillResult(res *Result) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	res.Retries = rs.retries
	res.Failovers = rs.failovers
	res.Degrades = rs.degrades
	res.LostDevices = append([]int(nil), rs.lost...)
}

// runOnDevice drives one unit of device work through the recovery ladder:
// transient faults retry in place with bounded backoff, a lost device is
// removed and the unit re-assigned to a survivor, and OOM invokes the
// unit's degrade hook (a memory-thriftier plan) before retrying. do runs
// the actual computation once a launch is admitted; its errors propagate
// unretried — the ladder is for launch faults, not for compute bugs.
func (e *Engine) runOnDevice(ctx context.Context, rs *runState, unit int, degrade func(dev int) error, do func(dev int) error) error {
	pol := e.Retry.WithDefaults()
	attempts := 0 // transient attempts on the current device
	ooms := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		dev, ok := rs.deviceFor(unit)
		if !ok {
			return fmt.Errorf("core: all %d devices lost", len(rs.alive))
		}
		err := rs.launch(dev)
		if err == nil {
			return do(dev)
		}
		switch resilience.Classify(err) {
		case resilience.Transient:
			attempts++
			if attempts >= pol.MaxAttempts {
				return fmt.Errorf("core: unit %d on device %d: retries exhausted: %w", unit, dev, err)
			}
			rs.note(&rs.retries)
			resilience.Record(ctx, telemetry.DeviceTrack(dev), resilience.Transient,
				telemetry.Int("unit", int64(unit)), telemetry.Int("attempt", int64(attempts)))
			if serr := pol.Sleep(ctx, pol.Backoff(attempts-1)); serr != nil {
				return serr
			}
		case resilience.DeviceLost:
			rs.kill(dev)
			rs.note(&rs.failovers)
			resilience.Record(ctx, telemetry.DeviceTrack(dev), resilience.DeviceLost,
				telemetry.Int("unit", int64(unit)), telemetry.Int("device", int64(dev)))
			attempts = 0 // fresh transient budget on the new device
		case resilience.OOM:
			ooms++
			if degrade == nil || ooms > 2 {
				return fmt.Errorf("core: unit %d on device %d: %w", unit, dev, err)
			}
			resilience.Record(ctx, telemetry.DeviceTrack(dev), resilience.OOM,
				telemetry.Int("unit", int64(unit)), telemetry.Int("device", int64(dev)))
			if derr := degrade(dev); derr != nil {
				return derr
			}
			rs.note(&rs.degrades)
		default: // Fatal, Canceled
			return err
		}
	}
}

// ProvePipeline is ProvePipelineCtx without cancellation or deadline.
func (e *Engine) ProvePipeline(p *workload.Pipeline) (*Result, error) {
	return e.ProvePipelineCtx(context.Background(), p)
}

// ProvePipelineCtx runs the Groth16-shaped pipeline on a workload: the POLY
// stage (3 INTT + 3 coset-NTT + 1 coset-INTT over A, B, C) followed by the
// MSM stage (4 MSMs over the sparse ū — standing for the A/B1/B2/K queries
// — and 1 over the dense h̄). ctx cancellation is honored cooperatively at
// chunk boundaries; injected faults (Engine.Faults) are recovered per
// class, and any panic below the pipeline returns as a
// *resilience.PanicError instead of crashing the process.
func (e *Engine) ProvePipelineCtx(ctx context.Context, p *workload.Pipeline) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			if pe, ok := r.(*resilience.PanicError); ok {
				err = pe
			} else {
				err = &resilience.PanicError{Value: r, Stack: debug.Stack()}
			}
		}
	}()
	if p.App.Curve != e.Curve.ID {
		return nil, fmt.Errorf("core: workload curve %v != engine curve %v", p.App.Curve, e.Curve.ID)
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	devices := e.Devices
	if devices < 1 {
		devices = 1
	}
	rs := newRunState(devices, e.Faults)
	f := e.Curve.Fr
	res = &Result{}

	// Root span on the host track; partition work lands on per-device
	// tracks inside runMSM.
	root, ctx := telemetry.StartSpan(ctx, "pipeline")
	root.SetInt("n", int64(p.N))
	root.SetInt("devices", int64(devices))
	defer root.End()

	// ---- POLY stage (internal/poly: the 7-NTT schedule). The seven
	// transform launches are accounted round-robin against the fault plan
	// (the multi-device NTT split of Table 4) before the host-side compute
	// runs: a device that dies or OOMs here is removed for the rest of the
	// run, and its share of launches lands on the survivors.
	t0 := time.Now()
	dom, err := ntt.NewDomain(f, p.N)
	if err != nil {
		return nil, err
	}
	nttOOM := func(dev int) error {
		// No thriftier NTT plan is modeled: an OOM'd device cannot hold the
		// domain, so it is treated like a loss for this run.
		rs.kill(dev)
		return nil
	}
	spPoly, pctx := telemetry.StartSpan(ctx, "poly")
	spPoly.SetInt("n", int64(p.N))
	defer spPoly.End()
	for i := 0; i < poly.NTTCount; i++ {
		op := i
		lerr := e.runOnDevice(pctx, rs, i, nttOOM, func(dev int) error {
			// The admitted launch is the device-timeline marker for the
			// round-robin NTT split; the transform itself runs host-side.
			telemetry.FromContext(pctx).Emit(telemetry.DeviceTrack(dev),
				"kernel", "ntt-launch", telemetry.Int("op", int64(op)))
			return nil
		})
		if lerr != nil {
			return nil, fmt.Errorf("core: ntt launch %d: %w", i, lerr)
		}
	}
	a, b, c := f.CopyVector(p.A), f.CopyVector(p.B), f.CopyVector(p.C)
	polyRes, err := poly.ComputeHCtx(pctx, dom, a, b, c, e.NTT)
	spPoly.End()
	if err != nil {
		return nil, err
	}
	res.NTTStats = polyRes.Stats
	// The MSM over the H query takes n-1 scalars; pad to n with zero for
	// the synthetic pipeline's equal-size point vector.
	h := append(polyRes.H, f.New())
	res.PolyNS = time.Since(t0).Nanoseconds()

	// ---- One-time GZKP preprocessing (point vectors are fixed at setup).
	g := e.Curve.G1
	tables, err := e.prepareTables(ctx, g, p.Points, res)
	if err != nil {
		return nil, err
	}

	// ---- MSM stage: 4 sparse-ū MSMs + 1 dense-h̄ MSM.
	t1 := time.Now()
	spMSM, mctx := telemetry.StartSpan(ctx, "msm-stage")
	defer spMSM.End()
	for i := 0; i < 4; i++ {
		out, st, err := e.runMSM(mctx, g, p.Points, p.U, tables, rs)
		if err != nil {
			return nil, err
		}
		res.Outputs = append(res.Outputs, out)
		res.MSMStats = append(res.MSMStats, st)
	}
	out, st, err := e.runMSM(mctx, g, p.Points, h, tables, rs)
	spMSM.End()
	if err != nil {
		return nil, err
	}
	res.Outputs = append(res.Outputs, out)
	res.MSMStats = append(res.MSMStats, st)
	res.MSMNS = time.Since(t1).Nanoseconds()
	rs.fillResult(res)
	return res, nil
}

// tableSet pins the horizontal partitioning decided at preprocessing time:
// partition i covers points[bounds[i]:bounds[i+1]]. Recording the bounds
// here — rather than re-deriving them from Engine.Devices inside runMSM —
// keeps the split self-consistent even if Devices is mutated between the
// two calls; previously such a mismatch silently sliced the scalars with a
// different chunk size than the tables were built with.
type tableSet struct {
	bounds []int
	mu     sync.Mutex
	tables []*msm.Table // per-partition GZKP tables; nil for other strategies
}

func (ts *tableSet) table(i int) *msm.Table {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.tables == nil {
		return nil
	}
	return ts.tables[i]
}

func (ts *tableSet) setTable(i int, t *msm.Table) {
	ts.mu.Lock()
	ts.tables[i] = t
	ts.mu.Unlock()
}

// partitionBounds splits n points into Engine.Devices horizontal
// partitions (one short tail partition when Devices does not divide n).
// Fewer than 2 points per device collapses to a single partition.
func (e *Engine) partitionBounds(n int) []int {
	d := e.Devices
	if d <= 1 || n < 2*d {
		return []int{0, n}
	}
	chunk := (n + d - 1) / d
	bounds := []int{0}
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		bounds = append(bounds, hi)
	}
	return bounds
}

// prepareTables fixes the partition bounds and builds the per-partition
// GZKP tables once (nil tables for other strategies).
func (e *Engine) prepareTables(ctx context.Context, g *curve.Group, points []curve.Affine, res *Result) (*tableSet, error) {
	ts := &tableSet{bounds: e.partitionBounds(len(points))}
	if e.MSM.Strategy != msm.GZKP {
		return ts, nil
	}
	t0 := time.Now()
	sp, ctx := telemetry.StartSpan(ctx, "preprocess")
	sp.SetInt("partitions", int64(len(ts.bounds)-1))
	defer sp.End()
	ts.tables = make([]*msm.Table, len(ts.bounds)-1)
	for i := range ts.tables {
		lo, hi := ts.bounds[i], ts.bounds[i+1]
		t, err := msm.PreprocessCtx(ctx, g, points[lo:hi], e.MSM)
		if err != nil {
			return nil, err
		}
		ts.tables[i] = t
	}
	res.PreprocessNS = time.Since(t0).Nanoseconds()
	return ts, nil
}

// degradePartition rebuilds partition i's table on the checkpointed path:
// a quartered memory budget with the interval re-derived makes
// msm.AutoCheckpoint pick a larger M — fewer checkpoints, more merge-time
// doublings, less memory — which is the paper's Table 7 / Fig. 9 response
// to a point table that does not fit the device.
func (e *Engine) degradePartition(ctx context.Context, g *curve.Group, points []curve.Affine, ts *tableSet, i int) error {
	if e.MSM.Strategy != msm.GZKP || ts.tables == nil {
		return nil // nothing to shrink: non-preprocessed strategies retry as-is
	}
	cfg := e.MSM
	cfg.CheckpointInterval = 0
	if cfg.MemoryBudget <= 0 {
		cfg.MemoryBudget = 1 << 30
	}
	cfg.MemoryBudget /= 4
	lo, hi := ts.bounds[i], ts.bounds[i+1]
	t, err := msm.PreprocessCtx(ctx, g, points[lo:hi], cfg)
	if err != nil {
		return err
	}
	ts.setTable(i, t)
	return nil
}

// runMSM executes one MSM, horizontally partitioned per the bounds frozen
// in ts and recombined by addition (§5.2's multi-GPU decomposition).
// Partitions run concurrently, each assigned to an alive device through
// the recovery ladder; partials are combined in fixed partition order, so
// the result is bit-identical regardless of device count or which devices
// survived (the group is commutative and ToAffine is canonical).
func (e *Engine) runMSM(ctx context.Context, g *curve.Group, points []curve.Affine, scalars []ff.Element, ts *tableSet, rs *runState) (curve.Affine, msm.Stats, error) {
	n := ts.bounds[len(ts.bounds)-1]
	if len(points) != n || len(scalars) != n {
		return curve.Affine{}, msm.Stats{}, fmt.Errorf(
			"core: partition bounds cover %d points but MSM has %d points / %d scalars (Devices changed between prepareTables and runMSM?)",
			n, len(points), len(scalars))
	}
	parts := len(ts.bounds) - 1
	partials := make([]curve.Affine, parts)
	stats := make([]msm.Stats, parts)
	err := par.ItemsErr(ctx, parts, parts,
		nil,
		func(_ struct{}, i int) error {
			lo, hi := ts.bounds[i], ts.bounds[i+1]
			degrade := func(int) error { return e.degradePartition(ctx, g, points, ts, i) }
			return e.runOnDevice(ctx, rs, i, degrade, func(dev int) error {
				// The partition span sits on the executing device's track, so
				// the exported trace shows which device did which slice (and
				// failovers show up as partitions migrating between tracks).
				sp, sctx := telemetry.StartSpanOn(ctx, telemetry.DeviceTrack(dev), "partition")
				sp.SetInt("index", int64(i))
				sp.SetInt("lo", int64(lo))
				sp.SetInt("hi", int64(hi))
				defer sp.End()
				var cerr error
				if t := ts.table(i); t != nil {
					partials[i], stats[i], cerr = t.ComputeCtx(sctx, scalars[lo:hi], e.MSM)
				} else {
					partials[i], stats[i], cerr = msm.ComputeCtx(sctx, g, points[lo:hi], scalars[lo:hi], e.MSM)
				}
				return cerr
			})
		})
	if err != nil {
		return curve.Affine{}, msm.Stats{}, err
	}
	ops := g.NewOps()
	var total curve.Jacobian
	ops.SetInfinity(&total)
	for _, p := range partials {
		ops.AddMixedAssign(&total, p)
	}
	var agg msm.Stats
	for _, s := range stats {
		agg.PointAdds += s.PointAdds
		agg.Doubles += s.Doubles
		agg.TableBytes += s.TableBytes
		agg.TrafficBytes += s.TrafficBytes
		agg.ZeroDigits += s.ZeroDigits
		agg.NonzeroDigit += s.NonzeroDigit
		agg.WindowBits = s.WindowBits
		agg.Windows = s.Windows
		agg.Checkpoint = s.Checkpoint
		if s.LoadSpread > agg.LoadSpread {
			agg.LoadSpread = s.LoadSpread
		}
	}
	return ops.ToAffine(&total), agg, nil
}
