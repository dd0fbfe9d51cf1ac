// Package core is the GZKP timing harness: it wires the paper's optimized
// POLY (internal/ntt) and MSM (internal/msm) stages into the proof-generation
// pipeline — seven NTT operations and five multi-scalar multiplications per
// proof (§5.2) — with pluggable strategies so every baseline of §5 runs on
// the same substrate.
//
// The engine runs the computational pipeline on synthetic Groth16-shaped
// inputs (internal/workload), which is what the paper's Tables 2 and 3 time,
// and so covers the 753-bit MNT4753-sim curve that has no pairing. Real
// proofs and the kernel-launch fault ladder live in internal/groth16; Table
// 4's multi-device split is modeled by internal/gpusim's cluster.
package core

import (
	"context"
	"fmt"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/par"
	"gzkp/internal/poly"
	"gzkp/internal/telemetry"
	"gzkp/internal/workload"
)

// Engine binds a curve to stage strategies.
type Engine struct {
	Curve *curve.Curve
	NTT   ntt.Config
	MSM   msm.Config
}

// NewGZKP returns an engine with the paper's full optimization set.
func NewGZKP(id curve.ID) *Engine {
	return &Engine{
		Curve: curve.Get(id),
		NTT:   ntt.Config{Strategy: ntt.GZKP},
		MSM:   msm.Config{Strategy: msm.GZKP, SignedBuckets: true},
	}
}

// NewBaseline returns the best-GPU baseline configuration (bellperson-like).
func NewBaseline(id curve.ID) *Engine {
	return &Engine{
		Curve: curve.Get(id),
		NTT:   ntt.Config{Strategy: ntt.ShuffleBaseline},
		MSM:   msm.Config{Strategy: msm.PippengerWindows},
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
}

// TotalNS is the end-to-end proof-generation time.
func (r *Result) TotalNS() int64 { return r.PolyNS + r.MSMNS }

// ProvePipeline is ProvePipelineCtx without cancellation or deadline.
func (e *Engine) ProvePipeline(p *workload.Pipeline) (*Result, error) {
	return e.ProvePipelineCtx(context.Background(), p)
}

// ProvePipelineCtx runs the Groth16-shaped pipeline on a workload: the POLY
// stage (3 INTT + 3 coset-NTT + 1 coset-INTT over A, B, C) followed by the
// MSM stage (4 MSMs over the sparse ū — standing for the A/B1/B2/K queries
// — and 1 over the dense h̄). ctx cancellation is honored cooperatively at
// chunk boundaries.
func (e *Engine) ProvePipelineCtx(ctx context.Context, p *workload.Pipeline) (*Result, error) {
	if p.App.Curve != e.Curve.ID {
		return nil, fmt.Errorf("core: workload curve %v != engine curve %v", p.App.Curve, e.Curve.ID)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, g := e.Curve.Fr, e.Curve.G1
	res := &Result{}
	root, ctx := telemetry.StartSpan(ctx, "pipeline")
	root.SetInt("n", int64(p.N))
	defer root.End()

	// ---- POLY stage (internal/poly: the 7-NTT schedule).
	t0 := time.Now()
	dom, err := ntt.NewDomain(f, p.N)
	if err != nil {
		return nil, err
	}
	spPoly, pctx := telemetry.StartSpan(ctx, "poly")
	spPoly.SetInt("n", int64(p.N))
	var polyRes *poly.Result
	err = par.Run(pctx, e.MSM.Workers, func(ctx context.Context, _ *par.List) (err error) {
		polyRes, err = poly.ComputeHCtx(ctx, dom, f.CopyVector(p.A), f.CopyVector(p.B), f.CopyVector(p.C), e.NTT)
		return err
	})
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
	var table *msm.Table
	if e.MSM.Strategy == msm.GZKP {
		t := time.Now()
		sp, sctx := telemetry.StartSpan(ctx, "preprocess")
		table, err = msm.PreprocessCtx(sctx, g, p.Points, e.MSM)
		sp.End()
		if err != nil {
			return nil, err
		}
		res.PreprocessNS = time.Since(t).Nanoseconds()
	}

	// ---- MSM stage: 4 sparse-ū MSMs + 1 dense-h̄ MSM.
	t1 := time.Now()
	spMSM, mctx := telemetry.StartSpan(ctx, "msm-stage")
	defer spMSM.End()
	for _, scalars := range [][]ff.Element{p.U, p.U, p.U, p.U, h} {
		var (
			out curve.Affine
			st  msm.Stats
		)
		if table != nil {
			out, st, err = table.ComputeCtx(mctx, scalars, e.MSM)
		} else {
			out, st, err = msm.ComputeCtx(mctx, g, p.Points, scalars, e.MSM)
		}
		if err != nil {
			return nil, err
		}
		res.Outputs = append(res.Outputs, out)
		res.MSMStats = append(res.MSMStats, st)
	}
	spMSM.End()
	res.MSMNS = time.Since(t1).Nanoseconds()
	return res, nil
}
