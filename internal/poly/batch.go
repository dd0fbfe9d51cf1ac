package poly

import (
	"context"
	"fmt"

	"gzkp/internal/ff"
	"gzkp/internal/ntt"
	"gzkp/internal/par"
	"gzkp/internal/telemetry"
)

// BatchResult carries the k quotient-coefficient vectors of a fused POLY
// stage plus the stats of the seven strided launches.
type BatchResult struct {
	// H[i] has length n-1 and aliases the batch scratch buffer.
	H     [][]ff.Element
	Stats []ntt.Stats
	// FusedNTTs counts the strided launches (always 7 on success): the
	// batched pipeline replaces 7·k individual transforms with 7 launches.
	FusedNTTs int
}

// ComputeHBatchCtx is the batched ComputeHCtx: it runs the paper's
// seven-NTT POLY schedule for k same-domain proofs with seven fused strided
// launches instead of 7·k individual transforms. The per-proof evaluation
// vectors avs[i], bvs[i], cvs[i] (each of domain length; consumed, not
// preserved) are packed into three contiguous strided buffers so each
// launch walks one shared stage plan across all k vectors. The arithmetic
// per proof is exactly ComputeHCtx's, so every returned H[i] is
// bit-identical to a solo ComputeHCtx on the same inputs.
//
// k = 1 dispatches to ComputeHCtx: the single-vector strategies parallelise
// within a transform, the strided form across vectors, so each is the
// better schedule on its side of k = 1.
func ComputeHBatchCtx(ctx context.Context, dom *ntt.Domain, avs, bvs, cvs [][]ff.Element, cfg ntt.Config) (*BatchResult, error) {
	k := len(avs)
	if len(bvs) != k || len(cvs) != k {
		return nil, fmt.Errorf("poly: batch lengths differ: %d/%d/%d", len(avs), len(bvs), len(cvs))
	}
	n := dom.N
	for i := 0; i < k; i++ {
		if len(avs[i]) != n || len(bvs[i]) != n || len(cvs[i]) != n {
			return nil, fmt.Errorf("poly: batch proof %d vector lengths (%d,%d,%d) != domain %d",
				i, len(avs[i]), len(bvs[i]), len(cvs[i]), n)
		}
	}
	f := dom.F
	res := &BatchResult{H: make([][]ff.Element, k)}
	if k == 0 {
		return res, ctx.Err()
	}
	if k == 1 {
		solo, err := ComputeHCtx(ctx, dom, avs[0], bvs[0], cvs[0], cfg)
		if err != nil {
			return nil, err
		}
		res.H[0], res.Stats, res.FusedNTTs = solo.H, solo.Stats, len(solo.Stats)
		return res, nil
	}
	sp, ctx := telemetry.StartSpan(ctx, "poly-batch")
	sp.SetInt("k", int64(k))
	sp.SetInt("n", int64(n))
	defer sp.End()

	// Pack into strided layout: vector i of buffer X at X[i*n:(i+1)*n].
	bufA := f.NewVector(k * n)
	bufB := f.NewVector(k * n)
	bufC := f.NewVector(k * n)
	for i := 0; i < k; i++ {
		copy(bufA[i*n:], avs[i])
		copy(bufB[i*n:], bvs[i])
		copy(bufC[i*n:], cvs[i])
	}

	run := func(name string, fn func(context.Context, []ff.Element, int, ntt.Config) (ntt.Stats, error), buf []ff.Element) error {
		sp, sctx := telemetry.StartSpan(ctx, name)
		st, err := fn(sctx, buf, k, cfg)
		sp.End()
		if err != nil {
			return err
		}
		res.Stats = append(res.Stats, st)
		res.FusedNTTs++
		return nil
	}
	intt := func(c context.Context, buf []ff.Element, k int, cfg ntt.Config) (ntt.Stats, error) {
		return dom.TransformStridedCtx(c, buf, k, ntt.Inverse, cfg)
	}
	vecName := [...]string{"a", "b", "c"}
	// 3 strided INTTs: evaluations on ⟨ω⟩ → coefficients, all k at once.
	for i, buf := range [][]ff.Element{bufA, bufB, bufC} {
		if err := run("batch-intt-"+vecName[i], intt, buf); err != nil {
			return nil, err
		}
	}
	// 3 strided coset-NTTs: coefficients → evaluations on g·⟨ω⟩.
	for i, buf := range [][]ff.Element{bufA, bufB, bufC} {
		if err := run("batch-coset-ntt-"+vecName[i], dom.CosetNTTStridedCtx, buf); err != nil {
			return nil, err
		}
	}
	// Pointwise (a·b - c)/Z on the coset across the whole batch; the
	// vanishing polynomial is the same constant gⁿ-1 for every proof.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	zInv := f.Inverse(dom.ZOnCoset())
	err := par.RangeErr(ctx, k*n, 0, func(lo, hi int) error {
		tmp := f.New()
		kr := f.Kernels()
		for i := lo; i < hi; i++ {
			kr.Mul(tmp, bufA[i], bufB[i])
			kr.Sub(tmp, tmp, bufC[i])
			kr.Mul(bufA[i], tmp, zInv)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// 1 strided coset-INTT back. Total: 7 fused launches for 7·k transforms.
	if err := run("batch-coset-intt-h", dom.CosetINTTStridedCtx, bufA); err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		res.H[i] = bufA[i*n : i*n+n-1]
	}
	if reg := telemetry.FromContext(ctx).Registry(); reg != nil {
		reg.Counter("poly.batch_launches").Add(int64(res.FusedNTTs))
	}
	return res, nil
}
