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
	// H[i] has length n-1 and aliases the batch's a buffer.
	H     [][]ff.Element
	Stats []ntt.Stats
	// FusedNTTs counts the strided launches (always 7 on success): the
	// batched pipeline replaces 7·k individual transforms with 7 launches.
	FusedNTTs int
}

// ComputeHBatchCtx is the batched ComputeHCtx over separate vectors: it
// packs the per-proof evaluation vectors avs[i], bvs[i], cvs[i] (each of
// domain length; consumed, not preserved) into three strided buffers and
// runs ComputeHStridedCtx on them.
func ComputeHBatchCtx(ctx context.Context, dom *ntt.Domain, avs, bvs, cvs [][]ff.Element, cfg ntt.Config) (*BatchResult, error) {
	k, n := len(avs), dom.N
	if len(bvs) != k || len(cvs) != k {
		return nil, fmt.Errorf("poly: batch lengths differ: %d/%d/%d", len(avs), len(bvs), len(cvs))
	}
	if k == 0 {
		return &BatchResult{}, ctx.Err()
	}
	var bufs [3][]ff.Element
	for v, vecs := range [3][][]ff.Element{avs, bvs, cvs} {
		bufs[v] = dom.F.NewVector(k * n)
		for i, x := range vecs {
			if len(x) != n {
				return nil, fmt.Errorf("poly: batch proof %d vector lengths (%d,%d,%d) != domain %d",
					i, len(avs[i]), len(bvs[i]), len(cvs[i]), n)
			}
			copy(bufs[v][i*n:], x)
		}
	}
	return ComputeHStridedCtx(ctx, dom, bufs[0], bufs[1], bufs[2], k, cfg)
}

// stageNames are the spans of the seven operations, solo and fused.
var stageNames = [2][7]string{
	{"intt-a", "intt-b", "intt-c", "coset-ntt-a", "coset-ntt-b", "coset-ntt-c", "coset-intt-h"},
	{"batch-intt-a", "batch-intt-b", "batch-intt-c", "batch-coset-ntt-a", "batch-coset-ntt-b", "batch-coset-ntt-c", "batch-coset-intt-h"},
}

// ComputeHStridedCtx runs the paper's seven-NTT POLY schedule for k
// same-domain proofs whose evaluation vectors a, b, c are strided buffers
// (vector i at [i·N, (i+1)·N), consumed as scratch) and returns every
// proof's quotient coefficients, aliasing a. k = 1 runs the single-vector
// transforms, parallel within a transform; k > 1 seven fused strided
// launches, parallel across vectors. Either way every H[i] is bit-identical
// to a solo run. ctx is checked inside every transform and between stages.
func ComputeHStridedCtx(ctx context.Context, dom *ntt.Domain, a, b, c []ff.Element, k int, cfg ntt.Config) (*BatchResult, error) {
	n := dom.N
	if k < 1 || len(a) != k*n || len(b) != k*n || len(c) != k*n {
		return nil, fmt.Errorf("poly: strided lengths (%d,%d,%d) != %d·%d", len(a), len(b), len(c), k, n)
	}
	f := dom.F
	res := &BatchResult{H: make([][]ff.Element, k), Stats: make([]ntt.Stats, 0, NTTCount)}
	intt, coset, cosetInv := dom.INTTCtx, dom.CosetNTTCtx, dom.CosetINTTCtx
	names := &stageNames[0]
	if k > 1 {
		var sp telemetry.Span
		sp, ctx = telemetry.StartSpan(ctx, "poly-batch")
		sp.SetInt("k", int64(k))
		sp.SetInt("n", int64(n))
		defer sp.End()
		names = &stageNames[1]
		intt = func(ctx context.Context, v []ff.Element, cfg ntt.Config) (ntt.Stats, error) {
			return dom.TransformStridedCtx(ctx, v, k, ntt.Inverse, cfg)
		}
		coset = func(ctx context.Context, v []ff.Element, cfg ntt.Config) (ntt.Stats, error) {
			return dom.CosetNTTStridedCtx(ctx, v, k, cfg)
		}
		cosetInv = func(ctx context.Context, v []ff.Element, cfg ntt.Config) (ntt.Stats, error) {
			return dom.CosetINTTStridedCtx(ctx, v, k, cfg)
		}
	}
	// Each of the seven ops gets a named span so the exported trace shows
	// the §5.2 schedule; the transform's own span nests under it.
	run := func(op int, fn func(context.Context, []ff.Element, ntt.Config) (ntt.Stats, error), v []ff.Element) error {
		sp, sctx := telemetry.StartSpan(ctx, names[op])
		st, err := fn(sctx, v, cfg)
		sp.End()
		if err != nil {
			return err
		}
		res.Stats = append(res.Stats, st)
		res.FusedNTTs++
		return nil
	}
	// 3 INTTs: evaluations on ⟨ω⟩ → coefficients; 3 coset-NTTs:
	// coefficients → evaluations on g·⟨ω⟩.
	for i, v := range [3][]ff.Element{a, b, c} {
		if err := run(i, intt, v); err != nil {
			return nil, err
		}
	}
	for i, v := range [3][]ff.Element{a, b, c} {
		if err := run(3+i, coset, v); err != nil {
			return nil, err
		}
	}
	// Pointwise (a·b - c)/Z on the coset; Z(g·ωⁱ) = gⁿ - 1 is the same
	// constant for every point and proof.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	zInv := f.Inverse(dom.ZOnCoset())
	err := par.RangeErr(ctx, k*n, 0, func(lo, hi int) error {
		kr := f.Kernels()
		for i := lo; i < hi; i++ {
			kr.Mul(a[i], a[i], b[i])
			kr.Sub(a[i], a[i], c[i])
			kr.Mul(a[i], a[i], zInv)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// 1 coset-INTT back to coefficients. Total: 7 NTT operations (§5.2).
	if err := run(6, cosetInv, a); err != nil {
		return nil, err
	}
	for i := range res.H {
		res.H[i] = a[i*n : i*n+n-1]
	}
	if reg := telemetry.FromContext(ctx).Registry(); k > 1 && reg != nil {
		reg.Counter("poly.batch_launches").Add(int64(res.FusedNTTs))
	}
	return res, nil
}
