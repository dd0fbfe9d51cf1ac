package msm

import (
	"context"
	"fmt"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/telemetry"
)

// ComputeManyCtx evaluates k MSMs over one shared base set: result[i] =
// Σ_j slices[i][j]·points[j]. This is the batched-prover shape — k
// same-circuit proofs share every base vector (A/B1/B2/H/K), so the strategy
// setup (the GZKP table layout, window profiling, digit canonicalization plans)
// is paid once and the per-slice kernels stream over it. Each slice's
// result is bit-identical to a solo ComputeCtx with the same cfg: slices
// are independent sums, so amortizing setup cannot change the arithmetic.
//
// Slices may have distinct lengths ≤ len(points); slice i consumes the
// first len(slices[i]) bases (the Groth16 K MSM skips public inputs, so its
// batched form passes the shortened base prefix per proof).
func ComputeManyCtx(ctx context.Context, g *curve.Group, points []curve.Affine, slices [][]ff.Element, cfg Config) ([]curve.Affine, []Stats, error) {
	for i, s := range slices {
		if len(s) > len(points) {
			return nil, nil, fmt.Errorf("msm: batch slice %d has %d scalars vs %d points", i, len(s), len(points))
		}
	}
	eval := func(ctx context.Context, scalars []ff.Element) (curve.Affine, Stats, error) {
		return ComputeCtx(ctx, g, points[:len(scalars)], scalars, cfg)
	}
	if cfg.Strategy == GZKP && len(points) > 0 && len(slices) > 0 {
		// One table layout (and its digit geometry) serves all k computes.
		table, err := newTable(ctx, g, points, cfg, false)
		if err != nil {
			return nil, nil, err
		}
		eval = func(ctx context.Context, scalars []ff.Element) (curve.Affine, Stats, error) {
			return table.computePrefixCtx(ctx, scalars, cfg)
		}
	}
	return computeMany(ctx, cfg.Strategy.String(), slices, eval)
}

// ComputeManyCtx is ComputeManyCtx over an already-preprocessed table: the
// k slices reuse t's checkpoint tables directly, the per-proof path of a
// batched prover whose proving key carries prebuilt GZKP tables.
func (t *Table) ComputeManyCtx(ctx context.Context, slices [][]ff.Element, cfg Config) ([]curve.Affine, []Stats, error) {
	return computeMany(ctx, "gzkp-table", slices, func(ctx context.Context, scalars []ff.Element) (curve.Affine, Stats, error) {
		return t.computePrefixCtx(ctx, scalars, cfg)
	})
}

// computeMany is the slice loop both ComputeManyCtx forms share: one
// "msm-batch" span, one eval per slice with ctx checked in between, and the
// batch counters.
func computeMany(ctx context.Context, strategy string, slices [][]ff.Element, eval func(context.Context, []ff.Element) (curve.Affine, Stats, error)) ([]curve.Affine, []Stats, error) {
	k := len(slices)
	if k == 0 {
		return nil, nil, ctx.Err()
	}
	sp, ctx := telemetry.StartSpan(ctx, "msm-batch")
	sp.SetStr("strategy", strategy)
	sp.SetInt("k", int64(k))
	defer sp.End()
	results := make([]curve.Affine, k)
	stats := make([]Stats, k)
	for i := range slices {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		var err error
		if results[i], stats[i], err = eval(ctx, slices[i]); err != nil {
			return nil, nil, err
		}
	}
	if reg := telemetry.FromContext(ctx).Registry(); reg != nil {
		reg.Counter("msm.batch_ops").Add(1)
		reg.Counter("msm.batch_slices").Add(int64(k))
	}
	return results, stats, nil
}

// computePrefixCtx runs t.ComputeCtx on a scalar slice that may be shorter
// than the table's base set, zero-extending the tail: Σ over missing bases
// contributes nothing, and the table's checkpoint geometry (built for the
// full base count) is reused unchanged so the batch shares one table.
func (t *Table) computePrefixCtx(ctx context.Context, scalars []ff.Element, cfg Config) (curve.Affine, Stats, error) {
	n := t.n
	if len(scalars) == n {
		return t.ComputeCtx(ctx, scalars, cfg)
	}
	if len(scalars) > n {
		return curve.Affine{}, Stats{}, fmt.Errorf("msm: %d scalars vs table of %d points", len(scalars), n)
	}
	padded := make([]ff.Element, n)
	copy(padded, scalars)
	zero := t.g.Fr.New()
	for i := len(scalars); i < n; i++ {
		padded[i] = zero
	}
	return t.ComputeCtx(ctx, padded, cfg)
}
