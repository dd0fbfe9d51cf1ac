package ntt

import (
	"context"
	"fmt"
	"time"

	"gzkp/internal/ff"
	"gzkp/internal/par"
	"gzkp/internal/telemetry"
)

// TransformBatchCtx runs many independent same-size transforms concurrently —
// the throughput-oriented mode the paper's §7 sketches for homomorphic-
// encryption workloads ("NTT batching"): ZKP wants one low-latency
// transform using the whole device, HE wants many smaller transforms
// saturating it. Each vector gets the same direction and (serial-precomp)
// plan; vectors are distributed over the runtime's workers. Cancellation is
// checked between vectors and between iterations of each serial transform.
func (d *Domain) TransformBatchCtx(ctx context.Context, vecs [][]ff.Element, dir Direction, cfg Config) ([]Stats, error) {
	cfg = cfg.withDefaults()
	for i, v := range vecs {
		if len(v) != d.N {
			return nil, fmt.Errorf("ntt: batch vector %d has length %d, domain %d", i, len(v), d.N)
		}
	}
	stats := make([]Stats, len(vecs))
	err := par.ItemsErr(ctx, len(vecs), 0,
		nil,
		func(_ struct{}, i int) error {
			// Per-vector serial plan: batching trades per-transform
			// parallelism for cross-transform throughput.
			st, err := d.serial(ctx, vecs[i], dir, true)
			if err != nil {
				return err
			}
			stats[i] = st
			if dir == Inverse {
				f := d.F
				for j := range vecs[i] {
					f.Mul(vecs[i][j], vecs[i][j], d.NInv)
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// TransformBatch is TransformBatchCtx without cancellation.
func (d *Domain) TransformBatch(vecs [][]ff.Element, dir Direction, cfg Config) ([]Stats, error) {
	return d.TransformBatchCtx(context.Background(), vecs, dir, cfg)
}

// TransformStridedCtx runs k same-size transforms over one contiguous
// strided buffer — vector i occupies buf[i*N : (i+1)*N] — with a single
// fused plan: the stage loop is walked once, each stage's twiddle stride is
// derived once and shared by all k vectors, and within a stage the k
// vectors are distributed over the runtime's workers. This is the batched-prover
// layout (one ProveBatch packs the k per-proof polynomial vectors
// contiguously so seven strided launches replace 7·k individual ones);
// TransformBatchCtx keeps the slice-of-slices form for callers that own
// separate vectors. Results are bit-identical to k independent Transform
// calls — every strategy computes the same exact arithmetic.
//
// Cancellation is checked between stages and at worker-chunk boundaries
// inside each stage; on cancellation buf is left in an unspecified
// intermediate state.
func (d *Domain) TransformStridedCtx(ctx context.Context, buf []ff.Element, k int, dir Direction, cfg Config) (Stats, error) {
	if k < 0 {
		return Stats{}, fmt.Errorf("ntt: negative batch count %d", k)
	}
	if len(buf) != k*d.N {
		return Stats{}, fmt.Errorf("ntt: strided buffer length %d != k·N = %d·%d", len(buf), k, d.N)
	}
	if k == 0 {
		return Stats{}, ctx.Err()
	}
	cfg = cfg.withDefaults()
	sp, ctx := telemetry.StartSpan(ctx, "ntt-strided")
	sp.SetInt("n", int64(d.N))
	sp.SetInt("k", int64(k))
	defer sp.End()

	start := time.Now()
	f := d.F
	n := d.N
	roots := [...][]ff.Element{Forward: d.roots, Inverse: d.rootsInv}[dir]
	// Permutation pass: each vector bit-reverses independently.
	err := par.RangeErr(ctx, k, 0, func(lo, hi int) error {
		for v := lo; v < hi; v++ {
			bitReverse(buf[v*n:(v+1)*n], d.LogN)
		}
		return nil
	})
	if err != nil {
		return Stats{}, err
	}
	// Fused stage loop: one plan (stage geometry + twiddle stride) drives
	// all k vectors; the vectors are the parallel grain within a stage.
	for s := uint(1); s <= d.LogN; s++ {
		if err := ctx.Err(); err != nil {
			return Stats{}, err
		}
		m := 1 << s
		half := m >> 1
		step := n >> s
		err := par.RangeErr(ctx, k, 0, func(lo, hi int) error {
			s := d.scratch(0)
			defer d.putScratch(s)
			t, u, kr := s.t, s.u, f.Kernels()
			for v := lo; v < hi; v++ {
				a := buf[v*n : (v+1)*n]
				for off := 0; off < n; off += m {
					for j := 0; j < half; j++ {
						w := roots[j*step]
						kr.Mul(t, w, a[off+j+half])
						copy(u, a[off+j])
						kr.Add(a[off+j], u, t)
						kr.Sub(a[off+j+half], u, t)
					}
				}
			}
			return nil
		})
		if err != nil {
			return Stats{}, err
		}
	}
	if dir == Inverse {
		if err := d.scale(ctx, buf, d.NInv, cfg); err != nil {
			return Stats{}, err
		}
	}
	ns := time.Since(start).Nanoseconds()
	st := Stats{Batches: k, ButterflyNS: ns, TotalNS: ns}
	if reg := telemetry.FromContext(ctx).Registry(); reg != nil {
		reg.Counter("ntt.transforms").Add(int64(k))
		reg.Counter("ntt.strided_launches").Add(1)
		reg.Counter("ntt.butterfly_ns").Add(ns)
	}
	return st, nil
}

// CosetNTTStridedCtx is the strided-batch CosetNTTCtx: every vector is
// shifted onto the coset g·⟨ω⟩ (a[i·N+j] *= g^j) and then forward-
// transformed with the fused stage loop.
func (d *Domain) CosetNTTStridedCtx(ctx context.Context, buf []ff.Element, k int, cfg Config) (Stats, error) {
	if err := d.scaleByPowersStrided(ctx, buf, k, d.coset, cfg); err != nil {
		return Stats{}, err
	}
	return d.TransformStridedCtx(ctx, buf, k, Forward, cfg)
}

// CosetINTTStridedCtx is the strided-batch CosetINTTCtx: inverse transform
// first, then the g^{-j} shift back off the coset.
func (d *Domain) CosetINTTStridedCtx(ctx context.Context, buf []ff.Element, k int, cfg Config) (Stats, error) {
	st, err := d.TransformStridedCtx(ctx, buf, k, Inverse, cfg)
	if err != nil {
		return st, err
	}
	if err := d.scaleByPowersStrided(ctx, buf, k, d.cosetInv, cfg); err != nil {
		return st, err
	}
	return st, nil
}

// scaleByPowersStrided multiplies each of the k strided vectors elementwise
// by powers of base (buf[i·N+j] *= base^j) in one parallel pass over the
// whole batch.
func (d *Domain) scaleByPowersStrided(ctx context.Context, buf []ff.Element, k int, base ff.Element, cfg Config) error {
	if len(buf) != k*d.N {
		return fmt.Errorf("ntt: strided buffer length %d != k·N = %d·%d", len(buf), k, d.N)
	}
	cfg = cfg.withDefaults()
	return par.RangeErr(ctx, k, 0, func(lo, hi int) error {
		f := d.F
		for v := lo; v < hi; v++ {
			a := buf[v*d.N : (v+1)*d.N]
			p := f.One()
			for j := range a {
				f.Mul(a[j], a[j], p)
				f.Mul(p, p, base)
			}
		}
		return nil
	})
}
