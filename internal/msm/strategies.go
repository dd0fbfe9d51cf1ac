package msm

import (
	"context"
	"fmt"
	"sync/atomic"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/par"
)

// straus is the MINA-like strategy (§2.3): per-point tables T[i][j] = j·Pᵢ
// for j < 2^k, then a windowed walk from the top adding table entries. The
// tables make each window cheap but cost N·(2^k-1) stored points — the
// memory wall of Fig. 9 / Table 7 (MINA fails beyond 2^22).
func straus(ctx context.Context, g *curve.Group, points []curve.Affine, scalars []ff.Element, cfg Config) (curve.Affine, Stats, error) {
	k := cfg.WindowBits
	if k <= 0 {
		k = 4 // MINA's small fixed window: table growth forbids more
	}
	f := g.Fr
	dg := newDigits(f, scalars, k)
	n := len(points)
	tableWidth := 1<<k - 1

	// Build tables: T[i][j-1] = j·Pᵢ, built incrementally with mixed adds
	// and batch-normalized per point stripe.
	tables := make([][]curve.Affine, n)
	var stats Stats
	stats.WindowBits = k
	stats.Windows = dg.windows
	stats.TableBytes = int64(n) * int64(tableWidth) * int64(2*g.K.Words()*8)
	// One table-entry load per (point, window) plus canonical scalar reads
	// plus writing the tables once during the build.
	stats.TrafficBytes = int64(n)*int64(dg.windows)*pointBytes(g) +
		int64(n)*int64(g.Fr.Limbs()*8) + stats.TableBytes
	err := par.ItemsErr(ctx, n, cfg.workers(), g.NewOps,
		func(ops *curve.Ops, i int) error {
			jacs := make([]curve.Jacobian, tableWidth)
			var acc curve.Jacobian
			ops.SetInfinity(&acc)
			for j := 0; j < tableWidth; j++ {
				ops.AddMixedAssign(&acc, points[i])
				ops.Copy(&jacs[j], &acc)
			}
			tables[i] = g.BatchToAffine(jacs)
			return nil
		})
	if err != nil {
		return curve.Affine{}, stats, err
	}

	// Walk windows from the top across horizontal chunks.
	workers := cfg.workers()
	partial := make([]curve.Jacobian, workers)
	chunk := (n + workers - 1) / workers
	var adds, doubles int64
	err = par.ItemsErr(ctx, workers, workers, g.NewOps,
		func(ops *curve.Ops, w int) error {
			var localAdds, localDoubles int64
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			var acc curve.Jacobian
			ops.SetInfinity(&acc)
			for t := dg.windows - 1; t >= 0; t-- {
				if err := ctx.Err(); err != nil {
					return err
				}
				if t != dg.windows-1 {
					for b := 0; b < k; b++ {
						ops.DoubleAssign(&acc)
					}
					localDoubles += int64(k)
				}
				for i := lo; i < hi; i++ {
					j := dg.digit(i, t)
					if j == 0 {
						continue
					}
					ops.AddMixedAssign(&acc, tables[i][j-1])
					localAdds++
				}
			}
			partial[w] = acc
			atomic.AddInt64(&adds, localAdds)
			atomic.AddInt64(&doubles, localDoubles)
			return nil
		})
	if err != nil {
		return curve.Affine{}, stats, err
	}
	ops := g.NewOps()
	var total curve.Jacobian
	ops.SetInfinity(&total)
	for i := range partial {
		ops.AddAssign(&total, &partial[i])
	}
	// Table build (one mixed add per entry), the window walk, the final fold.
	stats.PointAdds = int64(n)*int64(tableWidth) + adds + int64(workers)
	stats.Doubles = doubles
	return ops.ToAffine(&total), stats, nil
}

// windowGrid is the bellperson-like strategy (§2.3, Fig. 3) and its
// signed-digit rebuilds, one routine parameterised by the digit recoding:
// the point vector is split horizontally into sub-MSMs; each (sub-MSM,
// window) task accumulates its own buckets and reduces them with a running
// sum; per-window partials are summed and combined with k doublings between
// windows (the window-reduction step GZKP eliminates). Unsigned digits
// (PippengerWindows) use 2^k-1 buckets per task; signed digits (SignedDigit)
// use 2^(k-1) and subtract the point for negative digits. With useGLV (and a
// group exposing the endomorphism) every scalar first splits into sub-√r
// halves against the doubled point set, halving the window count per point.
func windowGrid(ctx context.Context, g *curve.Group, points []curve.Affine, scalars []ff.Element, cfg Config, signed, useGLV bool) (curve.Affine, Stats, error) {
	k := windowBits(len(points), cfg.WindowBits, signed)

	var dm *digitMatrix
	pts := points
	if v := g.GLV(); useGLV && v != nil {
		n := len(points)
		pts = make([]curve.Affine, 2*n)
		copy(pts, points)
		for i, p := range points {
			pts[n+i] = v.Phi(p)
		}
		dm = glvSignedDigits(g.Fr, v, scalars, k)
	} else {
		useGLV = false
		dm = recodeDigits(newDigits(g.Fr, scalars, k), signed)
	}

	n := len(pts)
	nw := dm.windows
	numBuckets := bucketCount(k, signed)
	subSize := cfg.SubMSMSize
	if subSize <= 0 {
		subSize = n / cfg.workers()
		if subSize < numBuckets {
			subSize = numBuckets
		}
		if subSize > n {
			subSize = n
		}
	}
	numSub := (n + subSize - 1) / subSize

	stats := Stats{
		WindowBits: k, Windows: nw, Buckets: numBuckets, Signed: signed, GLV: useGLV,
		TableBytes: int64(numSub) * int64(nw) * int64(numBuckets) * int64(3*g.K.Words()*8),
		// Every (sub-MSM, window) task re-streams its point slice, so each
		// point is loaded once per window; scalars are read once in
		// canonical form and the digit matrix once.
		TrafficBytes: int64(n)*int64(nw)*pointBytes(g) +
			int64(len(scalars))*int64(g.Fr.Limbs()*8) +
			int64(len(dm.dig))*4,
	}
	for _, d := range dm.dig {
		if d == 0 {
			stats.ZeroDigits++
		} else {
			stats.NonzeroDigit++
		}
	}

	// One task per (sub, window): bucket accumulate + running-sum reduce.
	type scratch struct {
		ops     *curve.Ops
		buckets []curve.Jacobian
	}
	var adds, doubles int64
	windowSums := make([]curve.Jacobian, numSub*nw)
	err := par.ItemsErr(ctx, numSub*nw, cfg.workers(),
		func() *scratch {
			return &scratch{ops: g.NewOps(), buckets: make([]curve.Jacobian, numBuckets)}
		},
		func(s *scratch, task int) error {
			ops := s.ops
			sub, t := task/nw, task%nw
			lo, hi := sub*subSize, (sub+1)*subSize
			if hi > n {
				hi = n
			}
			for j := range s.buckets {
				ops.SetInfinity(&s.buckets[j])
			}
			var localAdds int64
			for i := lo; i < hi; i++ {
				d := dm.digit(i, t)
				if d == 0 {
					continue
				}
				if d > 0 {
					ops.AddMixedAssign(&s.buckets[d-1], pts[i])
				} else {
					ops.SubMixedAssign(&s.buckets[-d-1], pts[i])
				}
				localAdds++
			}
			// Running-sum bucket reduction: Σ j·B_j.
			var running, acc curve.Jacobian
			ops.SetInfinity(&running)
			ops.SetInfinity(&acc)
			for j := len(s.buckets) - 1; j >= 0; j-- {
				ops.AddAssign(&running, &s.buckets[j])
				ops.AddAssign(&acc, &running)
				localAdds += 2
			}
			windowSums[task] = acc
			atomic.AddInt64(&adds, localAdds)
			return nil
		})
	if err != nil {
		return curve.Affine{}, stats, err
	}

	// Sum sub-MSM partials per window, then the serial window reduction.
	ops := g.NewOps()
	var total curve.Jacobian
	ops.SetInfinity(&total)
	for t := nw - 1; t >= 0; t-- {
		if t != nw-1 {
			for b := 0; b < k; b++ {
				ops.DoubleAssign(&total)
			}
			doubles += int64(k)
		}
		for sub := 0; sub < numSub; sub++ {
			ops.AddAssign(&total, &windowSums[sub*nw+t])
			adds++
		}
	}
	stats.PointAdds, stats.Doubles = adds, doubles
	return ops.ToAffine(&total), stats, nil
}

// guardIndexWidth rejects scales whose bucket-info array would overflow the
// int32 entries Algorithm 1 uses.
func guardIndexWidth(n, windows int) error {
	if int64(n)*int64(windows) >= 1<<31 {
		return fmt.Errorf("msm: N·windows = %d·%d overflows the 32-bit bucket index", n, windows)
	}
	return nil
}
