// Package msm implements the multi-scalar multiplication stage of GZKP §4:
// Σ sᵢ·Pᵢ over millions of points, the dominant cost of proof generation.
//
// Six strategies reproduce the paper's comparison matrix and its signed-
// digit extensions:
//
//   - Reference: serial double-and-add (correctness oracle);
//   - Straus: MINA-like per-point precomputed tables (§2.3, Table 7's
//     753-bit baseline) — fast per point, memory grows as N·2^k;
//   - PippengerWindows: bellperson-like horizontal sub-MSM × window grid
//     with per-sub-MSM Pippenger (§2.3, Fig. 3);
//   - GZKP: the paper's plan (§4.1-4.2) — checkpoint-preprocessed weighted
//     points (Algorithm 1), cross-window bucket merging that eliminates the
//     window-reduction step, bucket-grained task partitioning with
//     load-grouped heaviest-first scheduling, and parallel-prefix bucket
//     reduction; Config.SignedBuckets switches it to signed digits;
//   - SignedDigit: the window grid over signed digits, half the buckets;
//   - SignedDigitGLV: SignedDigit over GLV-split half-length scalars.
//
// GZKP's bucket kernel (buckets.go) adds affine points: each task reduces
// a group of buckets as one tree, every round sharing one inversion, so a
// bucket entry costs ≈ 5M + 1S instead of a mixed add's 7M + 4S. Only a
// kept table (Preprocess) is worth building; a GZKP MSM without one runs
// the kernel on the input points as the single checkpoint, M = windows.
//
// All strategies are generic over the curve group (G1 and G2).
package msm

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/telemetry"
)

// StrategyID selects the MSM plan.
type StrategyID int

const (
	Reference StrategyID = iota
	Straus
	PippengerWindows
	GZKP
	// SignedDigit rebuilds the Pippenger path around signed-digit windows:
	// digits in [-2^(k-1), 2^(k-1)] with carry, so each window accumulates
	// 2^(k-1) buckets (half of unsigned Pippenger's 2^k - 1) and negative
	// digits fold by mixed subtraction.
	SignedDigit
	// SignedDigitGLV additionally splits each scalar with the curve's GLV
	// endomorphism into two sub-√r halves against the doubled point set
	// {Pᵢ, φ(Pᵢ)}, halving the window count. Falls back to SignedDigit on
	// groups without the endomorphism (MNT4753-sim). Input points must lie
	// in the r-order subgroup (CRS bases always do).
	SignedDigitGLV
)

func (s StrategyID) String() string {
	switch s {
	case Reference:
		return "reference"
	case Straus:
		return "straus"
	case PippengerWindows:
		return "pippenger-windows"
	case GZKP:
		return "gzkp"
	case SignedDigit:
		return "signed-digit"
	case SignedDigitGLV:
		return "signed-digit-glv"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Config tunes an MSM execution.
type Config struct {
	Strategy StrategyID
	// WindowBits is the Pippenger window size k; 0 selects the
	// profiling-based default for the strategy and scale (§4.1).
	WindowBits int
	// CheckpointInterval is Algorithm 1's M (GZKP preprocessing density).
	// 0 derives it from MemoryBudget for a table Preprocess builds to be
	// kept, and means M = windows — no table built, the input points as the
	// only checkpoint — for an MSM that has none.
	CheckpointInterval int
	// MemoryBudget caps a kept preprocessed table's size in bytes
	// (0 = 1 GiB) when CheckpointInterval is 0.
	MemoryBudget int64
	// SubMSMSize is the horizontal chunk for PippengerWindows/Straus
	// (0 = auto).
	SubMSMSize int
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// NoLoadBalance disables GZKP's load-grouped scheduling (the
	// "GZKP-no-LB" ablation of Fig. 10): buckets are statically chunked
	// in index order instead.
	NoLoadBalance bool
	// SignedBuckets selects the digit recoding of the GZKP table strategy:
	// signed digits need half the buckets per window and default to a
	// one-bit-wider window at the same bucket memory; unset is the paper's
	// Algorithm 1 setting (unsigned digits, 2^k-1 buckets).
	SignedBuckets bool
}

// Stats describes one MSM execution.
type Stats struct {
	WindowBits   int
	Windows      int
	Checkpoint   int  // M
	Buckets      int  // buckets per accumulation unit (halved when Signed)
	Signed       bool // signed-digit bucket windows
	GLV          bool // GLV-decomposed scalars over the doubled point set
	PointAdds    int64
	Doubles      int64
	TableBytes   int64 // preprocessed/auxiliary memory
	BucketLoads  []int64
	LoadSpread   float64 // max/min over nonzero bucket loads (Fig. 6)
	ZeroDigits   int64   // skipped work (sparse ū)
	NonzeroDigit int64
	// TrafficBytes estimates the global bytes the execution streamed:
	// point/table loads plus canonical scalar reads plus index traffic.
	// It is the CPU substrate's analogue of the model's DRAM accounting,
	// so stage totals stay comparable across strategies.
	TrafficBytes int64
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// AutoWindow returns the profiling-based window size for an N-point GZKP
// MSM (§4.1: larger k lowers PADD count but explodes the task grid; the
// sweet spot tracks log₂N).
func AutoWindow(n int) int {
	if n <= 0 {
		return 4
	}
	k := bits.Len(uint(n)) - 3
	if k < 4 {
		k = 4
	}
	if k > 16 {
		k = 16
	}
	return k
}

// ComputeCtx evaluates Σ scalars[i]·points[i] on group g with cfg. ctx is
// checked cooperatively at task boundaries; on cancellation the MSM aborts
// with ctx.Err().
func ComputeCtx(ctx context.Context, g *curve.Group, points []curve.Affine, scalars []ff.Element, cfg Config) (curve.Affine, Stats, error) {
	if len(points) != len(scalars) {
		return curve.Affine{}, Stats{}, fmt.Errorf("msm: %d points vs %d scalars", len(points), len(scalars))
	}
	if len(points) == 0 {
		return g.Infinity(), Stats{}, nil
	}
	switch cfg.Strategy {
	case Reference, Straus, PippengerWindows, SignedDigit, SignedDigitGLV:
		sp, ctx := telemetry.StartSpan(ctx, "msm")
		sp.SetStr("strategy", cfg.Strategy.String())
		sp.SetInt("n", int64(len(points)))
		defer sp.End()
		var (
			res curve.Affine
			st  Stats
			err error
		)
		switch cfg.Strategy {
		case Reference:
			res, st, err = reference(ctx, g, points, scalars)
		case Straus:
			res, st, err = straus(ctx, g, points, scalars, cfg)
		default:
			signed := cfg.Strategy != PippengerWindows
			res, st, err = windowGrid(ctx, g, points, scalars, cfg, signed, cfg.Strategy == SignedDigitGLV)
		}
		if err == nil {
			recordMSM(ctx, sp, st)
		}
		return res, st, err
	case GZKP:
		table, err := newTable(ctx, g, points, cfg, false, nil)
		if err != nil {
			return curve.Affine{}, Stats{}, err
		}
		return table.ComputeCtx(ctx, scalars, cfg)
	default:
		return curve.Affine{}, Stats{}, fmt.Errorf("msm: unknown strategy %d", cfg.Strategy)
	}
}

// pointBytes is the affine footprint on g's coordinate field.
func pointBytes(g *curve.Group) int64 { return int64(2 * g.K.Words() * 8) }

// recordMSM publishes one MSM execution to the ctx tracer: span attributes
// for the trace plus the aggregate counters the paper's tables break down
// (PADDs, doubles, table memory, streamed traffic, digit sparsity) and the
// Fig. 6 load-spread gauge.
func recordMSM(ctx context.Context, sp telemetry.Span, st Stats) {
	reg := telemetry.FromContext(ctx).Registry()
	if reg == nil {
		return
	}
	reg.Counter("msm.ops").Add(1)
	reg.Counter("msm.point_adds").Add(st.PointAdds)
	reg.Counter("msm.doubles").Add(st.Doubles)
	reg.Counter("msm.table_bytes").Add(st.TableBytes)
	reg.Counter("msm.traffic_bytes").Add(st.TrafficBytes)
	reg.Counter("msm.zero_digits").Add(st.ZeroDigits)
	reg.Counter("msm.nonzero_digits").Add(st.NonzeroDigit)
	if st.Signed {
		reg.Counter("msm.signed_ops").Add(1)
	}
	if st.GLV {
		reg.Counter("msm.glv_ops").Add(1)
	}
	if st.LoadSpread > 0 {
		reg.Gauge("msm.load_spread").Max(st.LoadSpread)
	}
	sp.SetInt("point_adds", st.PointAdds)
	sp.SetInt("doubles", st.Doubles)
	sp.SetInt("table_bytes", st.TableBytes)
	sp.SetInt("traffic_bytes", st.TrafficBytes)
	sp.SetInt("buckets", int64(st.Buckets))
	if st.Signed {
		sp.SetInt("signed", 1)
	}
	if st.GLV {
		sp.SetInt("glv", 1)
	}
}

// Compute is ComputeCtx without cancellation.
func Compute(g *curve.Group, points []curve.Affine, scalars []ff.Element, cfg Config) (curve.Affine, Stats, error) {
	return ComputeCtx(context.Background(), g, points, scalars, cfg)
}

// digits provides windowed base-2^k digit access to canonicalized scalars.
type digits struct {
	limbs   []uint64 // canonical little-endian, row-major
	perRow  int
	k       int
	windows int
	n       int
}

// newDigits canonicalizes scalars (out of Montgomery form) once and serves
// digit lookups; l is the scalar bit length.
func newDigits(f *ff.Field, scalars []ff.Element, k int) *digits {
	d := &digits{}
	d.reset(f, len(scalars), k)
	d.canonicalize(f, scalars, 0, len(scalars))
	return d
}

// reset sizes d for n scalars of f's bit length, keeping old rows.
func (d *digits) reset(f *ff.Field, n, k int) {
	perRow := f.Limbs()
	*d = digits{limbs: grow(d.limbs, n*perRow), perRow: perRow, k: k, windows: (f.Bits() + k - 1) / k, n: n}
}

// canonicalize writes rows [lo, hi): scalar i out of Montgomery form, and
// zero past the end of scalars.
func (d *digits) canonicalize(f *ff.Field, scalars []ff.Element, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := d.limbs[i*d.perRow : (i+1)*d.perRow]
		if i < len(scalars) {
			f.Canonical(row, scalars[i])
		} else {
			clear(row)
		}
	}
}

// digit returns window t of scalar i: bits [t·k, (t+1)·k).
func (d *digits) digit(i, t int) uint32 {
	bit := t * d.k
	word := bit >> 6
	off := uint(bit & 63)
	row := d.limbs[i*d.perRow:]
	v := row[word] >> off
	if off+uint(d.k) > 64 && word+1 < d.perRow {
		v |= row[word+1] << (64 - off)
	}
	return uint32(v) & (1<<d.k - 1)
}

// reference is the serial double-and-add oracle.
func reference(ctx context.Context, g *curve.Group, points []curve.Affine, scalars []ff.Element) (curve.Affine, Stats, error) {
	ops := g.NewOps()
	var acc curve.Jacobian
	ops.SetInfinity(&acc)
	for i := range points {
		if err := ctx.Err(); err != nil {
			return curve.Affine{}, Stats{}, err
		}
		p := ops.ScalarMulElement(points[i], scalars[i])
		ops.AddAssign(&acc, p)
	}
	return ops.ToAffine(&acc), Stats{}, nil
}
