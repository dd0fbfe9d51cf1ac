// Package ntt implements the POLY-stage number-theoretic transforms of
// GZKP §3: radix-2 Cooley–Tukey NTT/INTT over the scalar field, with the
// paper's competing execution strategies —
//
//   - Serial: libsnark-like CPU loop that recomputes ω powers on the fly;
//   - SerialPrecomp: the same loop with the twiddle table GZKP advocates;
//   - ShuffleBaseline: bellperson-like batched execution with an explicit
//     global-memory shuffle pass before every batch (§2.2);
//   - GZKP: shuffle-less batches; each block takes G whole independent
//     groups and performs the internal shuffle between "global" and
//     "shared" memory, keeping global accesses block-contiguous (§3, Fig 4).
//
// All strategies compute identical transforms; they differ in data
// movement, parallel decomposition and twiddle handling, which is exactly
// what Tables 5-6 and Figure 8 measure.
package ntt

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"

	"gzkp/internal/ff"
	"gzkp/internal/par"
	"gzkp/internal/telemetry"
)

// Domain is a power-of-two evaluation domain over Fr with precomputed
// twiddles. The paper's point (§5.3) that each iteration has a bounded set
// of unique ω-powers is realized here: roots stores ω^i for i < N/2 once,
// and every strategy indexes into it (Serial deliberately does not).
type Domain struct {
	F    *ff.Field
	N    int
	LogN uint

	Omega    ff.Element // primitive N-th root of unity
	OmegaInv ff.Element
	NInv     ff.Element // N^{-1} for INTT scaling

	roots    []ff.Element // ω^i,   i < N/2
	rootsInv []ff.Element // ω^-i,  i < N/2

	coset    ff.Element // multiplicative coset shift g (a non-residue)
	cosetInv ff.Element

	// blocks is the transforms' free list of block scratch, sized for the
	// blocks several concurrent transforms keep in flight on every core.
	blocks chan *groupScratch
}

// NewDomain builds a domain of size n (a power of two ≤ 2^two-adicity).
func NewDomain(f *ff.Field, n int) (*Domain, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ntt: domain size %d is not a power of two >= 2", n)
	}
	logN := uint(bits.TrailingZeros(uint(n)))
	omega, err := f.RootOfUnity(logN)
	if err != nil {
		return nil, err
	}
	d := &Domain{
		F: f, N: n, LogN: logN,
		Omega:    omega,
		OmegaInv: f.Inverse(omega),
		NInv:     f.Inverse(f.FromUint64(uint64(n))),
		coset:    f.CosetGenerator(),
		blocks:   make(chan *groupScratch, 4*runtime.GOMAXPROCS(0)),
	}
	d.cosetInv = f.Inverse(d.coset)
	d.roots = powerTable(f, omega, n/2)
	d.rootsInv = powerTable(f, d.OmegaInv, n/2)
	return d, nil
}

func powerTable(f *ff.Field, base ff.Element, n int) []ff.Element {
	t := make([]ff.Element, n)
	acc := f.One()
	for i := 0; i < n; i++ {
		t[i] = f.Copy(acc)
		f.Mul(acc, acc, base)
	}
	return t
}

// Direction selects forward (coefficients→evaluations) or inverse.
type Direction int

const (
	Forward Direction = iota
	Inverse
)

// Strategy selects the execution plan.
type Strategy int

const (
	// Serial is the libsnark-like baseline: one thread, ω powers
	// recomputed with a running product each iteration, no table.
	Serial Strategy = iota
	// SerialPrecomp is Serial with twiddle-table lookups.
	SerialPrecomp
	// ShuffleBaseline is the bellperson-like plan: batches of B
	// iterations, a global shuffle pass moving every element before each
	// batch (after batch 0), one independent group per block.
	ShuffleBaseline
	// GZKP is the paper's plan: shuffle-less batches, G groups per block,
	// internal shuffle during the global↔shared transfers.
	GZKP
)

func (s Strategy) String() string {
	switch s {
	case Serial:
		return "serial"
	case SerialPrecomp:
		return "serial-precomp"
	case ShuffleBaseline:
		return "shuffle-baseline"
	case GZKP:
		return "gzkp"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Config tunes a transform execution. A transform's loops run at the width
// of the caller's par scope, or at GOMAXPROCS outside one.
type Config struct {
	Strategy Strategy
	// BatchBits is B, the iterations fused per batch (parallel strategies).
	// 0 selects the default (8, the paper's bellperson setting; GZKP picks
	// the largest B with G·2^B elements per block).
	BatchBits int
	// GroupsPerBlock is G for the GZKP strategy (default 4, the smallest
	// value filling a 32 B L2 line with 8-byte words).
	GroupsPerBlock int
}

func (c Config) withDefaults() Config {
	if c.BatchBits <= 0 {
		c.BatchBits = 8
	}
	if c.GroupsPerBlock <= 0 {
		c.GroupsPerBlock = 4
	}
	return c
}

// Stats reports where a transform spent its time.
type Stats struct {
	Batches     int
	ShuffleNS   int64 // time in global shuffle passes (ShuffleBaseline)
	ButterflyNS int64 // time in butterfly compute (incl. local shuffles)
	TotalNS     int64
}

// bitReverse permutes a into bit-reversed order in place.
func bitReverse(a []ff.Element, logN uint) {
	n := len(a)
	shift := 64 - logN
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
}

// TransformCtx runs an in-place NTT (Forward: coefficients in natural
// order → evaluations in natural order) or INTT per cfg. ctx is checked
// cooperatively at batch/chunk boundaries; on cancellation the transform
// aborts with ctx.Err() and the input is left in an unspecified
// intermediate state.
func (d *Domain) TransformCtx(ctx context.Context, a []ff.Element, dir Direction, cfg Config) (Stats, error) {
	if len(a) != d.N {
		return Stats{}, fmt.Errorf("ntt: input length %d != domain size %d", len(a), d.N)
	}
	cfg = cfg.withDefaults()
	sp, ctx := telemetry.StartSpan(ctx, "ntt")
	sp.SetStr("strategy", cfg.Strategy.String())
	sp.SetInt("n", int64(d.N))
	defer sp.End()
	var st Stats
	var err error
	switch cfg.Strategy {
	case Serial:
		st, err = d.serial(ctx, a, dir, false)
	case SerialPrecomp:
		st, err = d.serial(ctx, a, dir, true)
	case ShuffleBaseline:
		st, err = d.shuffleBaseline(ctx, a, dir, cfg)
	case GZKP:
		st, err = d.gzkp(ctx, a, dir, cfg)
	default:
		err = fmt.Errorf("ntt: unknown strategy %d", cfg.Strategy)
	}
	if err != nil {
		return st, err
	}
	if dir == Inverse {
		if err := d.scale(ctx, a, d.NInv, cfg); err != nil {
			return st, err
		}
	}
	if reg := telemetry.FromContext(ctx).Registry(); reg != nil {
		reg.Counter("ntt.transforms").Add(1)
		reg.Counter("ntt.shuffle_ns").Add(st.ShuffleNS)
		reg.Counter("ntt.butterfly_ns").Add(st.ButterflyNS)
		sp.SetInt("butterfly_ns", st.ButterflyNS)
		if st.ShuffleNS > 0 {
			sp.SetInt("shuffle_ns", st.ShuffleNS)
		}
	}
	return st, nil
}

// Transform is TransformCtx without cancellation.
func (d *Domain) Transform(a []ff.Element, dir Direction, cfg Config) (Stats, error) {
	return d.TransformCtx(context.Background(), a, dir, cfg)
}

// NTT is shorthand for a forward transform.
func (d *Domain) NTT(a []ff.Element, cfg Config) (Stats, error) {
	return d.TransformCtx(context.Background(), a, Forward, cfg)
}

// NTTCtx is shorthand for a cancellable forward transform.
func (d *Domain) NTTCtx(ctx context.Context, a []ff.Element, cfg Config) (Stats, error) {
	return d.TransformCtx(ctx, a, Forward, cfg)
}

// INTT is shorthand for an inverse transform.
func (d *Domain) INTT(a []ff.Element, cfg Config) (Stats, error) {
	return d.TransformCtx(context.Background(), a, Inverse, cfg)
}

// INTTCtx is shorthand for a cancellable inverse transform.
func (d *Domain) INTTCtx(ctx context.Context, a []ff.Element, cfg Config) (Stats, error) {
	return d.TransformCtx(ctx, a, Inverse, cfg)
}

// CosetNTT evaluates the polynomial on the coset g·⟨ω⟩: scales
// coefficients by g^i, then transforms. Used to divide by the vanishing
// polynomial in the POLY stage (H = (A·B - C)/Z is computed on a coset
// because Z vanishes on the base domain).
func (d *Domain) CosetNTT(a []ff.Element, cfg Config) (Stats, error) {
	return d.CosetNTTCtx(context.Background(), a, cfg)
}

// CosetNTTCtx is the cancellable CosetNTT.
func (d *Domain) CosetNTTCtx(ctx context.Context, a []ff.Element, cfg Config) (Stats, error) {
	if err := d.scaleByPowers(ctx, a, d.coset, cfg); err != nil {
		return Stats{}, err
	}
	return d.TransformCtx(ctx, a, Forward, cfg)
}

// CosetINTT interpolates from coset evaluations back to coefficients.
func (d *Domain) CosetINTT(a []ff.Element, cfg Config) (Stats, error) {
	return d.CosetINTTCtx(context.Background(), a, cfg)
}

// CosetINTTCtx is the cancellable CosetINTT.
func (d *Domain) CosetINTTCtx(ctx context.Context, a []ff.Element, cfg Config) (Stats, error) {
	st, err := d.TransformCtx(ctx, a, Inverse, cfg)
	if err != nil {
		return st, err
	}
	if err := d.scaleByPowers(ctx, a, d.cosetInv, cfg); err != nil {
		return st, err
	}
	return st, nil
}

// ZOnCoset returns Z(g·ω^i) = (g·ω^i)^N - 1 = g^N - 1 (constant on the
// coset), the divisor of the POLY stage.
func (d *Domain) ZOnCoset() ff.Element {
	f := d.F
	z := f.ExpUint64(d.coset, uint64(d.N))
	f.Sub(z, z, f.One())
	return z
}

// scale multiplies every element by c.
func (d *Domain) scale(ctx context.Context, a []ff.Element, c ff.Element, cfg Config) error {
	return par.RangeErr(ctx, len(a), 0, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			d.F.Mul(a[i], a[i], c)
		}
		return nil
	})
}

// scaleByPowers multiplies a[i] by base^i.
func (d *Domain) scaleByPowers(ctx context.Context, a []ff.Element, base ff.Element, cfg Config) error {
	return par.RangeErr(ctx, len(a), 0, func(lo, hi int) error {
		f, s := d.F, d.scratch(0)
		defer d.putScratch(s)
		p := f.SetOne(s.t) // base^lo, square-and-multiply
		for b := bits.Len(uint(lo)) - 1; b >= 0; b-- {
			f.Square(p, p)
			if lo>>b&1 == 1 {
				f.Mul(p, p, base)
			}
		}
		for i := lo; i < hi; i++ {
			f.Mul(a[i], a[i], p)
			f.Mul(p, p, base)
		}
		return nil
	})
}
