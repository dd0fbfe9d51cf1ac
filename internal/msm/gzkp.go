package msm

import (
	"context"
	"fmt"
	"math/bits"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/par"
	"gzkp/internal/telemetry"
)

// Table holds GZKP's checkpoint-preprocessed weighted points (§4.1,
// Algorithm 1). For window index t, the weighted point 2^(t·k)·Pᵢ is
// reconstructed from checkpoint c = t/M as 2^((t mod M)·k)·Pᵢ^(c), where
// level c holds Pᵢ^(c) = 2^(c·M·k)·Pᵢ: larger M trades doublings at merge
// time for table memory — exactly the knob Fig. 9 shows (GZKP-BLS memory
// plateaus once M starts growing).
//
// The table depends only on the point vector (fixed at ZKP setup), so it is
// built once and reused across proofs; Compute excludes its cost, matching
// the paper's measurement protocol. The table owns its points: level 0 is a
// copy of the input, so a caller may reuse its vector.
type Table struct {
	g       *curve.Group
	k       int
	m       int // checkpoint interval M
	windows int
	n, w    int // points per level, words per coordinate
	// slab holds every level in one pointer-free vector: entry e = c·n + i
	// is Pᵢ^(c), stored as x‖y at slab[2w·e : 2w·(e+1)] — an AffineAdder
	// slot's layout — and inf[e] marks it the point at infinity.
	slab []uint64
	inf  []bool
	kept bool // built to outlive one MSM (newTable)
}

// point returns slab entry e as x‖y and whether it is the point at
// infinity: the gather the bucket kernel (and its test oracle) runs.
func (t *Table) point(e int) (xy []uint64, inf bool) {
	return t.slab[2*t.w*e : 2*t.w*(e+1)], t.inf[e]
}

// PreprocessBytes returns the table memory for given parameters without
// building it (used by the Fig. 9 model).
func PreprocessBytes(coordWords, n, k, m, scalarBits int) int64 {
	nw := (scalarBits + k - 1) / k
	checkpoints := (nw + m - 1) / m
	return int64(checkpoints) * int64(n) * int64(2*coordWords*8)
}

// AutoCheckpoint picks the smallest M whose table fits the budget.
func AutoCheckpoint(coordWords, n, k, scalarBits int, budget int64) int {
	nw := (scalarBits + k - 1) / k
	for m := 1; m < nw; m++ {
		if PreprocessBytes(coordWords, n, k, m, scalarBits) <= budget {
			return m
		}
	}
	return nw // single checkpoint: just the original points
}

// Preprocess is PreprocessCtx without cancellation.
func Preprocess(g *curve.Group, points []curve.Affine, cfg Config) (*Table, error) {
	return PreprocessCtx(context.Background(), g, points, cfg)
}

// PreprocessCtx builds the weighted-point table for a point vector that the
// caller keeps: a zero cfg.CheckpointInterval takes the smallest M whose
// table fits cfg.MemoryBudget.
func PreprocessCtx(ctx context.Context, g *curve.Group, points []curve.Affine, cfg Config) (*Table, error) {
	sp, ctx := telemetry.StartSpan(ctx, "msm preprocess")
	sp.SetInt("n", int64(len(points)))
	defer sp.End()
	return newTable(ctx, g, points, cfg, true, nil)
}

// buildRows is the rows of the build's Jacobian scratch a worker doubles
// per item. Rows are written in place by every doubling, and a BN254 G1 row
// is 96 B, so single-row items would put two workers on one cache line;
// 16 rows are a whole number of 64 B lines for every coordinate width.
const buildRows = 16

// newTable builds a table over points. kept says whether the table
// outlives one MSM call: only then is a zero cfg.CheckpointInterval derived
// from the budget. A one-shot table takes M = windows, a single checkpoint
// that is a copy of the input, so nothing is doubled or converted. An
// explicit CheckpointInterval is honoured either way. into, if set, holds
// a one-checkpoint table.
func newTable(ctx context.Context, g *curve.Group, points []curve.Affine, cfg Config, kept bool, into *Table) (*Table, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("msm: empty point vector")
	}
	k := windowBits(n, cfg.WindowBits, cfg.SignedBuckets)
	l := g.Fr.Bits()
	if cfg.SignedBuckets && l%k == 0 {
		// Signed recoding carries out of the top window only when k divides
		// the scalar bit length; nudge k to the nearest non-dividing size so
		// the carry window is provably empty and the table stays exact.
		for d := 1; d < 16; d++ {
			if k+d <= 16 && l%(k+d) != 0 {
				k += d
				break
			}
			if k-d >= 2 && l%(k-d) != 0 {
				k -= d
				break
			}
		}
	}
	nw := (l + k - 1) / k
	if err := guardIndexWidth(n, nw); err != nil {
		return nil, err
	}
	m := cfg.CheckpointInterval
	if m <= 0 && kept {
		budget := cfg.MemoryBudget
		if budget <= 0 {
			budget = 1 << 30
		}
		m = AutoCheckpoint(g.K.Words(), n, k, l, budget)
	}
	if m <= 0 || m > nw {
		m = nw
	}
	checkpoints := (nw + m - 1) / m
	w := g.K.Words()
	t := into
	if t == nil || checkpoints > 1 {
		t = &Table{}
	}
	*t = Table{
		g: g, k: k, m: m, windows: nw, n: n, w: w, kept: kept,
		slab: grow(t.slab, checkpoints*n*2*w),
		inf:  grow(t.inf, checkpoints*n),
	}
	for i, p := range points {
		if t.inf[i] = p.Inf; !p.Inf {
			copy(t.slab[2*w*i:], p.X)
			copy(t.slab[2*w*i+w:], p.Y)
		}
	}
	if checkpoints == 1 {
		return t, nil
	}
	// Level c from level c−1: M·k doublings per point into one Jacobian
	// scratch of n X‖Y‖Z rows, then one batch normalisation into the slab.
	jac := make([]uint64, 3*w*n)
	levels := func(ctx context.Context) error {
		for c := 1; c < checkpoints; c++ {
			prev := (c - 1) * n
			err := par.ItemsErr(ctx, (n+buildRows-1)/buildRows, cfg.workers(), g.NewOps,
				func(ops *curve.Ops, item int) error {
					for i := item * buildRows; i < min((item+1)*buildRows, n); i++ {
						b := jac[3*w*i : 3*w*(i+1)]
						acc := curve.Jacobian{X: b[:w:w], Y: b[w : 2*w : 2*w], Z: b[2*w:]}
						xy, inf := t.point(prev + i)
						ops.FromAffine(&acc, curve.Affine{X: xy[:w], Y: xy[w:], Inf: inf})
						for d := 0; d < m*k; d++ {
							ops.DoubleAssign(&acc)
						}
					}
					return nil
				})
			if err != nil {
				return err
			}
			g.BatchNormalize(t.slab[2*w*c*n:2*w*(c+1)*n], t.inf[c*n:(c+1)*n], jac)
		}
		return nil
	}
	// Every level is a fan of one scope, opened here.
	err := par.Run(ctx, cfg.workers(), func(ctx context.Context, _ *par.List) error { return levels(ctx) })
	if err != nil {
		return nil, err
	}
	return t, nil
}

// WindowBits returns k; Checkpoint returns M; Bytes the table memory.
func (t *Table) WindowBits() int { return t.k }
func (t *Table) Checkpoint() int { return t.m }
func (t *Table) Bytes() int64    { return int64(len(t.slab)) * 8 }

// Compute is ComputeCtx without cancellation.
func (t *Table) Compute(scalars []ff.Element, cfg Config) (curve.Affine, Stats, error) {
	return t.ComputeCtx(context.Background(), scalars, cfg)
}

// ComputeCtx runs the GZKP MSM for one scalar vector against the table, as
// one task list on cfg.workers() workers: the plan — bucket-info
// construction, a counting sort of all (window, point) pairs by digit —
// then cross-window point merging in load-grouped bucket groups, and the
// parallel-prefix bucket reduction of each remainder class, combined by one
// Horner chain. At M = 1 no window-reduction step remains. ctx is checked
// at task boundaries.
//
// cfg.SignedBuckets picks the digit recoding, nothing else: unsigned digits
// (the paper's Algorithm 1 setting) fill buckets j ∈ [1, 2^k); signed digits
// in [-2^(k-1), 2^(k-1)] fill buckets |d| ∈ [1, 2^(k-1)] and merge negative
// digits as the negated point. The sign rides in the p_index entry
// ±(c·n+i+1), whose magnitude less one is the slab entry of point i's
// checkpoint c = w/M; unsigned entries are simply never negative.
func (t *Table) ComputeCtx(ctx context.Context, scalars []ff.Element, cfg Config) (curve.Affine, Stats, error) {
	if len(scalars) != t.n {
		return curve.Affine{}, Stats{}, fmt.Errorf("msm: %d scalars for %d-point table", len(scalars), t.n)
	}
	var res Result
	err := par.Run(ctx, cfg.workers(), func(ctx context.Context, l *par.List) error {
		return NewTasks(l, cfg).Add(ctx, scalars, Job{Table: t, Out: &res})
	})
	return res.Point, res.Stats, err
}

// stats is the Stats of one MSM of p against t (Fig. 6's histogram and
// spread) whose combine spent doubles doublings.
func (t *Table) stats(p *plan, doubles int64) Stats {
	var maxLoad, minLoad int64
	for _, l := range p.loads[1:] {
		maxLoad = max(maxLoad, l)
		if l > 0 && (minLoad == 0 || l < minLoad) {
			minLoad = l
		}
	}
	spread := 0.0
	if minLoad > 0 {
		spread = float64(maxLoad) / float64(minLoad)
	}
	g, nonzeros := t.g, int64(len(p.pindex))
	return Stats{
		WindowBits: t.k, Windows: t.windows, Checkpoint: t.m,
		Buckets: len(p.loads) - 1, Signed: p.signed,
		// One add per entry; the final chain's doublings.
		PointAdds: nonzeros, Doubles: doubles,
		TableBytes:  t.Bytes() + nonzeros*4,
		BucketLoads: p.loads, LoadSpread: spread,
		ZeroDigits: int64(t.n*t.windows) - nonzeros, NonzeroDigit: nonzeros,
		// Table-point loads per nonzero digit, one canonical scalar read
		// per input, and the bucket-index array written then re-read.
		TrafficBytes: nonzeros*pointBytes(g) +
			int64(t.n)*int64(g.Fr.Limbs()*8) +
			nonzeros*8,
	}
}

// combineLanes is the number of lanes per worker the combine aims for, so
// that a step's shared inversion is spread over at least 2·combineLanes
// affine adds; combineSlots is the adder slots a lane takes, three points
// plus room for its two queued slopes.
const (
	combineLanes = 16
	combineSlots = 4
)

// combineShape cuts buckets 1..B of every class into chunks of 2^shift
// buckets: about one chunk per worker, halved until the M·chunks lanes give
// each worker combineLanes of them or a chunk is one bucket. fold is the
// doublings the chunks' tails add to the Horner chain: shift, or 0 when a
// single chunk leaves no tail.
func combineShape(m, numBuckets, workers int) (chunks, shift, fold int) {
	shift = bits.Len(uint((numBuckets+workers-1)/workers - 1))
	for shift > 0 && m*((numBuckets-1)>>shift+1) < combineLanes*workers {
		shift--
	}
	if chunks = (numBuckets-1)>>shift + 1; chunks > 1 {
		fold = shift
	}
	return chunks, shift, fold
}

// chain computes Σ_r 2^(r·k)·W_r with W_r = Σ_{j=1}^{B} j·S_{j,r}, the
// parallel-prefix formulation of §4.1's final step, from the combine's
// lanes, and returns it with the doublings it spent. combineShape cuts
// every class into chunks of 2^s buckets; a (class, chunk) pair is a lane,
// and the lane of chunk c over [a, a+2^s) of class r left
// L = Σ (j−a+1)·S_j in lanes[2(c·M+r)] and R = Σ S_j after it (see
// bucketWorker.runningSums), so W_r = Σ_c L_c + 2^s·Σ_c c·R_c. One Horner
// chain then takes each class in (M−1)·k + s doublings per MSM (s = 0 for
// a single chunk): its k doublings per step are split at s, and the
// running sum Σ_c c·R_c enters before the last s of them.
func (t *Table) chain(bw *bucketWorker, lanes []curve.Affine, chunks, fold int) (curve.Affine, int64) {
	m, ops, total, run := t.m, bw.ops, &bw.total, &bw.run
	ops.SetInfinity(total)
	var doubles int64
	double := func(times int) {
		for range times {
			ops.DoubleAssign(total)
		}
		doubles += int64(times)
	}
	for r := m - 1; r >= 0; r-- {
		if r < m-1 {
			double(t.k - fold)
		}
		// total += Σ_c c·R_c as Σ_{c ≥ 1} (running sum of R from the top).
		ops.SetInfinity(run)
		for c := chunks - 1; c >= 1; c-- {
			ops.AddMixedAssign(run, lanes[2*(c*m+r)+1])
			ops.AddAssign(total, run)
		}
		double(fold)
		for c := 0; c < chunks; c++ {
			ops.AddMixedAssign(total, lanes[2*(c*m+r)])
		}
	}
	return ops.ToAffine(total), doubles
}
