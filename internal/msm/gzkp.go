package msm

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/par"
	"gzkp/internal/telemetry"
)

// Table holds GZKP's checkpoint-preprocessed weighted points (§4.1,
// Algorithm 1). For window index t, the weighted point 2^(t·k)·Pᵢ is
// reconstructed from checkpoint c = t/M as 2^((t mod M)·k)·pre[c][i]:
// larger M trades doublings at merge time for table memory — exactly the
// knob Fig. 9 shows (GZKP-BLS memory plateaus once M starts growing).
//
// The table depends only on the point vector (fixed at ZKP setup), so it is
// built once and reused across proofs; Compute excludes its cost, matching
// the paper's measurement protocol.
type Table struct {
	g       *curve.Group
	k       int
	m       int // checkpoint interval M
	windows int
	pre     [][]curve.Affine // pre[c][i] = 2^(c·M·k)·Pᵢ; pre[0] aliases the input
	bytes   int64
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
	return newTable(ctx, g, points, cfg, true)
}

// newTable lays out a table over points. kept says whether the table
// outlives one MSM call: only then is a zero cfg.CheckpointInterval derived
// from the budget. A one-shot table takes M = windows, a single checkpoint
// that is the input itself, so nothing is doubled or converted. An explicit
// CheckpointInterval is honoured either way.
func newTable(ctx context.Context, g *curve.Group, points []curve.Affine, cfg Config, kept bool) (*Table, error) {
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
	t := &Table{
		g: g, k: k, m: m, windows: nw,
		pre:   make([][]curve.Affine, checkpoints),
		bytes: PreprocessBytes(g.K.Words(), n, k, m, l),
	}
	t.pre[0] = points
	for c := 1; c < checkpoints; c++ {
		prev := t.pre[c-1]
		next := make([]curve.Jacobian, n)
		err := par.ItemsErr(ctx, n, cfg.workers(), g.NewOps,
			func(ops *curve.Ops, i int) error {
				var acc curve.Jacobian
				ops.FromAffine(&acc, prev[i])
				for d := 0; d < m*k; d++ {
					ops.DoubleAssign(&acc)
				}
				next[i] = acc
				return nil
			})
		if err != nil {
			return nil, err
		}
		t.pre[c] = g.BatchToAffine(next)
	}
	return t, nil
}

// WindowBits returns k; Checkpoint returns M; Bytes the table memory.
func (t *Table) WindowBits() int { return t.k }
func (t *Table) Checkpoint() int { return t.m }
func (t *Table) Bytes() int64    { return t.bytes }

// Compute is ComputeCtx without cancellation.
func (t *Table) Compute(scalars []ff.Element, cfg Config) (curve.Affine, Stats, error) {
	return t.ComputeCtx(context.Background(), scalars, cfg)
}

// ComputeCtx runs the GZKP MSM for one scalar vector against the table:
// bucket-info construction (counting sort of all (window, point) pairs by
// digit), cross-window point merging with load-grouped scheduling, and the
// parallel-prefix bucket reduction of each remainder class, combined by one
// Horner chain. At M = 1 no window-reduction step remains. ctx is checked
// at bucket-group boundaries.
//
// cfg.SignedBuckets picks the digit recoding, nothing else: unsigned digits
// (the paper's Algorithm 1 setting) fill buckets j ∈ [1, 2^k); signed digits
// in [-2^(k-1), 2^(k-1)] fill buckets |d| ∈ [1, 2^(k-1)] and merge negative
// digits as the negated point. The sign rides in the p_index entry
// (±(w·n+i+1)); unsigned entries are simply never negative.
func (t *Table) ComputeCtx(ctx context.Context, scalars []ff.Element, cfg Config) (curve.Affine, Stats, error) {
	return t.computeWith(ctx, scalars, cfg, affineBuckets)
}

// bucketPlan is what a bucket kernel reads of one table MSM besides the table.
type bucketPlan struct {
	n, m int
	// pindex holds every nonzero digit as ±(w·n+i+1), counting-sorted by
	// segment s = j·M + (w mod M) — bucket j, then remainder class — so
	// segment s is pindex[offsets[s]:offsets[s+1]].
	pindex  []int32
	offsets []int32
	loads   []int64 // entries per bucket (index 0 unused)
	order   []int   // buckets 1..B, heaviest first (index order under NoLoadBalance)
}

// segment returns the entries of bucket j's remainder class r.
func (p *bucketPlan) segment(j, r int) []int32 {
	s := j*p.m + r
	return p.pindex[p.offsets[s]:p.offsets[s+1]]
}

// bucketKernel sets buckets[j·M+r] = S_{j,r}, the sum of segment (j, r)'s
// entries, for every bucket j ≥ 1 and class r.
type bucketKernel func(ctx context.Context, t *Table, p *bucketPlan, buckets []curve.Jacobian, cfg Config) error

// computeWith is ComputeCtx around a given bucket kernel — the seam where
// the tests' mixed-add oracle (buckets_test.go) runs on the same plan.
func (t *Table) computeWith(ctx context.Context, scalars []ff.Element, cfg Config, kernel bucketKernel) (curve.Affine, Stats, error) {
	g := t.g
	n := len(t.pre[0])
	if len(scalars) != n {
		return curve.Affine{}, Stats{}, fmt.Errorf("msm: %d scalars for %d-point table", len(scalars), n)
	}
	signed := cfg.SignedBuckets
	if l := g.Fr.Bits(); signed && l%t.k == 0 {
		return curve.Affine{}, Stats{}, fmt.Errorf("msm: signed buckets need k ∤ %d (scalar bits); table has k=%d — rebuild with SignedBuckets set", l, t.k)
	}
	sp, ctx := telemetry.StartSpan(ctx, "msm")
	sp.SetStr("strategy", GZKP.String())
	sp.SetInt("n", int64(n))
	defer sp.End()
	dg := newDigits(g.Fr, scalars, t.k)
	if dg.windows != t.windows {
		return curve.Affine{}, Stats{}, fmt.Errorf("msm: window mismatch: table %d, scalars %d", t.windows, dg.windows)
	}
	dm := recodeDigits(dg, signed)
	numBuckets := bucketCount(t.k, signed)
	m := t.m

	// --- Bucket-info (p_index) construction: counting sort by segment.
	segs := (numBuckets + 1) * m
	offsets := make([]int32, segs+1)
	loads := make([]int64, numBuckets+1)
	var zeros, nonzeros int64
	for i := 0; i < n; i++ {
		if signed && dm.digit(i, t.windows) != 0 {
			return curve.Affine{}, Stats{}, fmt.Errorf("msm: signed recoding carried out of the top window (internal error)")
		}
		for w := 0; w < t.windows; w++ {
			d := dm.digit(i, w)
			if d == 0 {
				zeros++
				continue
			}
			if d < 0 {
				d = -d
			}
			offsets[int(d)*m+w%m+1]++
			loads[d]++
			nonzeros++
		}
	}
	for s := 1; s <= segs; s++ {
		offsets[s] += offsets[s-1]
	}
	pindex := make([]int32, nonzeros)
	fill := make([]int32, segs)
	copy(fill, offsets)
	for i := 0; i < n; i++ {
		for w := 0; w < t.windows; w++ {
			d := dm.digit(i, w)
			if d == 0 {
				continue
			}
			entry := int32(w*n + i + 1)
			if d < 0 {
				d, entry = -d, -entry
			}
			s := int(d)*m + w%m
			pindex[fill[s]] = entry
			fill[s]++
		}
	}

	// --- Scheduling order: group buckets by load, heaviest first (§4.2).
	order := make([]int, numBuckets)
	for j := range order {
		order[j] = j + 1
	}
	if !cfg.NoLoadBalance {
		sort.Slice(order, func(a, b int) bool {
			return loads[order[a]] > loads[order[b]]
		})
	}
	plan := &bucketPlan{n: n, m: m, pindex: pindex, offsets: offsets, loads: loads, order: order}

	// --- Cross-window point merging into one (bucket, class) slab.
	w := g.K.Words()
	limbs := make([]uint64, 3*w*segs)
	buckets := make([]curve.Jacobian, segs)
	for s := range buckets {
		b := limbs[3*w*s : 3*w*(s+1)]
		buckets[s] = curve.Jacobian{X: b[:w:w], Y: b[w : 2*w : 2*w], Z: b[2*w:]} // Z = 0: O
	}
	if err := kernel(ctx, t, plan, buckets, cfg); err != nil {
		return curve.Affine{}, Stats{}, err
	}

	// --- Parallel-prefix bucket reduction per class, then one Horner chain.
	result, err := t.reduceBuckets(ctx, buckets, cfg)
	if err != nil {
		return curve.Affine{}, Stats{}, err
	}

	// --- Stats (Fig. 6's histogram and spread).
	var maxLoad, minLoad int64
	for _, l := range loads[1:] {
		maxLoad = max(maxLoad, l)
		if l > 0 && (minLoad == 0 || l < minLoad) {
			minLoad = l
		}
	}
	spread := 0.0
	if minLoad > 0 {
		spread = float64(maxLoad) / float64(minLoad)
	}
	st := Stats{
		WindowBits: t.k, Windows: t.windows, Checkpoint: m,
		Buckets: numBuckets, Signed: signed,
		// One add per entry; k doublings per step of the final chain.
		PointAdds: nonzeros, Doubles: int64((m - 1) * t.k),
		TableBytes:  t.bytes + int64(len(pindex))*4,
		BucketLoads: loads, LoadSpread: spread,
		ZeroDigits: zeros, NonzeroDigit: nonzeros,
		// Table-point loads per nonzero digit, one canonical scalar read
		// per input, and the bucket-index array written then re-read.
		TrafficBytes: nonzeros*pointBytes(g) +
			int64(n)*int64(g.Fr.Limbs()*8) +
			int64(len(pindex))*8,
	}
	recordMSM(ctx, sp, st)
	return result, st, nil
}

// reduceBuckets computes Σ_r 2^(r·k)·W_r with W_r = Σ_{j=1}^{B} j·S_{j,r}.
// Each class is cut into chunks, and chunk [a,b) contributes
// Σ (j-a+1)·S_j + (a-1)·Σ S_j, built with the running-sum trick and one
// small scalar multiple — the parallel-prefix formulation of §4.1's final
// step, run over (class, chunk) items. One Horner chain over the classes
// then costs (M-1)·k doublings per MSM.
func (t *Table) reduceBuckets(ctx context.Context, buckets []curve.Jacobian, cfg Config) (curve.Affine, error) {
	g, m := t.g, t.m
	numBuckets := len(buckets)/m - 1 // bucket 0 unused
	workers := cfg.workers()
	chunks := min(max((workers*4+m-1)/m, 1), numBuckets) // per class
	size := (numBuckets + chunks - 1) / chunks
	partial := make([]curve.Jacobian, m*chunks)
	err := par.ItemsErr(ctx, len(partial), workers, g.NewOps,
		func(ops *curve.Ops, item int) error {
			r, c := item/chunks, item%chunks
			a := 1 + c*size
			b := min(a+size, numBuckets+1)
			if a >= b {
				ops.SetInfinity(&partial[item])
				return nil
			}
			var running, local curve.Jacobian
			ops.SetInfinity(&running)
			ops.SetInfinity(&local)
			for j := b - 1; j >= a; j-- {
				ops.AddAssign(&running, &buckets[j*m+r])
				ops.AddAssign(&local, &running)
			}
			// local = Σ (j-a+1)·S_j; add (a-1)·running.
			if a > 1 {
				scaled := ops.ScalarMul(ops.ToAffine(&running), big.NewInt(int64(a-1)))
				ops.AddAssign(&local, scaled)
			}
			partial[item] = local
			return nil
		})
	if err != nil {
		return curve.Affine{}, err
	}
	ops := g.NewOps()
	var total curve.Jacobian
	ops.SetInfinity(&total)
	for r := m - 1; r >= 0; r-- {
		if r < m-1 {
			for d := 0; d < t.k; d++ {
				ops.DoubleAssign(&total)
			}
		}
		for c := 0; c < chunks; c++ {
			ops.AddAssign(&total, &partial[r*chunks+c])
		}
	}
	return ops.ToAffine(&total), nil
}
