package msm

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

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
	return newTable(ctx, g, points, cfg, true)
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
// explicit CheckpointInterval is honoured either way.
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
	w := g.K.Words()
	t := &Table{
		g: g, k: k, m: m, windows: nw, n: n, w: w,
		slab: make([]uint64, checkpoints*n*2*w),
		inf:  make([]bool, checkpoints*n),
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
			return nil, err
		}
		g.BatchNormalize(t.slab[2*w*c*n:2*w*(c+1)*n], t.inf[c*n:(c+1)*n], jac)
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
// ±(c·n+i+1), whose magnitude less one is the slab entry of point i's
// checkpoint c = w/M; unsigned entries are simply never negative.
func (t *Table) ComputeCtx(ctx context.Context, scalars []ff.Element, cfg Config) (curve.Affine, Stats, error) {
	return t.computeWith(ctx, scalars, cfg, affineBuckets, reduceBuckets)
}

// bucketPlan is what a bucket kernel reads of one table MSM besides the table.
type bucketPlan struct {
	m int
	// pindex holds every nonzero digit of window w as ±(e+1), e = (w/M)·n + i
	// the slab entry it reads, counting-sorted by segment s = j·M + (w mod M)
	// — bucket j, then remainder class — so segment s is
	// pindex[offsets[s]:offsets[s+1]].
	pindex  []int32
	offsets []int32
	loads   []int64 // entries per bucket (index 0 unused)
	order   []int   // buckets 1..B, heaviest first (index order under NoLoadBalance)
	cuts    []int   // the kernel's bucket groups: group g is order[cuts[g]:cuts[g+1]]
}

// segment returns the entries of bucket j's remainder class r.
func (p *bucketPlan) segment(j, r int) []int32 {
	s := j*p.m + r
	return p.pindex[p.offsets[s]:p.offsets[s+1]]
}

// bucketKernel sets sums[j·M+r] = S_{j,r}, the sum of segment (j, r)'s
// entries, for every bucket j ≥ 1 and class r, on workers drawn from ws.
type bucketKernel func(ctx context.Context, t *Table, p *bucketPlan, sums []curve.Affine, ws *workerSet, cfg Config) error

// bucketCombine returns Σ_r 2^(r·k)·Σ_j j·S_{j,r} and the doublings it
// spent, on workers drawn from ws.
type bucketCombine func(ctx context.Context, t *Table, sums []curve.Affine, ws *workerSet, cfg Config) (curve.Affine, int64, error)

// computeWith is ComputeCtx around a given bucket kernel and combine — the
// seam where the tests' Jacobian oracles (buckets_test.go) run on the same
// plan.
func (t *Table) computeWith(ctx context.Context, scalars []ff.Element, cfg Config, kernel bucketKernel, combine bucketCombine) (curve.Affine, Stats, error) {
	g, n := t.g, t.n
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
			entry := int32((w/m)*n + i + 1)
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
	plan := &bucketPlan{m: m, pindex: pindex, offsets: offsets, loads: loads, order: order}

	// --- Per-worker adders, sized for the kernel's groups and the combine's
	// lanes, and the affine slab of (bucket, class) sums between them.
	workers := cfg.workers()
	var slots, groupSegs int
	plan.cuts, slots, groupSegs = plan.groups(workers)
	chunks, _, _ := combineShape(m, numBuckets, workers)
	lanes := (chunks + workers - 1) / workers * m
	slots = max(slots, combineSlots*lanes)
	ws := &workerSet{mk: func() *bucketWorker {
		return &bucketWorker{
			add:   g.NewAffineAdder(slots),
			start: make([]int32, groupSegs), live: make([]int32, groupSegs),
		}
	}}
	w := g.K.Words()
	limbs := make([]uint64, 2*w*segs)
	sums := make([]curve.Affine, segs)
	for s := range sums {
		b := limbs[2*w*s : 2*w*(s+1)]
		sums[s] = curve.Affine{X: b[:w:w], Y: b[w:], Inf: true}
	}

	// --- Cross-window point merging, then the bucket reduction of every
	// class as batched affine running sums and one Horner chain.
	if err := kernel(ctx, t, plan, sums, ws, cfg); err != nil {
		return curve.Affine{}, Stats{}, err
	}
	ws.release()
	result, doubles, err := combine(ctx, t, sums, ws, cfg)
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
		// One add per entry; the final chain's doublings.
		PointAdds: nonzeros, Doubles: doubles,
		TableBytes:  t.Bytes() + int64(len(pindex))*4,
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

// reduceBuckets computes Σ_r 2^(r·k)·W_r with W_r = Σ_{j=1}^{B} j·S_{j,r},
// the parallel-prefix formulation of §4.1's final step, and returns it with
// the doublings it spent. combineShape cuts every class into chunks of
// 2^s buckets, and each worker takes a contiguous run of chunks across all
// M classes: a (class, chunk) pair is a lane, and all of a worker's lanes
// walk their chunks together as batched affine running sums, one shared
// inversion per bucket step (bucketWorker.runningSums). A lane over
// [a, a+2^s) leaves L = Σ (j−a+1)·S_j and R = Σ S_j, so
// W_r = Σ_c L_c + 2^s·Σ_c c·R_c. One Horner chain then takes each class in
// (M−1)·k + s doublings per MSM (s = 0 for a single chunk): its k doublings
// per step are split at s, and the running sum Σ_c c·R_c enters before the
// last s of them.
func reduceBuckets(ctx context.Context, t *Table, sums []curve.Affine, ws *workerSet, cfg Config) (curve.Affine, int64, error) {
	g, m := t.g, t.m
	numBuckets := len(sums)/m - 1 // bucket 0 unused
	workers := cfg.workers()
	chunks, shift, fold := combineShape(m, numBuckets, workers)
	items := min(workers, chunks)
	owner := make([]*bucketWorker, chunks)
	// One item per goroutine: a worker's lanes live in its adder until the
	// chain below reads them.
	err := par.StaticItemsErr(ctx, items, items, ws.take, func(bw *bucketWorker, i int) error {
		c0, c1 := i*chunks/items, (i+1)*chunks/items
		bw.runningSums(sums, m, numBuckets, 1<<shift, c0, c1)
		for c := c0; c < c1; c++ {
			owner[c] = bw
		}
		return nil
	})
	if err != nil {
		return curve.Affine{}, 0, err
	}
	lane := func(c, r int) (l, sum curve.Affine) {
		bw := owner[c]
		i := bw.lane(c, r, m)
		return bw.add.Point(i), bw.add.Point(i + 1)
	}
	ops := g.NewOps()
	var total, run curve.Jacobian
	ops.SetInfinity(&total)
	ops.SetInfinity(&run)
	var doubles int64
	double := func(times int) {
		for range times {
			ops.DoubleAssign(&total)
		}
		doubles += int64(times)
	}
	for r := m - 1; r >= 0; r-- {
		if r < m-1 {
			double(t.k - fold)
		}
		// total += Σ_c c·R_c as Σ_{c ≥ 1} (running sum of R from the top).
		ops.SetInfinity(&run)
		for c := chunks - 1; c >= 1; c-- {
			_, sum := lane(c, r)
			ops.AddMixedAssign(&run, sum)
			ops.AddAssign(&total, &run)
		}
		double(fold)
		for c := 0; c < chunks; c++ {
			l, _ := lane(c, r)
			ops.AddMixedAssign(&total, l)
		}
	}
	return ops.ToAffine(&total), doubles, nil
}
