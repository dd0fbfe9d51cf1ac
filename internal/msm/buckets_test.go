package msm

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/par"
)

// bucketKernel sets sums[j·M+r] = S_{j,r}, the sum of segment (j, r)'s
// entries, for every bucket j ≥ 1 and class r; bucketCombine returns
// Σ_r 2^(r·k)·Σ_j j·S_{j,r} and the doublings it spent. They are the seam
// where the Jacobian oracles below run on the production plan.
type (
	bucketKernel  func(ctx context.Context, t *Table, p *plan, sums []curve.Affine, cfg Config) error
	bucketCombine func(ctx context.Context, t *Table, sums []curve.Affine, cfg Config) (curve.Affine, int64, error)
)

// buildTestPlan builds t's plan of scalars on a task list of its own.
func buildTestPlan(ctx context.Context, t *Table, scalars []ff.Element, cfg Config) (*plan, error) {
	var p *plan
	err := par.Run(ctx, cfg.workers(), func(_ context.Context, l *par.List) error {
		buildPlan(l, t.g.Fr, scalars, t.geometry(cfg.SignedBuckets), cfg, &plan{}, func(q *plan) { p = q })
		return nil
	})
	return p, err
}

// computeWith is ComputeCtx's plan around a given bucket kernel and
// combine, with ComputeCtx's Stats.
func (t *Table) computeWith(ctx context.Context, scalars []ff.Element, cfg Config, kernel bucketKernel, combine bucketCombine) (curve.Affine, Stats, error) {
	p, err := buildTestPlan(ctx, t, scalars, cfg)
	if err != nil {
		return curve.Affine{}, Stats{}, err
	}
	sums := newPoints(t.g, len(p.offsets)-1)
	if err := kernel(ctx, t, p, sums, cfg); err != nil {
		return curve.Affine{}, Stats{}, err
	}
	res, doubles, err := combine(ctx, t, sums, cfg)
	if err != nil {
		return curve.Affine{}, Stats{}, err
	}
	return res, t.stats(p, doubles), nil
}

// mixedAddBuckets is the bucket loop the affine kernel replaced — one
// Jacobian mixed add (or subtraction, for a negative digit) per entry into
// a per-remainder-class accumulator, one task per bucket — kept as the
// differential oracle for the kernel's per-class sums.
func mixedAddBuckets(ctx context.Context, t *Table, p *plan, sums []curve.Affine, cfg Config) error {
	merge := func(ops *curve.Ops, j int) error {
		subs := make([]curve.Jacobian, p.m)
		for r := range subs {
			ops.SetInfinity(&subs[r])
			for _, raw := range p.segment(j, r) {
				neg := raw < 0
				if neg {
					raw = -raw
				}
				xy, inf := t.point(int(raw) - 1)
				if pt := (curve.Affine{X: xy[:t.w], Y: xy[t.w:], Inf: inf}); neg {
					ops.SubMixedAssign(&subs[r], pt)
				} else {
					ops.AddMixedAssign(&subs[r], pt)
				}
			}
			pt, sum := ops.ToAffine(&subs[r]), &sums[j*p.m+r]
			copy(sum.X, pt.X)
			copy(sum.Y, pt.Y)
			sum.Inf = pt.Inf
		}
		return nil
	}
	return par.ItemsErr(ctx, len(p.order), cfg.workers(), t.g.NewOps,
		func(ops *curve.Ops, pos int) error { return merge(ops, p.order[pos]) })
}

// jacobianCombine is the bucket reduction the affine combine replaced,
// kept as the differential oracle for its running sums: each class is cut into
// chunks, and chunk [a,b) contributes Σ (j-a+1)·S_j + (a-1)·Σ S_j, built
// with Jacobian running sums and one scalar multiple per (class, chunk)
// item; one Horner chain over the classes costs (M-1)·k doublings.
func jacobianCombine(ctx context.Context, t *Table, sums []curve.Affine, cfg Config) (curve.Affine, int64, error) {
	g, m := t.g, t.m
	numBuckets := len(sums)/m - 1 // bucket 0 unused
	workers := cfg.workers()
	chunks := min(max((workers*4+m-1)/m, 1), numBuckets) // per class
	size := (numBuckets + chunks - 1) / chunks
	partial := make([]curve.Jacobian, m*chunks)
	err := par.ItemsErr(ctx, len(partial), workers, g.NewOps,
		func(ops *curve.Ops, item int) error {
			r, c := item/chunks, item%chunks
			a := 1 + c*size
			b := min(a+size, numBuckets+1)
			var running, local curve.Jacobian
			ops.SetInfinity(&running)
			ops.SetInfinity(&local)
			for j := b - 1; j >= a; j-- {
				ops.AddMixedAssign(&running, sums[j*m+r])
				ops.AddAssign(&local, &running)
			}
			// local = Σ (j-a+1)·S_j; add (a-1)·running.
			if a > 1 && a < b {
				scaled := ops.ScalarMul(ops.ToAffine(&running), big.NewInt(int64(a-1)))
				ops.AddAssign(&local, scaled)
			}
			partial[item] = local
			return nil
		})
	if err != nil {
		return curve.Affine{}, 0, err
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
	return ops.ToAffine(&total), int64((m - 1) * t.k), nil
}

// checkKernel runs one table MSM through the bucket kernel and combine and
// through their Jacobian oracles (mixed-add buckets, per-class chunked
// running sums), and requires identical results and identical counters
// (PointAdds, BucketLoads, LoadSpread, digit counts, TableBytes) but
// Doubles, which TestBucketKernelCounters pins. A non-nil want is the
// Reference result both must equal.
func checkKernel(t testing.TB, table *Table, scalars []ff.Element, cfg Config, want *curve.Affine, what string) Stats {
	t.Helper()
	g := table.g
	got, gs, err := table.ComputeCtx(context.Background(), scalars, cfg)
	if err != nil {
		t.Fatalf("%s: kernel: %v", what, err)
	}
	orc, os, err := table.computeWith(context.Background(), scalars, cfg, mixedAddBuckets, jacobianCombine)
	if err != nil {
		t.Fatalf("%s: oracle: %v", what, err)
	}
	if !g.EqualAffine(got, orc) {
		t.Fatalf("%s: kernel and combine disagree with the Jacobian oracles", what)
	}
	if want != nil && !g.EqualAffine(got, *want) {
		t.Fatalf("%s: kernel disagrees with Reference", what)
	}
	os.Doubles = gs.Doubles // each combine counts its own chain
	if !reflect.DeepEqual(gs, os) {
		t.Fatalf("%s: counters differ\nkernel %+v\noracle %+v", what, gs, os)
	}
	return gs
}

func referenceMSM(t testing.TB, g *curve.Group, points []curve.Affine, scalars []ff.Element) *curve.Affine {
	t.Helper()
	want, _, err := Compute(g, points, scalars, Config{Strategy: Reference})
	if err != nil {
		t.Fatal(err)
	}
	return &want
}

// TestBatchAffineBucketPath: the affine bucket kernel ≡ the mixed-add
// oracle ≡ Reference across dense and sparse scalars, checkpoint intervals
// (which split buckets into remainder classes), both digit recodings and
// both schedules, in G1 and G2 of both pairing curves.
func TestBatchAffineBucketPath(t *testing.T) {
	for _, id := range []curve.ID{curve.BN254, curve.BLS12381} {
		for gi, g := range []*curve.Group{curve.Get(id).G1, curve.Get(id).G2} {
			n := 400
			if id != curve.BN254 || gi == 1 {
				n = 96
			}
			for _, sparse := range []float64{0, 0.7} {
				points, scalars := testVectors(g, n, 37, sparse)
				want := referenceMSM(t, g, points, scalars)
				for _, m := range []int{1, 3} {
					for _, signed := range []bool{false, true} {
						cfg := Config{Strategy: GZKP, CheckpointInterval: m, WindowBits: 6, SignedBuckets: signed}
						table, err := Preprocess(g, points, cfg)
						if err != nil {
							t.Fatal(err)
						}
						for _, nolb := range []bool{false, true} {
							cfg.NoLoadBalance = nolb
							checkKernel(t, table, scalars, cfg, want, g.Name)
						}
					}
				}
			}
		}
	}
}

// TestBucketKernelCounters pins the counters msm.point_adds and
// msm.doubles are built from — one add per entry, (M-1)·k + s doublings
// per MSM in the final chain — and the digit/load statistics to the
// oracle's, case by case.
func TestBucketKernelCounters(t *testing.T) {
	g := curve.Get(curve.BN254).G1
	for _, c := range []struct {
		name   string
		sparse float64
		cfg    Config
	}{
		{"dense unsigned M=1", 0, Config{WindowBits: 8}},
		{"dense signed M=1", 0, Config{WindowBits: 9, SignedBuckets: true}},
		{"sparse signed M=1", 0.8, Config{WindowBits: 9, SignedBuckets: true}},
		{"dense unsigned M=3", 0, Config{WindowBits: 8, CheckpointInterval: 3}},
		{"sparse signed M=4 no-LB", 0.6, Config{WindowBits: 7, SignedBuckets: true, CheckpointInterval: 4, NoLoadBalance: true}},
		{"dense signed M=nw", 0, Config{WindowBits: 5, SignedBuckets: true, CheckpointInterval: 1 << 10}},
	} {
		points, scalars := testVectors(g, 300, 73, c.sparse)
		table, err := Preprocess(g, points, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := checkKernel(t, table, scalars, c.cfg, nil, c.name)
		if st.PointAdds != st.NonzeroDigit {
			t.Fatalf("%s: %d adds for %d entries", c.name, st.PointAdds, st.NonzeroDigit)
		}
		_, _, fold := combineShape(table.m, bucketCount(table.k, c.cfg.SignedBuckets), c.cfg.workers())
		if want := int64((table.m-1)*table.k + fold); st.Doubles != want {
			t.Fatalf("%s: %d doublings at M=%d k=%d, want %d", c.name, st.Doubles, table.m, table.k, want)
		}
	}
}

// TestOneShotMatchesTabled: an MSM with no kept table — M = windows, the
// input as its only checkpoint — ≡ the same MSM against a kept M = 1 table
// ≡ Reference, on G1 and G2 of both pairing curves, both recodings, dense
// and sparse scalars, and on the combine's degenerate steps: empty
// buckets, a running sum that cancels or doubles, fewer chunks than
// workers, and kept-table chunks with tails.
func TestOneShotMatchesTabled(t *testing.T) {
	for _, id := range []curve.ID{curve.BN254, curve.BLS12381} {
		for _, g := range []*curve.Group{curve.Get(id).G1, curve.Get(id).G2} {
			oneShotDegenerate(t, g)
			for _, n := range []int{1, 2, 63, 256} {
				for _, signed := range []bool{false, true} {
					cfg := Config{Strategy: GZKP, SignedBuckets: signed}
					var table *Table
					for _, sparse := range []float64{0, 0.7} {
						points, scalars := testVectors(g, n, 59, sparse) // same points for both
						if table == nil {
							kept := cfg
							kept.CheckpointInterval = 1
							var err error
							if table, err = Preprocess(g, points, kept); err != nil {
								t.Fatal(err)
							}
						}
						what := fmt.Sprintf("%s n=%d signed=%v sparse=%v", g.Name, n, signed, sparse)
						got, st, err := Compute(g, points, scalars, cfg)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						if st.Checkpoint != st.Windows {
							t.Fatalf("%s: one-shot MSM ran at M=%d, want M = windows = %d", what, st.Checkpoint, st.Windows)
						}
						tabled, _, err := table.Compute(scalars, cfg)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						if want := referenceMSM(t, g, points, scalars); !g.EqualAffine(got, *want) || !g.EqualAffine(tabled, *want) {
							t.Fatalf("%s: one-shot / tabled / Reference disagree", what)
						}
					}
				}
			}
		}
	}
}

// oneShotDegenerate checks one-shot ≡ kept M = 1 ≡ Reference ≡ the
// Jacobian oracles where the combine's lanes meet their corner cases.
// Buckets 2 and 1 of window 0 hold P and −P, so a running sum cancels, or
// P and P, so it doubles; every other bucket is empty. k = 2 leaves fewer
// chunks than 8 workers, and a kept M = 1 table at the default k has many
// chunks per class, each past the first with a tail.
func oneShotDegenerate(t *testing.T, g *curve.Group) {
	t.Helper()
	p := kernelBases(g)[1]
	two, one := g.Fr.FromUint64(2), g.Fr.One()
	for _, in := range []struct {
		name    string
		points  []curve.Affine
		scalars []ff.Element
	}{
		{"running sum cancels", []curve.Affine{p, g.NegAffine(p)}, []ff.Element{two, one}},
		{"running sum doubles", []curve.Affine{p, p}, []ff.Element{two, one}},
		{"single entry", []curve.Affine{p}, []ff.Element{two}},
	} {
		want := referenceMSM(t, g, in.points, in.scalars)
		for _, workers := range []int{1, 2, 8} {
			for _, k := range []int{0, 2} {
				for _, signed := range []bool{false, true} {
					what := fmt.Sprintf("%s %s workers=%d k=%d signed=%v", g.Name, in.name, workers, k, signed)
					cfg := Config{Strategy: GZKP, WindowBits: k, SignedBuckets: signed, Workers: workers}
					for _, m := range []int{0, 1} { // one-shot, kept M = 1
						cfg.CheckpointInterval = m
						table, err := newTable(context.Background(), g, in.points, cfg, m > 0, nil)
						if err != nil {
							t.Fatal(err)
						}
						checkKernel(t, table, in.scalars, cfg, want, what)
					}
				}
			}
		}
	}
}

// TestOneShotBuildsNoTable: a one-shot MSM through the entry points that
// build its table — Compute, and a Tasks job given points but no table —
// builds no table beyond one copy of its input.
// What each allocates past the same call on a one-shot table built
// beforehand is at most that one level (n·(2w·8+1) B: limbs and infinity
// mask) and a few headers — a kept table's doubled levels would not fit —
// and under a quarter of the bytes a kept M = 1 table of the same points
// costs.
func TestOneShotBuildsNoTable(t *testing.T) {
	g := curve.Get(curve.BN254).G1
	points, scalars := testVectors(g, 256, 67, 0)
	cfg := Config{Strategy: GZKP, SignedBuckets: true, Workers: 2}
	ctx := context.Background()
	allocated := func(f func() error) int64 {
		least := int64(math.MaxInt64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := f(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
		}
		return least
	}
	oneShot, err := newTable(ctx, g, points, cfg, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	kept := cfg
	kept.CheckpointInterval = 1
	table := allocated(func() error {
		_, err := Preprocess(g, points, kept)
		return err
	})
	level := int64(len(points) * (int(pointBytes(g)) + 1))
	slices := [][]ff.Element{scalars}
	for _, c := range []struct {
		name            string
		public, onTable func() error
	}{
		{"Compute", func() error {
			_, _, err := Compute(g, points, scalars, cfg)
			return err
		}, func() error {
			_, _, err := oneShot.ComputeCtx(ctx, scalars, cfg)
			return err
		}},
		{"Tasks", func() error {
			_, err := runJobs(ctx, cfg, slices, Job{G: g, Points: points})
			return err
		}, func() error {
			_, err := runJobs(ctx, cfg, slices, Job{Table: oneShot})
			return err
		}},
	} {
		whole, buckets := allocated(c.public), allocated(c.onTable)
		setup := whole - buckets
		t.Logf("%s: %d B = %d B table setup + %d B on the table (one level %d B); M = 1 table %d B", c.name, whole, setup, buckets, level, table)
		if setup > level+512 {
			t.Fatalf("one-shot %s set up %d B past its table phase, more than one level of %d B", c.name, setup, level)
		}
		if 4*setup >= table {
			t.Fatalf("one-shot %s set up %d B past its table phase, not under a quarter of the %d B table build", c.name, setup, table)
		}
	}
}

// TestTableOwnsItsPoints: a table copies its input, so a caller that
// overwrites its point vector after building — a kept M = 1 table or a
// one-shot setup — changes no later MSM, on G1 and G2.
func TestTableOwnsItsPoints(t *testing.T) {
	bn := curve.Get(curve.BN254)
	for _, g := range []*curve.Group{bn.G1, bn.G2} {
		points, scalars := testVectors(g, 64, 83, 0)
		original := make([]curve.Affine, len(points))
		for i, p := range points {
			original[i] = g.CopyAffine(p)
		}
		want := referenceMSM(t, g, original, scalars)
		cfg := Config{Strategy: GZKP, SignedBuckets: true}
		kept := cfg
		kept.CheckpointInterval = 1
		var tables []*Table
		for _, c := range []struct {
			cfg  Config
			kept bool
		}{{kept, true}, {cfg, false}} {
			table, err := newTable(context.Background(), g, points, c.cfg, c.kept, nil)
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, table)
		}
		other := g.Generator()
		for i := range points {
			if i%2 == 0 {
				points[i] = other
			} else {
				points[i] = g.Infinity()
			}
		}
		for i, table := range tables {
			got, _, err := table.Compute(scalars, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !g.EqualAffine(got, *want) {
				t.Fatalf("%s: table %d (kept=%v) changed with its caller's point vector", g.Name, i, i == 0)
			}
		}
	}
}

// TestPreprocessAllocsBounded: building a kept M = 1 table allocates a
// number of times independent of n — one slab, one mask, one Jacobian
// scratch and each level's worker setup, no per-point allocation — on G1
// and G2 at a fixed window and worker count. All levels share one scope,
// so the count stays under what the build made with a goroutine pool per
// level (1,434 and 1,154; a scope per level made 1,630 and 1,350).
func TestPreprocessAllocsBounded(t *testing.T) {
	bn := curve.Get(curve.BN254)
	cfg := Config{Strategy: GZKP, SignedBuckets: true, WindowBits: 9, CheckpointInterval: 1, Workers: 2}
	bound := map[*curve.Group]float64{bn.G1: 1434, bn.G2: 1154}
	for _, g := range []*curve.Group{bn.G1, bn.G2} {
		measure := func(n int) float64 {
			points, _ := testVectors(g, n, 89, 0)
			return testing.AllocsPerRun(1, func() {
				if _, err := Preprocess(g, points, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := measure(256), measure(2048)
		t.Logf("%s: %v allocations at n = 256, %v at n = 2048", g.Name, small, large)
		if large > small+8 {
			t.Errorf("%s: %v allocations at n = 2048 vs %v at n = 256: the build allocates per point", g.Name, large, small)
		}
		if large > bound[g] {
			t.Errorf("%s: %v allocations at n = 2048, want at most %v", g.Name, large, bound[g])
		}
	}
}

var (
	fuzzBasesMu sync.Mutex
	fuzzBases   = map[*curve.Group][]curve.Affine{}
)

// kernelBases returns eight fixed points of g: (3i+1)·G.
func kernelBases(g *curve.Group) []curve.Affine {
	fuzzBasesMu.Lock()
	defer fuzzBasesMu.Unlock()
	if b, ok := fuzzBases[g]; ok {
		return b
	}
	ops := g.NewOps()
	jacs := make([]curve.Jacobian, 8)
	for i := range jacs {
		ops.Copy(&jacs[i], ops.ScalarMul(g.Generator(), big.NewInt(int64(3*i+1))))
	}
	fuzzBases[g] = g.BatchToAffine(jacs)
	return fuzzBases[g]
}

func kernelGroups() []*curve.Group {
	bn, bls := curve.Get(curve.BN254), curve.Get(curve.BLS12381)
	return []*curve.Group{bn.G1, bn.G2, bls.G1, bls.G2, curve.Get(curve.MNT4753Sim).G1}
}

// bucketCase decodes fuzz bytes into one table MSM: a group, a config (k,
// M ∈ {1, 3, nw, one-shot}, signed/unsigned, schedule, workers) and n
// points and scalars drawn from the degenerate menu — repeated bases
// (doublings in a bucket), negated bases (cancellations), bases at
// infinity; zero, one, r−1, one-hot, repeated and negated scalars.
func bucketCase(raw []byte) (*curve.Group, []curve.Affine, []ff.Element, Config) {
	next := func() int {
		if len(raw) == 0 {
			return 0
		}
		b := int(raw[0])
		raw = raw[1:]
		return b
	}
	groups := kernelGroups()
	g := groups[next()%len(groups)]
	flags := next()
	cfg := Config{
		Strategy:           GZKP,
		SignedBuckets:      flags&1 != 0,
		NoLoadBalance:      flags&2 != 0,
		CheckpointInterval: []int{1, 3, 1 << 10, 0}[flags>>2&3], // 0: M = windows, one-shot
		WindowBits:         3 + flags>>4&7,
		Workers:            2,
	}
	nb := next()
	n := 1 + nb%12
	cfg.Workers = []int{2, 1, 3, 8}[nb/12%4] // 8: more workers than combine chunks
	if g == curve.Get(curve.MNT4753Sim).G1 { // 753-bit scalars: small n, k ≥ 6
		n, cfg.WindowBits = 1+(n-1)%4, max(cfg.WindowBits, 6)
	}
	bases := kernelBases(g)
	f := g.Fr
	points := make([]curve.Affine, n)
	scalars := make([]ff.Element, n)
	for i := range points {
		pb, sb := next(), next()
		switch pb % 5 {
		case 2:
			if i > 0 {
				points[i] = points[i-1]
				break
			}
			fallthrough
		case 0, 1:
			points[i] = bases[pb/5%len(bases)]
		case 3:
			if i > 0 {
				points[i] = g.NegAffine(points[i-1])
			} else {
				points[i] = g.NegAffine(bases[0])
			}
		case 4:
			points[i] = g.Infinity()
		}
		switch sb % 7 {
		case 0:
			scalars[i] = f.Zero()
		case 1:
			scalars[i] = f.One()
		case 2:
			scalars[i] = f.FromInt64(-1) // r − 1
		case 3:
			scalars[i] = f.FromBig(new(big.Int).Lsh(big.NewInt(1), uint(sb/7)%uint(f.Bits()-1)))
		case 4, 5:
			if i > 0 {
				scalars[i] = f.Copy(scalars[i-1])
				if sb%7 == 5 {
					f.Neg(scalars[i], scalars[i])
				}
				break
			}
			fallthrough
		default:
			x := new(big.Int).SetBytes(raw)
			x.Mul(x, big.NewInt(int64(sb+1)))
			x.Add(x, big.NewInt(int64(1000003*(i+1))))
			x.Exp(x, big.NewInt(7), f.Modulus())
			scalars[i] = f.FromBig(x)
		}
	}
	return g, points, scalars, cfg
}

func checkBucketCase(t testing.TB, raw []byte) {
	t.Helper()
	g, points, scalars, cfg := bucketCase(raw)
	table, err := newTable(context.Background(), g, points, cfg, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkKernel(t, table, scalars, cfg, referenceMSM(t, g, points, scalars), g.Name)
}

// TestBucketKernelDegenerate runs the degenerate menu deterministically:
// each input below under M ∈ {1, 3, nw, one-shot} × signed/unsigned × both
// schedules, with 1, 2, 3 or 8 workers, on G1 and G2 of both pairing
// curves and MNT4753-sim G1.
func TestBucketKernelDegenerate(t *testing.T) {
	type pt struct{ kind, base int } // kind: 0 base, 2 repeat previous, 3 negate previous, 4 infinity
	type sc struct{ kind, arg int }  // kind: 0 zero, 1 one, 2 r−1, 3 one-hot 2^arg, 4 repeat, 5 negate previous, 6 dense
	inputs := []struct {
		name string
		pts  []pt
		scs  []sc
	}{
		{"duplicated bases", []pt{{0, 1}, {2, 0}, {0, 2}, {2, 0}, {2, 0}}, []sc{{6, 1}, {4, 0}, {6, 2}, {4, 0}, {4, 0}}},
		{"base and its negation", []pt{{0, 3}, {3, 0}, {0, 4}, {3, 0}}, []sc{{6, 3}, {4, 0}, {6, 4}, {5, 0}}},
		{"bases at infinity", []pt{{4, 0}, {0, 5}, {4, 0}, {0, 6}}, []sc{{6, 5}, {6, 6}, {6, 7}, {6, 8}}},
		{"zero, one, r-1, one-hot", []pt{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}, []sc{{0, 0}, {1, 0}, {2, 0}, {3, 30}, {3, 7}}},
		{"all zero", []pt{{0, 1}, {0, 2}}, []sc{{0, 0}, {0, 0}}},
		{"one entry per bucket", []pt{{0, 7}}, []sc{{1, 0}}},
		{"two entries per bucket", []pt{{0, 7}, {0, 6}}, []sc{{1, 0}, {1, 0}}},
		// Buckets 2 and 1 of window 0 hold P and −P (then P and P): the
		// combine's running sum cancels (then doubles) within one chunk.
		{"running sum cancels", []pt{{0, 1}, {3, 0}}, []sc{{3, 1}, {1, 0}}},
		{"running sum doubles", []pt{{0, 1}, {2, 0}}, []sc{{3, 1}, {1, 0}}},
	}
	for gi := range kernelGroups() {
		for _, in := range inputs {
			if gi == 4 && len(in.pts) > 4 {
				continue // MNT4753-sim at small n only
			}
			for flags := 0; flags < 16; flags++ {
				// Hand-build the bytes bucketCase decodes: group, flags, n
				// and workers, then (point, scalar) byte pairs; k = 5 (6 on
				// MNT4753-sim). Each M meets each worker count once.
				workers := (flags ^ flags>>2) & 3
				raw := []byte{byte(gi), byte(flags | 2<<4), byte(len(in.pts) - 1 + 12*workers)}
				for i, p := range in.pts {
					s := in.scs[i]
					raw = append(raw, byte(p.kind+5*p.base), byte(s.kind+7*s.arg))
				}
				checkBucketCase(t, append(raw, 0x5a, 0xc3, byte(gi)))
			}
		}
	}
}

// FuzzBucketKernel differentially fuzzes the affine bucket kernel and
// combine against their Jacobian oracles and Reference over the degenerate
// menu of bucketCase. Run by the CI fuzz leg and `make fuzz`.
func FuzzBucketKernel(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 6, 2, 4, 3, 5, 4, 6})
	f.Add([]byte{1, 5, 3, 1, 1, 2, 2, 3, 5, 4, 0})
	f.Add([]byte{2, 0x17, 7, 10, 6, 12, 4, 13, 5, 14, 3, 9, 2})
	f.Add([]byte{3, 0x2b, 4, 0, 6, 5, 4, 8, 6, 2, 1})
	f.Add([]byte{4, 0x09, 2, 0, 6, 2, 4, 3, 5})
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkBucketCase(t, raw)
	})
}

// TestComputeAllocsBounded: a table MSM at fixed Workers — against a kept
// M = 3 table or one-shot — allocates a number of times independent of n
// and of the bucket count: the kernel's and the combine's scratch is one
// adder per worker, the bucket sums one slab per MSM. The Jacobian oracles'
// per-bucket accumulators are the contrast.
func TestComputeAllocsBounded(t *testing.T) {
	g := curve.Get(curve.BN254).G1
	ctx := context.Background()
	production := func(table *Table, scalars []ff.Element, cfg Config) error {
		_, _, err := table.ComputeCtx(ctx, scalars, cfg)
		return err
	}
	oracles := func(table *Table, scalars []ff.Element, cfg Config) error {
		_, _, err := table.computeWith(ctx, scalars, cfg, mixedAddBuckets, jacobianCombine)
		return err
	}
	measure := func(n, k int, oneShot bool, compute func(*Table, []ff.Element, Config) error) float64 {
		points, scalars := testVectors(g, n, 79, 0.3)
		cfg := Config{WindowBits: k, CheckpointInterval: 3, SignedBuckets: true, Workers: 2}
		if oneShot {
			cfg.CheckpointInterval = 0
		}
		var table *Table
		build := func() {
			var err error
			if table, err = newTable(ctx, g, points, cfg, !oneShot, nil); err != nil {
				t.Fatal(err)
			}
		}
		build()
		return testing.AllocsPerRun(3, func() {
			if oneShot { // the table is part of the MSM
				build()
			}
			if err := compute(table, scalars, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	const slack = 8
	for _, oneShot := range []bool{false, true} {
		base := measure(256, 6, oneShot, production)
		for _, c := range []struct{ n, k int }{{2048, 6}, {256, 9}} {
			got := measure(c.n, c.k, oneShot, production)
			t.Logf("one-shot=%v n=%d k=%d: %v allocs (n=256 k=6: %v)", oneShot, c.n, c.k, got, base)
			if got > base+slack {
				t.Errorf("one-shot=%v n=%d k=%d: %v allocs vs %v at n=256 k=6: allocations grow with the input", oneShot, c.n, c.k, got, base)
			}
		}
	}
	if o6, o9 := measure(256, 6, false, oracles), measure(256, 9, false, oracles); o9 < o6+slack {
		t.Errorf("oracle allocs %v → %v at k 6 → 9: the test no longer sees per-bucket allocation", o6, o9)
	}
}

// BenchmarkBucketKernel: the affine bucket kernel and combine against the
// Jacobian oracles they replaced, on the prover's configuration (signed
// digits, the default window and M) at n = 2^10, G1 and G2 (run with
// -benchmem).
func BenchmarkBucketKernel(b *testing.B) {
	bn := curve.Get(curve.BN254)
	for _, g := range []*curve.Group{bn.G1, bn.G2} {
		points, scalars := testVectors(g, 1<<10, 41, 0)
		cfg := Config{Strategy: GZKP, SignedBuckets: true}
		table, err := Preprocess(g, points, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []struct {
			name    string
			compute func() error
		}{{"affine", func() error {
			_, _, err := table.ComputeCtx(context.Background(), scalars, cfg)
			return err
		}}, {"jacobian-oracles", func() error {
			_, _, err := table.computeWith(context.Background(), scalars, cfg, mixedAddBuckets, jacobianCombine)
			return err
		}}} {
			b.Run(g.Name+"/"+k.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := k.compute(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOneShot sweeps a one-shot GZKP MSM — no kept table, the path a
// server without preprocessing runs — against the same MSM on a kept M = 1
// table, on BN254 G1 and G2, at n ∈ {64, 128, 256, 1024} and window sizes
// from two below to one above the signed default AutoWindow + 1.
func BenchmarkOneShot(b *testing.B) {
	bn := curve.Get(curve.BN254)
	for _, g := range []*curve.Group{bn.G1, bn.G2} {
		for _, n := range []int{64, 128, 256, 1024} {
			points, scalars := testVectors(g, n, 43, 0)
			def := AutoWindow(n) + 1
			for k := def - 2; k <= def+1; k++ {
				cfg := Config{Strategy: GZKP, SignedBuckets: true, WindowBits: k}
				kept := cfg
				kept.CheckpointInterval = 1
				name := fmt.Sprintf("%s/n=%d/k=%d", g.Name, n, k)
				b.Run(name+"/one-shot", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, err := Compute(g, points, scalars, cfg); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run(name+"/kept", func(b *testing.B) {
					table, err := Preprocess(g, points, kept)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, _, err := table.Compute(scalars, kept); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
