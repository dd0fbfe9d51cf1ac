package msm

import (
	"fmt"
	"math/big"
	mrand "math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
)

// testVectors builds n deterministic points (multiples of the generator)
// and scalars; sparse controls the fraction of 0/1 scalars (Zcash-like ū).
func testVectors(g *curve.Group, n int, seed int64, sparse float64) ([]curve.Affine, []ff.Element) {
	rng := mrand.New(mrand.NewSource(seed))
	ops := g.NewOps()
	gen := g.Generator()
	jacs := make([]curve.Jacobian, n)
	for i := range jacs {
		k := big.NewInt(int64(rng.Intn(1<<30) + 1))
		ops.Copy(&jacs[i], ops.ScalarMul(gen, k))
	}
	points := g.BatchToAffine(jacs)
	scalars := make([]ff.Element, n)
	for i := range scalars {
		switch {
		case rng.Float64() < sparse/2:
			scalars[i] = g.Fr.Zero()
		case rng.Float64() < sparse:
			scalars[i] = g.Fr.One()
		default:
			scalars[i] = g.Fr.Rand(rng)
		}
	}
	return points, scalars
}

func TestDigitsReconstructScalar(t *testing.T) {
	f := curve.Get(curve.BN254).Fr
	rng := mrand.New(mrand.NewSource(1))
	for _, k := range []int{1, 4, 13, 16} {
		scalars := []ff.Element{f.Rand(rng), f.Zero(), f.One(), f.FromInt64(-1)}
		dg := newDigits(f, scalars, k)
		for i, s := range scalars {
			// Σ digit(i,t)·2^(tk) must equal the canonical scalar.
			acc := new(big.Int)
			for w := dg.windows - 1; w >= 0; w-- {
				acc.Lsh(acc, uint(k))
				acc.Or(acc, big.NewInt(int64(dg.digit(i, w))))
			}
			if acc.Cmp(f.ToBig(s)) != 0 {
				t.Fatalf("k=%d scalar %d: digits reconstruct %v want %v", k, i, acc, f.ToBig(s))
			}
		}
	}
}

func TestStrategiesAgree(t *testing.T) {
	for _, id := range []curve.ID{curve.BN254, curve.MNT4753Sim} {
		g := curve.Get(id).G1
		for _, sparse := range []float64{0, 0.6} {
			points, scalars := testVectors(g, 257, int64(id)*10+int64(sparse*10), sparse)
			want, _, err := Compute(g, points, scalars, Config{Strategy: Reference})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []StrategyID{Straus, PippengerWindows, GZKP, SignedDigit, SignedDigitGLV} {
				got, st, err := Compute(g, points, scalars, Config{Strategy: s})
				if err != nil {
					t.Fatalf("%v/%v: %v", id, s, err)
				}
				if !g.EqualAffine(got, want) {
					t.Fatalf("curve=%v strategy=%v sparse=%v: MSM mismatch", id, s, sparse)
				}
				// Every real strategy reports its work: a zero here means
				// msm.point_adds and gzkp.Stats.PointAdds read 0 under it.
				if st.PointAdds <= 0 {
					t.Fatalf("curve=%v strategy=%v: point adds not counted", id, s)
				}
			}
		}
	}
}

func TestWindowAndCheckpointVariants(t *testing.T) {
	g := curve.Get(curve.BN254).G1
	points, scalars := testVectors(g, 130, 7, 0.3)
	want, _, err := Compute(g, points, scalars, Config{Strategy: Reference})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 8, 13} {
		// m = 0 (no table kept) runs at M = windows; an explicit m is
		// honoured up to the window count.
		for _, m := range []int{0, 1, 2, 5, 100} {
			got, st, err := Compute(g, points, scalars, Config{
				Strategy: GZKP, WindowBits: k, CheckpointInterval: m,
			})
			if err != nil {
				t.Fatalf("k=%d m=%d: %v", k, m, err)
			}
			if !g.EqualAffine(got, want) {
				t.Fatalf("k=%d m=%d: mismatch", k, m)
			}
			if st.WindowBits != k {
				t.Fatalf("stats window %d != %d", st.WindowBits, k)
			}
			wantM := min(m, st.Windows)
			if m == 0 {
				wantM = st.Windows
			}
			if st.Checkpoint != wantM {
				t.Fatalf("k=%d m=%d: ran at M=%d, want %d", k, m, st.Checkpoint, wantM)
			}
		}
	}
	// Pippenger and Straus window sweeps.
	for _, k := range []int{2, 6, 10} {
		for _, s := range []StrategyID{Straus, PippengerWindows} {
			got, _, err := Compute(g, points, scalars, Config{Strategy: s, WindowBits: k})
			if err != nil {
				t.Fatal(err)
			}
			if !g.EqualAffine(got, want) {
				t.Fatalf("strategy=%v k=%d mismatch", s, k)
			}
		}
	}
}

func TestG2MSM(t *testing.T) {
	g := curve.Get(curve.BLS12381).G2
	points, scalars := testVectors(g, 65, 11, 0.2)
	want, _, err := Compute(g, points, scalars, Config{Strategy: Reference})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Compute(g, points, scalars, Config{Strategy: GZKP})
	if err != nil {
		t.Fatal(err)
	}
	if !g.EqualAffine(got, want) {
		t.Fatal("G2 GZKP MSM mismatch")
	}
}

func TestEdgeCases(t *testing.T) {
	g := curve.Get(curve.BN254).G1
	// Empty input.
	res, _, err := Compute(g, nil, nil, Config{Strategy: GZKP})
	if err != nil || !res.Inf {
		t.Fatalf("empty MSM: %v %v", res, err)
	}
	// Mismatched lengths.
	if _, _, err := Compute(g, make([]curve.Affine, 2), make([]ff.Element, 3), Config{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// All-zero scalars.
	points, _ := testVectors(g, 33, 13, 0)
	zeros := make([]ff.Element, len(points))
	for i := range zeros {
		zeros[i] = g.Fr.Zero()
	}
	for _, s := range []StrategyID{Straus, PippengerWindows, GZKP} {
		res, _, err := Compute(g, points, zeros, Config{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Inf {
			t.Fatalf("%v: Σ 0·P != O", s)
		}
	}
	// Single point.
	one := points[:1]
	s1 := []ff.Element{g.Fr.FromUint64(42)}
	want, _, _ := Compute(g, one, s1, Config{Strategy: Reference})
	got, _, err := Compute(g, one, s1, Config{Strategy: GZKP})
	if err != nil || !g.EqualAffine(got, want) {
		t.Fatal("single-point MSM mismatch")
	}
	// Points at infinity mixed in.
	pts := append([]curve.Affine{g.Infinity()}, points[:8]...)
	scs := make([]ff.Element, len(pts))
	rng := mrand.New(mrand.NewSource(17))
	for i := range scs {
		scs[i] = g.Fr.Rand(rng)
	}
	want, _, _ = Compute(g, pts, scs, Config{Strategy: Reference})
	got, _, err = Compute(g, pts, scs, Config{Strategy: GZKP})
	if err != nil || !g.EqualAffine(got, want) {
		t.Fatal("MSM with infinity points mismatch")
	}
}

func TestTableReuse(t *testing.T) {
	// One preprocessing, many scalar vectors (the deployment model).
	g := curve.Get(curve.BN254).G1
	points, scalars1 := testVectors(g, 100, 19, 0.4)
	_, scalars2 := testVectors(g, 100, 23, 0.0)
	table, err := Preprocess(g, points, Config{WindowBits: 8, CheckpointInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, scalars := range [][]ff.Element{scalars1, scalars2} {
		want, _, _ := Compute(g, points, scalars, Config{Strategy: Reference})
		got, _, err := table.Compute(scalars, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !g.EqualAffine(got, want) {
			t.Fatal("table reuse mismatch")
		}
	}
	// Wrong scalar count.
	if _, _, err := table.Compute(scalars1[:50], Config{}); err == nil {
		t.Fatal("scalar-count mismatch accepted")
	}
}

func TestNoLoadBalanceMatches(t *testing.T) {
	g := curve.Get(curve.BN254).G1
	points, scalars := testVectors(g, 200, 29, 0.7)
	want, _, _ := Compute(g, points, scalars, Config{Strategy: Reference})
	got, _, err := Compute(g, points, scalars, Config{Strategy: GZKP, NoLoadBalance: true})
	if err != nil || !g.EqualAffine(got, want) {
		t.Fatal("no-LB GZKP mismatch")
	}
}

func TestStatsSparsity(t *testing.T) {
	g := curve.Get(curve.BN254).G1
	points, scalars := testVectors(g, 300, 31, 0.8)
	_, st, err := Compute(g, points, scalars, Config{Strategy: GZKP, WindowBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.ZeroDigits == 0 {
		t.Fatal("sparse workload produced no zero digits")
	}
	if st.LoadSpread < 1 {
		t.Fatalf("load spread %v < 1", st.LoadSpread)
	}
	if st.PointAdds == 0 || st.TableBytes == 0 {
		t.Fatal("stats not populated")
	}
	if len(st.BucketLoads) != 1<<8 {
		t.Fatalf("bucket histogram size %d", len(st.BucketLoads))
	}
	var sum int64
	for _, l := range st.BucketLoads {
		sum += l
	}
	if sum != st.NonzeroDigit {
		t.Fatalf("histogram total %d != nonzero digits %d", sum, st.NonzeroDigit)
	}
}

func TestAutoCheckpointBudget(t *testing.T) {
	// Tight budgets must force larger M, and table bytes must respect them.
	words := 6
	n := 1 << 20
	k := 16
	bits := 255
	loose := AutoCheckpoint(words, n, k, bits, 64<<30)
	tight := AutoCheckpoint(words, n, k, bits, 1<<30)
	if loose > tight {
		t.Fatalf("looser budget must not need larger M: %d vs %d", loose, tight)
	}
	if got := PreprocessBytes(words, n, k, tight, bits); got > 1<<30 {
		t.Fatalf("auto M=%d exceeds budget: %d bytes", tight, got)
	}
	if AutoCheckpoint(words, 1<<26, 16, bits, 1) != (bits+k-1)/k {
		t.Fatal("impossible budget should degenerate to M=windows")
	}
}

// TestTableBytesIsPreprocessBytes: PreprocessBytes predicts a built table's
// Bytes, its slab, without building it, at every M.
func TestTableBytesIsPreprocessBytes(t *testing.T) {
	g := curve.Get(curve.BN254).G2
	points, _ := testVectors(g, 64, 97, 0.2)
	for _, m := range []int{1, 3, 29} {
		table, err := Preprocess(g, points, Config{Strategy: GZKP, WindowBits: 9, CheckpointInterval: m, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := PreprocessBytes(g.K.Words(), len(points), table.WindowBits(), table.Checkpoint(), g.Fr.Bits())
		if got := table.Bytes(); got != want {
			t.Fatalf("M=%d: Bytes %d, PreprocessBytes %d", m, got, want)
		}
	}
}

func TestAutoWindow(t *testing.T) {
	if AutoWindow(0) < 1 || AutoWindow(1<<14) < 4 || AutoWindow(1<<26) > 16 {
		t.Fatal("AutoWindow out of range")
	}
	if AutoWindow(1<<20) <= AutoWindow(1<<10) {
		t.Fatal("AutoWindow should grow with N")
	}
}

func BenchmarkMSM(b *testing.B) {
	for _, id := range []curve.ID{curve.BN254, curve.MNT4753Sim} {
		g := curve.Get(id).G1
		n := 1 << 10
		points, scalars := testVectors(g, n, 1, 0.5)
		for _, s := range []StrategyID{Straus, PippengerWindows, GZKP} {
			var table *Table
			if s == GZKP {
				var err error
				table, err = Preprocess(g, points, Config{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.Run(curve.ID(id).String()+"/"+s.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var err error
					if s == GZKP {
						_, _, err = table.Compute(scalars, Config{})
					} else {
						_, _, err = Compute(g, points, scalars, Config{Strategy: s})
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkCheckpointM(b *testing.B) {
	// DESIGN.md §4 ablation 4: Algorithm 1's time/space knob.
	g := curve.Get(curve.BN254).G1
	n := 1 << 10
	points, scalars := testVectors(g, n, 43, 0)
	for _, m := range []int{1, 2, 4, 8} {
		table, err := Preprocess(g, points, Config{WindowBits: 8, CheckpointInterval: m})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("M=%d_table=%dKiB", m, table.Bytes()>>10), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := table.Compute(scalars, Config{WindowBits: 8}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWindowK(b *testing.B) {
	// DESIGN.md §4 ablation 5: the window-size profiling knob (§4.1).
	g := curve.Get(curve.BN254).G1
	n := 1 << 10
	points, scalars := testVectors(g, n, 47, 0)
	for _, k := range []int{4, 8, 12} {
		table, err := Preprocess(g, points, Config{WindowBits: k})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := table.Compute(scalars, Config{WindowBits: k}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestPropMSMLinearity(t *testing.T) {
	// MSM(s)+MSM(t) == MSM(s+t) over the same points — the module-homo-
	// morphism property every strategy must preserve (testing/quick).
	g := curve.Get(curve.BN254).G1
	points, _ := testVectors(g, 48, 61, 0)
	f := g.Fr
	rng := mrand.New(mrand.NewSource(67))
	cfg := &quick.Config{
		MaxCount: 12,
		Values: func(vals []reflect.Value, _ *mrand.Rand) {
			for i := range vals {
				v := make([]ff.Element, len(points))
				for j := range v {
					v[j] = f.Rand(rng)
				}
				vals[i] = reflect.ValueOf(v)
			}
		},
	}
	ops := g.NewOps()
	prop := func(s, u []ff.Element) bool {
		sum := make([]ff.Element, len(s))
		for i := range s {
			sum[i] = f.Add(f.New(), s[i], u[i])
		}
		rs, _, err1 := Compute(g, points, s, Config{Strategy: GZKP, WindowBits: 8})
		ru, _, err2 := Compute(g, points, u, Config{Strategy: GZKP, WindowBits: 8})
		rsum, _, err3 := Compute(g, points, sum, Config{Strategy: GZKP, WindowBits: 8})
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		var acc curve.Jacobian
		ops.FromAffine(&acc, rs)
		ops.AddMixedAssign(&acc, ru)
		return g.EqualAffine(ops.ToAffine(&acc), rsum)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
