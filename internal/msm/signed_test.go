package msm

import (
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
)

func TestSignedDigitsReconstructScalar(t *testing.T) {
	f := curve.Get(curve.BN254).Fr
	rng := mrand.New(mrand.NewSource(2))
	for _, k := range []int{2, 4, 13, 16} {
		scalars := []ff.Element{f.Rand(rng), f.Zero(), f.One(), f.FromInt64(-1)}
		sd := recodeDigits(newDigits(f, scalars, k), true)
		half := int32(1) << (k - 1)
		for i, s := range scalars {
			acc := new(big.Int)
			for w := sd.windows - 1; w >= 0; w-- {
				d := sd.digit(i, w)
				if d > half || d < -half {
					t.Fatalf("k=%d: digit %d out of signed range [±2^%d]", k, d, k-1)
				}
				acc.Lsh(acc, uint(k))
				acc.Add(acc, big.NewInt(int64(d)))
			}
			if acc.Cmp(f.ToBig(s)) != 0 {
				t.Fatalf("k=%d scalar %d: signed digits reconstruct %v want %v", k, i, acc, f.ToBig(s))
			}
		}
	}
}

func TestSignedStrategiesAgree(t *testing.T) {
	for _, id := range []curve.ID{curve.BN254, curve.BLS12381, curve.MNT4753Sim} {
		g := curve.Get(id).G1
		for _, sparse := range []float64{0, 0.6} {
			points, scalars := testVectors(g, 193, int64(id)*100+int64(sparse*10), sparse)
			want, _, err := Compute(g, points, scalars, Config{Strategy: Reference})
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []Config{
				{Strategy: SignedDigit},
				{Strategy: SignedDigitGLV},
				{Strategy: GZKP, SignedBuckets: true},
				{Strategy: GZKP, SignedBuckets: true, NoLoadBalance: true},
			} {
				got, st, err := Compute(g, points, scalars, cfg)
				if err != nil {
					t.Fatalf("%v/%v: %v", id, cfg.Strategy, err)
				}
				if !g.EqualAffine(got, want) {
					t.Fatalf("curve=%v cfg=%+v sparse=%v: MSM mismatch", id, cfg, sparse)
				}
				if !st.Signed {
					t.Fatalf("curve=%v cfg=%+v: Stats.Signed not set", id, cfg)
				}
				if st.Buckets != 1<<(st.WindowBits-1) {
					t.Fatalf("curve=%v cfg=%+v: buckets %d not halved for k=%d", id, cfg, st.Buckets, st.WindowBits)
				}
			}
		}
	}
}

func TestSignedDigitWindowSweep(t *testing.T) {
	g := curve.Get(curve.BN254).G1
	points, scalars := testVectors(g, 130, 17, 0.3)
	want, _, err := Compute(g, points, scalars, Config{Strategy: Reference})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 7, 13, 16} {
		for _, s := range []StrategyID{SignedDigit, SignedDigitGLV} {
			got, _, err := Compute(g, points, scalars, Config{Strategy: s, WindowBits: k})
			if err != nil {
				t.Fatalf("strategy=%v k=%d: %v", s, k, err)
			}
			if !g.EqualAffine(got, want) {
				t.Fatalf("strategy=%v k=%d mismatch", s, k)
			}
		}
		// GZKP signed path: k=2 divides 254 and must be auto-nudged.
		got, st, err := Compute(g, points, scalars, Config{Strategy: GZKP, SignedBuckets: true, WindowBits: k})
		if err != nil {
			t.Fatalf("gzkp-signed k=%d: %v", k, err)
		}
		if !g.EqualAffine(got, want) {
			t.Fatalf("gzkp-signed k=%d mismatch", k)
		}
		if g.Fr.Bits()%st.WindowBits == 0 {
			t.Fatalf("gzkp-signed: k=%d still divides scalar bits", st.WindowBits)
		}
	}
}

func TestSignedGLVStats(t *testing.T) {
	g := curve.Get(curve.BN254).G1
	points, scalars := testVectors(g, 128, 23, 0)
	_, plain, err := Compute(g, points, scalars, Config{Strategy: SignedDigit, WindowBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, glv, err := Compute(g, points, scalars, Config{Strategy: SignedDigitGLV, WindowBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !glv.GLV {
		t.Fatal("Stats.GLV not set on a GLV-capable curve")
	}
	if plain.GLV {
		t.Fatal("Stats.GLV set without decomposition")
	}
	// GLV halves the window count (half-length scalars, doubled points).
	if glv.Windows >= plain.Windows {
		t.Fatalf("GLV windows %d not fewer than plain %d", glv.Windows, plain.Windows)
	}
	// MNT4753-sim has no endomorphism: GLV must fall back, not fail.
	m := curve.Get(curve.MNT4753Sim).G1
	mp, ms := testVectors(m, 64, 29, 0)
	_, st, err := Compute(m, mp, ms, Config{Strategy: SignedDigitGLV})
	if err != nil {
		t.Fatal(err)
	}
	if st.GLV {
		t.Fatal("Stats.GLV set on a curve without the endomorphism")
	}
}

func TestSignedG2MSM(t *testing.T) {
	g := curve.Get(curve.BLS12381).G2
	points, scalars := testVectors(g, 65, 13, 0.2)
	want, _, err := Compute(g, points, scalars, Config{Strategy: Reference})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Strategy: SignedDigit},
		{Strategy: SignedDigitGLV},
		{Strategy: GZKP, SignedBuckets: true},
	} {
		got, _, err := Compute(g, points, scalars, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !g.EqualAffine(got, want) {
			t.Fatalf("G2 signed MSM mismatch (%+v)", cfg)
		}
	}
}

var (
	fuzzOnce sync.Once
	fuzzPts  []curve.Affine
)

func fuzzVectors() []curve.Affine {
	fuzzOnce.Do(func() {
		g := curve.Get(curve.BN254).G1
		ops := g.NewOps()
		gen := g.Generator()
		jacs := make([]curve.Jacobian, 16)
		for i := range jacs {
			ops.Copy(&jacs[i], ops.ScalarMul(gen, big.NewInt(int64(3*i+1))))
		}
		fuzzPts = g.BatchToAffine(jacs)
	})
	return fuzzPts
}

// FuzzSignedDigitVsStraus differentially fuzzes the signed-digit MSM
// rebuild: on input-derived scalars, signed-digit ≡ signed-digit-GLV ≡
// GZKP-signed ≡ straus ≡ pippenger-windows. Run by the CI fuzz leg.
func FuzzSignedDigitVsStraus(f *testing.F) {
	f.Add([]byte{7})
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		g := curve.Get(curve.BN254).G1
		points := fuzzVectors()
		r := g.Fr.Modulus()
		seed := new(big.Int).SetBytes(raw)
		scalars := make([]ff.Element, len(points))
		x := new(big.Int).Set(seed)
		for i := range scalars {
			// x ← x² + seed + i: a cheap input-derived scalar walk.
			x.Mul(x, x)
			x.Add(x, seed)
			x.Add(x, big.NewInt(int64(i)))
			x.Mod(x, r)
			scalars[i] = g.Fr.FromBig(x)
		}
		want, _, err := Compute(g, points, scalars, Config{Strategy: Straus})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{
			{Strategy: PippengerWindows},
			{Strategy: SignedDigit},
			{Strategy: SignedDigitGLV},
			{Strategy: GZKP, SignedBuckets: true},
		} {
			got, _, err := Compute(g, points, scalars, cfg)
			if err != nil {
				t.Fatalf("%v: %v", cfg.Strategy, err)
			}
			if !g.EqualAffine(got, want) {
				t.Fatalf("strategy %v (signed=%v) disagrees with straus", cfg.Strategy, cfg.SignedBuckets)
			}
		}
	})
}
