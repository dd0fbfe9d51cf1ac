package curve

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

func TestFixedBaseMatchesScalarMul(t *testing.T) {
	for _, id := range []ID{BN254, BLS12381} {
		c := Get(id)
		for _, g := range []*Group{c.G1, c.G2} {
			fb := g.NewFixedBase(g.Generator())
			ops := g.NewOps()
			rng := mrand.New(mrand.NewSource(5))
			for i := 0; i < 8; i++ {
				s := new(big.Int).Rand(rng, g.Fr.Modulus())
				got := fb.MulElement(ops, g.Fr.FromBig(s))
				want := ops.ScalarMul(g.Generator(), s)
				if !ops.Equal(&got, want) {
					t.Fatalf("%s: FixedBase.MulElement mismatch", g.Name)
				}
			}
			// Edge scalars.
			zero := fb.MulElement(ops, g.Fr.Zero())
			if !ops.IsInfinity(&zero) {
				t.Fatalf("%s: 0·G != O", g.Name)
			}
			one := fb.MulElement(ops, g.Fr.One())
			if !g.EqualAffine(ops.ToAffine(&one), g.Generator()) {
				t.Fatalf("%s: 1·G != G", g.Name)
			}
			neg := fb.MulElement(ops, g.Fr.FromInt64(-7))
			pos := fb.MulElement(ops, g.Fr.FromInt64(7))
			ops.NegAssign(&pos)
			if !ops.Equal(&neg, &pos) {
				t.Fatalf("%s: negative scalar broken", g.Name)
			}
		}
	}
}

func TestScalarMulWNAF(t *testing.T) {
	g := Get(BN254).G1
	ops := g.NewOps()
	gen := g.Generator()
	rng := mrand.New(mrand.NewSource(7))
	for _, w := range []uint{2, 4, 5, 8, 0 /* defaulted */} {
		for i := 0; i < 6; i++ {
			k := new(big.Int).Rand(rng, g.Fr.Modulus())
			got := ops.ScalarMulWNAF(gen, g.Fr.FromBig(k), w)
			want := ops.ScalarMul(gen, k)
			if !ops.Equal(got, want) {
				t.Fatalf("w=%d: wNAF mismatch", w)
			}
		}
	}
	// Edges: zero, one, negative, infinity base.
	if !ops.IsInfinity(ops.ScalarMulWNAF(gen, g.Fr.Zero(), 4)) {
		t.Fatal("0·G != O")
	}
	one := ops.ToAffine(ops.ScalarMulWNAF(gen, g.Fr.One(), 4))
	if !g.EqualAffine(one, gen) {
		t.Fatal("1·G != G")
	}
	neg := ops.ScalarMulWNAF(gen, g.Fr.FromInt64(-99), 4)
	pos := ops.ScalarMulWNAF(gen, g.Fr.FromInt64(99), 4)
	ops.NegAssign(pos)
	if !ops.Equal(neg, pos) {
		t.Fatal("negative wNAF broken")
	}
	if !ops.IsInfinity(ops.ScalarMulWNAF(g.Infinity(), g.Fr.FromInt64(5), 4)) {
		t.Fatal("k·O != O")
	}
}

// TestScalarMulWNAFGroups: on G1 and G2 of BN254 and BLS12-381, wNAF
// multiplication by random, negative, 0, 1 and r−1 scalars — and a
// fixed-base table's — equals double-and-add. Negative digits are
// subtracted in place and the digits and the odd-multiples table live in
// fixed storage, so a call allocates at most 3 times (one slab, the
// result, the table's normalisation scratch), where a NegAffine copy per
// negative digit and a big.Int per recoding step cost dozens.
func TestScalarMulWNAFGroups(t *testing.T) {
	rng := mrand.New(mrand.NewSource(11))
	for _, id := range []ID{BN254, BLS12381} {
		c := Get(id)
		for _, g := range []*Group{c.G1, c.G2} {
			ops := g.NewOps()
			base := ops.ToAffine(ops.ScalarMul(g.Generator(), big.NewInt(1234567)))
			fb := g.NewFixedBase(base)
			scalars := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-1), big.NewInt(-12345),
				new(big.Int).Sub(g.Fr.Modulus(), big.NewInt(1))}
			for range 4 {
				scalars = append(scalars, new(big.Int).Rand(rng, g.Fr.Modulus()))
			}
			for _, k := range scalars {
				want, e := ops.ScalarMul(base, k), g.Fr.FromBig(k)
				for _, w := range []uint{2, 4, 5, 8} {
					if got := ops.ScalarMulWNAF(base, e, w); !ops.Equal(got, want) {
						t.Fatalf("%s: ScalarMulWNAF(%v, w=%d) != ScalarMul", g.Name, k, w)
					}
				}
				if got := fb.MulElement(ops, e); !ops.Equal(&got, want) {
					t.Fatalf("%s: FixedBase.MulElement(%v) != ScalarMul", g.Name, k)
				}
			}
			e := g.Fr.FromBig(scalars[len(scalars)-1])
			if a := testing.AllocsPerRun(20, func() { ops.ScalarMulWNAF(base, e, 4) }); a > 3 {
				t.Fatalf("%s: ScalarMulWNAF allocates %v times, want at most 3", g.Name, a)
			}
			if a := testing.AllocsPerRun(20, func() { fb.MulElement(ops, e) }); a > 1 {
				t.Fatalf("%s: FixedBase.MulElement allocates %v times, want at most 1", g.Name, a)
			}
		}
	}
}
