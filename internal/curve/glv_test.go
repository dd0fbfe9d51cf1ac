package curve

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

func glvGroups(t testing.TB) []*Group {
	t.Helper()
	var out []*Group
	for _, id := range []ID{BN254, BLS12381} {
		c := Get(id)
		out = append(out, c.G1, c.G2)
	}
	return out
}

func TestGLVParams(t *testing.T) {
	for _, g := range glvGroups(t) {
		v := g.GLV()
		if v == nil {
			t.Fatalf("%s: GLV unsupported on a j=0 curve", g.Name)
		}
		r := g.Fr.Modulus()
		// λ is a primitive cube root of unity mod r: λ² + λ + 1 ≡ 0.
		chk := new(big.Int).Mul(v.Lambda, v.Lambda)
		chk.Add(chk, v.Lambda)
		chk.Add(chk, big.NewInt(1))
		if chk.Mod(chk, r).Sign() != 0 {
			t.Fatalf("%s: λ²+λ+1 != 0 mod r", g.Name)
		}
		// Both basis vectors are in the lattice: a + b·λ ≡ 0 mod r.
		for _, vec := range [][2]*big.Int{{v.A1, v.B1}, {v.A2, v.B2}} {
			s := new(big.Int).Mul(vec[1], v.Lambda)
			s.Add(s, vec[0])
			if s.Mod(s, r).Sign() != 0 {
				t.Fatalf("%s: basis vector not in GLV lattice", g.Name)
			}
		}
		// The halves are genuinely short: ≤ ⌈bits(r)/2⌉ + 2.
		if max := (r.BitLen()+1)/2 + 2; v.HalfBits > max {
			t.Fatalf("%s: HalfBits %d > %d", g.Name, v.HalfBits, max)
		}
		// φ acts as λ on the subgroup, checked on a non-generator point.
		ops := g.NewOps()
		p := ops.ToAffine(ops.ScalarMul(g.Generator(), big.NewInt(987654321)))
		phiP := v.Phi(p)
		if !g.IsOnCurve(phiP) {
			t.Fatalf("%s: φ(P) off-curve", g.Name)
		}
		want := ops.ToAffine(ops.ScalarMul(p, v.Lambda))
		if !g.EqualAffine(phiP, want) {
			t.Fatalf("%s: φ(P) != λ·P", g.Name)
		}
		if !v.Phi(g.Infinity()).Inf {
			t.Fatalf("%s: φ(∞) != ∞", g.Name)
		}
	}
}

func TestGLVUnsupported(t *testing.T) {
	g := Get(MNT4753Sim).G1
	if g.GLV() != nil {
		t.Fatal("MNT4753-sim (A != 0) must not report a GLV endomorphism")
	}
}

func checkDecompose(t testing.TB, g *Group, k *big.Int) {
	v := g.GLV()
	r := g.Fr.Modulus()
	k1, k2 := v.Decompose(k)
	re := new(big.Int).Mul(k2, v.Lambda)
	re.Add(re, k1)
	re.Mod(re, r)
	if re.Cmp(new(big.Int).Mod(k, r)) != 0 {
		t.Fatalf("%s: k1 + k2·λ != k mod r for k=%v", g.Name, k)
	}
	if k1.BitLen() > v.HalfBits || k2.BitLen() > v.HalfBits {
		t.Fatalf("%s: decomposition not short: |k1|=%d |k2|=%d bits > %d",
			g.Name, k1.BitLen(), k2.BitLen(), v.HalfBits)
	}
}

func TestGLVDecompose(t *testing.T) {
	for _, g := range glvGroups(t) {
		v := g.GLV()
		r := g.Fr.Modulus()
		rng := mrand.New(mrand.NewSource(11))
		edge := []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(2),
			new(big.Int).Sub(r, big.NewInt(1)),
			new(big.Int).Set(v.Lambda),
			new(big.Int).Sub(r, v.Lambda),
		}
		for i := 0; i < 24; i++ {
			edge = append(edge, new(big.Int).Rand(rng, r))
		}
		ops := g.NewOps()
		p := ops.ToAffine(ops.ScalarMul(g.Generator(), big.NewInt(31337)))
		phiP := v.Phi(p)
		for _, k := range edge {
			checkDecompose(t, g, k)
			// The split evaluates correctly: k·P == k1·P + k2·φ(P).
			k1, k2 := v.Decompose(k)
			want := ops.ScalarMul(p, new(big.Int).Mod(k, r))
			got := ops.ScalarMul(p, k1)
			part := ops.ScalarMul(phiP, k2)
			ops.AddAssign(got, part)
			if !ops.Equal(got, want) {
				t.Fatalf("%s: k1·P + k2·φ(P) != k·P for k=%v", g.Name, k)
			}
		}
	}
}

// FuzzGLVDecompose checks the GLV invariants on arbitrary scalars: the
// recomposition k1 + k2·λ matches the original scalar mod r and both
// halves respect the proven bit bound. Run by the CI differential-fuzz leg.
func FuzzGLVDecompose(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(Get(BN254).Fr.Modulus().Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		k := new(big.Int).SetBytes(raw)
		for _, id := range []ID{BN254, BLS12381} {
			checkDecompose(t, Get(id).G1, k)
		}
	})
}

func TestSubMixedAssign(t *testing.T) {
	for _, g := range glvGroups(t) {
		ops := g.NewOps()
		gen := g.Generator()
		rng := mrand.New(mrand.NewSource(3))
		for i := 0; i < 8; i++ {
			a := new(big.Int).Rand(rng, g.Fr.Modulus())
			b := new(big.Int).Rand(rng, g.Fr.Modulus())
			p := ops.ScalarMul(gen, a)
			q := ops.ToAffine(ops.ScalarMul(gen, b))
			var got Jacobian
			ops.Copy(&got, p)
			ops.SubMixedAssign(&got, q)
			want := ops.ScalarMul(gen, new(big.Int).Sub(a, b))
			if !ops.Equal(&got, want) {
				t.Fatalf("%s: p - q mismatch", g.Name)
			}
		}
		// Edge cases: p - p = ∞; ∞ - q = -q; doubling case p - (-p) = 2p.
		five := ops.ToAffine(ops.ScalarMul(gen, big.NewInt(5)))
		var d Jacobian
		ops.FromAffine(&d, five)
		ops.SubMixedAssign(&d, five)
		if !ops.IsInfinity(&d) {
			t.Fatalf("%s: p - p != ∞", g.Name)
		}
		ops.SetInfinity(&d)
		ops.SubMixedAssign(&d, five)
		want := ops.ScalarMul(gen, big.NewInt(-5))
		if !ops.Equal(&d, want) {
			t.Fatalf("%s: ∞ - q != -q", g.Name)
		}
		ops.FromAffine(&d, five)
		ops.SubMixedAssign(&d, g.NegAffine(five))
		want = ops.ScalarMul(gen, big.NewInt(10))
		if !ops.Equal(&d, want) {
			t.Fatalf("%s: p - (-p) != 2p", g.Name)
		}
		// Subtracting ∞ is a no-op.
		ops.FromAffine(&d, five)
		ops.SubMixedAssign(&d, g.Infinity())
		ops.FromAffine(want, five)
		if !ops.Equal(&d, want) {
			t.Fatalf("%s: p - ∞ != p", g.Name)
		}
	}
}
