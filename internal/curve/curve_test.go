package curve

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

func allCurves(t testing.TB) []*Curve {
	t.Helper()
	out := make([]*Curve, 0, len(IDs))
	for _, id := range IDs {
		out = append(out, Get(id))
	}
	return out
}

func allGroups(t testing.TB) []*Group {
	var gs []*Group
	for _, c := range allCurves(t) {
		gs = append(gs, c.G1)
		if c.G2 != nil {
			gs = append(gs, c.G2)
		}
	}
	return gs
}

func TestParamsSane(t *testing.T) {
	for _, c := range allCurves(t) {
		if !c.Fq.Modulus().ProbablyPrime(32) {
			t.Errorf("%s: q not prime", c.Name)
		}
		if !c.Fr.Modulus().ProbablyPrime(32) {
			t.Errorf("%s: r not prime", c.Name)
		}
	}
	// Bit widths must match the paper's Table 1.
	if got := Get(BN254).Fq.Bits(); got != 254 {
		t.Errorf("BN254 q bits = %d", got)
	}
	if got := Get(BLS12381).Fq.Bits(); got != 381 {
		t.Errorf("BLS12-381 q bits = %d", got)
	}
	if got := Get(MNT4753Sim).Fq.Bits(); got != 753 {
		t.Errorf("MNT4753-sim q bits = %d", got)
	}
	// NTT-friendly scalar fields.
	if s := Get(BN254).Fr.TwoAdicity(); s < 28 {
		t.Errorf("BN254 two-adicity %d < 28", s)
	}
	if s := Get(BLS12381).Fr.TwoAdicity(); s < 32 {
		t.Errorf("BLS12-381 two-adicity %d < 32", s)
	}
	if s := Get(MNT4753Sim).Fr.TwoAdicity(); s < 31 {
		t.Errorf("MNT4753-sim two-adicity %d < 31", s)
	}
}

func TestGeneratorsValid(t *testing.T) {
	for _, g := range allGroups(t) {
		gen := g.Generator()
		if gen.Inf {
			t.Fatalf("%s: generator is infinity", g.Name)
		}
		if !g.IsOnCurve(gen) {
			t.Fatalf("%s: generator off curve", g.Name)
		}
		if g.Cofactor != nil {
			// r * gen == O.
			ops := g.NewOps()
			if !ops.IsInfinity(ops.ScalarMul(gen, g.Fr.Modulus())) {
				t.Fatalf("%s: generator does not have order r", g.Name)
			}
		}
	}
}

func TestGroupLaws(t *testing.T) {
	for _, g := range allGroups(t) {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			ops := g.NewOps()
			gen := g.Generator()
			// Deterministic pseudo-random points: small multiples of gen.
			pt := func(k int64) *Jacobian { return ops.ScalarMul(gen, big.NewInt(k)) }

			// Commutativity: P+Q == Q+P.
			p, q := pt(97), pt(131)
			pq := &Jacobian{}
			ops.Copy(pq, p)
			ops.AddAssign(pq, q)
			qp := &Jacobian{}
			ops.Copy(qp, q)
			ops.AddAssign(qp, p)
			if !ops.Equal(pq, qp) {
				t.Fatal("addition not commutative")
			}
			// Associativity: (P+Q)+R == P+(Q+R).
			r := pt(251)
			lhs := &Jacobian{}
			ops.Copy(lhs, pq)
			ops.AddAssign(lhs, r)
			qr := &Jacobian{}
			ops.Copy(qr, q)
			ops.AddAssign(qr, r)
			rhs := &Jacobian{}
			ops.Copy(rhs, p)
			ops.AddAssign(rhs, qr)
			if !ops.Equal(lhs, rhs) {
				t.Fatal("addition not associative")
			}
			// Identity and inverse.
			var inf Jacobian
			ops.SetInfinity(&inf)
			pcopy := &Jacobian{}
			ops.Copy(pcopy, p)
			ops.AddAssign(pcopy, &inf)
			if !ops.Equal(pcopy, p) {
				t.Fatal("P + O != P")
			}
			negp := &Jacobian{}
			ops.Copy(negp, p)
			ops.NegAssign(negp)
			ops.AddAssign(negp, p)
			if !ops.IsInfinity(negp) {
				t.Fatal("P + (-P) != O")
			}
			// Double == add-to-self (exercises the H==0,r==0 branch).
			d1 := &Jacobian{}
			ops.Copy(d1, p)
			ops.DoubleAssign(d1)
			d2 := &Jacobian{}
			ops.Copy(d2, p)
			ops.AddAssign(d2, p)
			if !ops.Equal(d1, d2) {
				t.Fatal("2P != P+P via AddAssign")
			}
			// Mixed addition agrees with full addition.
			qa := ops.ToAffine(q)
			m := &Jacobian{}
			ops.Copy(m, p)
			ops.AddMixedAssign(m, qa)
			if !ops.Equal(m, pq) {
				t.Fatal("mixed add disagrees with full add")
			}
			// Mixed add of the same point doubles (H==0 branch).
			pa := ops.ToAffine(p)
			md := &Jacobian{}
			ops.Copy(md, p)
			ops.AddMixedAssign(md, pa)
			if !ops.Equal(md, d1) {
				t.Fatal("mixed add P+P != 2P")
			}
			// Mixed add of the negation gives infinity.
			mn := &Jacobian{}
			ops.Copy(mn, p)
			ops.AddMixedAssign(mn, g.NegAffine(pa))
			if !ops.IsInfinity(mn) {
				t.Fatal("mixed add P+(-P) != O")
			}
			// Scalar-mul distributivity: (a+b)G == aG + bG.
			ab := ops.ScalarMul(gen, big.NewInt(97+131))
			if !ops.Equal(ab, pq) {
				t.Fatal("(a+b)G != aG + bG")
			}
			// ToAffine stays on curve.
			if !g.IsOnCurve(ops.ToAffine(lhs)) {
				t.Fatal("sum left the curve")
			}
		})
	}
}

func TestScalarMulEdge(t *testing.T) {
	g := Get(BN254).G1
	ops := g.NewOps()
	gen := g.Generator()
	if !ops.IsInfinity(ops.ScalarMul(gen, big.NewInt(0))) {
		t.Fatal("0*G != O")
	}
	one := ops.ToAffine(ops.ScalarMul(gen, big.NewInt(1)))
	if !g.EqualAffine(one, gen) {
		t.Fatal("1*G != G")
	}
	// Negative scalar: (-k)G == -(kG).
	k := big.NewInt(12345)
	neg := ops.ScalarMul(gen, new(big.Int).Neg(k))
	pos := ops.ScalarMul(gen, k)
	ops.NegAssign(pos)
	if !ops.Equal(neg, pos) {
		t.Fatal("(-k)G != -(kG)")
	}
	// Scalar-field element path.
	rng := mrand.New(mrand.NewSource(1))
	s := g.Fr.Rand(rng)
	a := ops.ScalarMulElement(gen, s)
	b := ops.ScalarMul(gen, g.Fr.ToBig(s))
	if !ops.Equal(a, b) {
		t.Fatal("ScalarMulElement mismatch")
	}
	// Infinity base.
	if !ops.IsInfinity(ops.ScalarMul(g.Infinity(), big.NewInt(7))) {
		t.Fatal("k*O != O")
	}
}

func TestOrderAnnihilates(t *testing.T) {
	// For curves with known subgroup structure, r kills every r-subgroup
	// point; exercised on random multiples.
	for _, c := range allCurves(t) {
		if c.G1.Cofactor == nil {
			continue
		}
		g := c.G1
		ops := g.NewOps()
		rng := mrand.New(mrand.NewSource(2))
		for i := 0; i < 3; i++ {
			p := ops.ScalarMulElement(g.Generator(), g.Fr.Rand(rng))
			if !ops.IsInfinity(ops.ScalarMul(ops.ToAffine(p), g.Fr.Modulus())) {
				t.Fatalf("%s: r*P != O", g.Name)
			}
		}
	}
}

func TestBatchToAffine(t *testing.T) {
	for _, g := range allGroups(t) {
		ops := g.NewOps()
		gen := g.Generator()
		pts := make([]Jacobian, 9)
		want := make([]Affine, len(pts))
		for i := range pts {
			if i == 4 {
				ops.SetInfinity(&pts[i])
				want[i] = Affine{Inf: true}
				continue
			}
			p := ops.ScalarMul(gen, big.NewInt(int64(3*i+2)))
			ops.Copy(&pts[i], p)
			want[i] = ops.ToAffine(p)
		}
		got := g.BatchToAffine(pts)
		for i := range got {
			if !g.EqualAffine(got[i], want[i]) {
				t.Fatalf("%s: BatchToAffine[%d] mismatch", g.Name, i)
			}
		}
	}
	// Empty batch must not panic.
	Get(BN254).G1.BatchToAffine(nil)
}

// TestBatchToAffineAllocs: BatchToAffine writes every point into one limb
// slab — at most 4 allocations for 1024 points, whatever the group — with
// each coordinate capped at its own words, and still equals per-point
// ToAffine, with every third point at infinity (Z = 0) and on an empty
// batch.
func TestBatchToAffineAllocs(t *testing.T) {
	const n = 1024
	for _, g := range allGroups(t) {
		ops := g.NewOps()
		var step Jacobian
		ops.FromAffine(&step, g.Generator())
		ops.DoubleAssign(&step)
		pts := make([]Jacobian, n)
		var acc Jacobian
		ops.FromAffine(&acc, g.Generator())
		for i := range pts {
			ops.AddAssign(&acc, &step) // Z ≠ 1: a real normalisation
			if ops.Copy(&pts[i], &acc); i%3 == 0 {
				ops.SetInfinity(&pts[i])
			}
		}
		got := g.BatchToAffine(pts)
		for i := range pts {
			if want := ops.ToAffine(&pts[i]); !g.EqualAffine(got[i], want) || got[i].Inf != want.Inf {
				t.Fatalf("%s: BatchToAffine[%d] differs from ToAffine", g.Name, i)
			}
			if w := g.K.Words(); !got[i].Inf && (cap(got[i].X) != w || cap(got[i].Y) != w) {
				t.Fatalf("%s: BatchToAffine[%d] coordinates have capacity %d/%d, want %d: an append would reach the next point", g.Name, i, cap(got[i].X), cap(got[i].Y), w)
			}
		}
		allocs := testing.AllocsPerRun(10, func() { g.BatchToAffine(pts) })
		t.Logf("%s: %v allocations for %d points", g.Name, allocs, n)
		if allocs > 4 {
			t.Errorf("%s: %v allocations for %d points, want ≤ 4", g.Name, allocs, n)
		}
		if out := g.BatchToAffine(nil); len(out) != 0 {
			t.Fatalf("%s: %d points from an empty batch", g.Name, len(out))
		}
	}
}

func TestFindPoint(t *testing.T) {
	for _, g := range allGroups(t) {
		p, err := g.FindPoint(1)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if !g.IsOnCurve(p) {
			t.Fatalf("%s: FindPoint returned off-curve point", g.Name)
		}
	}
}

func TestNegAffine(t *testing.T) {
	g := Get(BLS12381).G1
	gen := g.Generator()
	n := g.NegAffine(gen)
	if !g.IsOnCurve(n) {
		t.Fatal("-G off curve")
	}
	if g.EqualAffine(n, gen) {
		t.Fatal("-G == G for odd-order generator")
	}
	if !g.EqualAffine(g.NegAffine(n), gen) {
		t.Fatal("--G != G")
	}
	inf := g.NegAffine(g.Infinity())
	if !inf.Inf {
		t.Fatal("-O != O")
	}
}

func TestG2TwistStructure(t *testing.T) {
	// G2 subgroups must have order r and nontrivial cofactor.
	for _, id := range []ID{BN254, BLS12381} {
		c := Get(id)
		if c.G2 == nil {
			t.Fatalf("%s: missing G2", c.Name)
		}
		if c.G2.Cofactor == nil || c.G2.Cofactor.Cmp(big.NewInt(1)) <= 0 {
			t.Fatalf("%s: G2 cofactor missing or trivial", c.Name)
		}
		ops := c.G2.NewOps()
		if !ops.IsInfinity(ops.ScalarMul(c.G2.Generator(), c.Fr.Modulus())) {
			t.Fatalf("%s: G2 generator order != r", c.Name)
		}
	}
}

// benchGroups lists every group with its benchmark label: G1 of each
// curve, plus G2 where the curve has one.
func benchGroups() (names []string, groups []*Group) {
	for _, id := range IDs {
		c := Get(id)
		names, groups = append(names, c.Name+"/G1"), append(groups, c.G1)
		if c.G2 != nil {
			names, groups = append(names, c.Name+"/G2"), append(groups, c.G2)
		}
	}
	return names, groups
}

func BenchmarkAddMixed(b *testing.B) {
	names, groups := benchGroups()
	for i, g := range groups {
		ops := g.NewOps()
		p := ops.ScalarMul(g.Generator(), big.NewInt(1234567))
		qa := ops.ToAffine(ops.ScalarMul(g.Generator(), big.NewInt(7654321)))
		b.Run(names[i], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ops.AddMixedAssign(p, qa)
			}
		})
	}
}

func BenchmarkDouble(b *testing.B) {
	names, groups := benchGroups()
	for i, g := range groups {
		ops := g.NewOps()
		p := ops.ScalarMul(g.Generator(), big.NewInt(1234567))
		b.Run(names[i], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ops.DoubleAssign(p)
			}
		})
	}
}

// TestPointFormulasDoNotAllocate: the bucket-accumulation workhorses run
// allocation-free in both groups of both pairing curves — G2 because its
// coordinate field binds to the tower's fixed-width Fq2 kernels.
func TestPointFormulasDoNotAllocate(t *testing.T) {
	for _, id := range []ID{BN254, BLS12381} {
		c := Get(id)
		if c.Fq2.Fast() == nil || c.KFull.Fast() == nil {
			t.Fatalf("%s: tower not bound to the fast kernels", c.Name)
		}
		for _, g := range []*Group{c.G1, c.G2} {
			ops := g.NewOps()
			p := ops.ScalarMul(g.Generator(), big.NewInt(1234567))
			qa := ops.ToAffine(ops.ScalarMul(g.Generator(), big.NewInt(7654321)))
			if a := testing.AllocsPerRun(50, func() { ops.AddMixedAssign(p, qa) }); a != 0 {
				t.Errorf("%s AddMixedAssign: %v allocs/op, want 0", g.Name, a)
			}
			if a := testing.AllocsPerRun(50, func() { ops.SubMixedAssign(p, qa) }); a != 0 {
				t.Errorf("%s SubMixedAssign: %v allocs/op, want 0", g.Name, a)
			}
			if a := testing.AllocsPerRun(50, func() { ops.DoubleAssign(p) }); a != 0 {
				t.Errorf("%s DoubleAssign: %v allocs/op, want 0", g.Name, a)
			}
		}
	}
	if c := Get(MNT4753Sim); c.Fq2 != nil {
		t.Fatal("MNT4753-sim grew a pairing tower; revisit which shapes bind fast")
	}
}
