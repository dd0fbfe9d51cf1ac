package pairing

import (
	"math/big"
	mrand "math/rand"
	"testing"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/tower"
)

func testEngines(t testing.TB) []*Engine {
	t.Helper()
	var out []*Engine
	for _, id := range []curve.ID{curve.BN254, curve.BLS12381} {
		e, err := New(curve.Get(id))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

// tate is the reduced Tate pairing the package shipped before the optimal
// ate one: f_{r,P}(ψ(Q))^((q^k-1)/r) with Q untwisted into E(Fq^k), the
// Miller loop over all bits of r in three passes (Jacobian trace → batch
// affine → batch slope inversion → accumulation) and the final
// exponentiation one generic Exp. It shares no line formula, loop scalar or
// exponent chain with the shipped engine, which makes it the accept/reject
// oracle for it (the two pairings differ as maps, not as verdicts).
type tate struct {
	c        *curve.Curve
	fq       *ff.Field
	k        *tower.Ext // full tower Fq^k
	fq6, fq2 *tower.Ext
	w2, w3   []uint64 // untwist factors for x and y (w², w³ or their inverses)
	exp      *big.Int // (q^k - 1)/r
	rBig     *big.Int
}

func newTate(t testing.TB, c *curve.Curve) *tate {
	t.Helper()
	k := c.KFull
	fq6 := k.Base().(*tower.Ext)
	// w = the adjoined root of the top-level extension.
	w := k.Zero()
	k.SetCoeff(w, 1, fq6.One())
	w2 := k.Mul(k.Zero(), w, w)
	w3 := k.Mul(k.Zero(), w2, w)
	if c.TwistIsM {
		w2 = k.Inverse(w2)
		w3 = k.Inverse(w3)
	}
	r := c.Fr.Modulus()
	qk := new(big.Int).Exp(c.Fq.Modulus(), big.NewInt(int64(c.Embedding)), nil)
	exp, rem := new(big.Int).QuoRem(qk.Sub(qk, big.NewInt(1)), r, new(big.Int))
	if rem.Sign() != 0 {
		t.Fatalf("r does not divide q^k-1 for %s", c.Name)
	}
	return &tate{c: c, fq: c.Fq, k: k, fq6: fq6, fq2: c.Fq2, w2: w2, w3: w3, exp: exp, rBig: r}
}

// embedFq lifts a base-field scalar into Fq^k.
func (e *tate) embedFq(c ff.Element) []uint64 {
	return e.k.FromBase(e.fq6.FromBase(e.fq2.FromBase(c)))
}

// embedFq2 lifts an Fq2 element into Fq^k.
func (e *tate) embedFq2(c []uint64) []uint64 {
	return e.k.FromBase(e.fq6.FromBase(c))
}

// untwist maps a G2 (twist-curve) point into E(Fq^k).
func (e *tate) untwist(q curve.Affine) (x, y []uint64) {
	x = e.k.Mul(e.k.Zero(), e.embedFq2(q.X), e.w2)
	y = e.k.Mul(e.k.Zero(), e.embedFq2(q.Y), e.w3)
	return x, y
}

func (e *tate) pairingCheck(ps, qs []curve.Affine) bool {
	acc := e.k.One()
	for i := range ps {
		e.k.Mul(acc, acc, e.millerLoop(ps[i], qs[i]))
	}
	return e.k.IsOne(e.k.Exp(acc, e.exp))
}

// millerEvent records one line evaluation in execution order.
type millerEvent struct {
	isDouble bool
	vertical bool // line is x - x_T (final cancellation step)
	ptIdx    int  // index of the affine T at which the line is anchored
}

func (e *tate) millerLoop(p, q curve.Affine) []uint64 {
	if p.Inf || q.Inf {
		return e.k.One()
	}
	g1 := e.c.G1
	ops := g1.NewOps()
	fq := e.fq

	// Pass 1: trace the double-and-add walk in Jacobian coordinates,
	// recording the point T *before* each line-producing step.
	var events []millerEvent
	var trace []curve.Jacobian
	record := func(t *curve.Jacobian) int {
		var cp curve.Jacobian
		ops.Copy(&cp, t)
		trace = append(trace, cp)
		return len(trace) - 1
	}
	var t curve.Jacobian
	ops.FromAffine(&t, p)
	r := e.rBig
	for i := r.BitLen() - 2; i >= 0; i-- {
		events = append(events, millerEvent{isDouble: true, ptIdx: record(&t)})
		ops.DoubleAssign(&t)
		if r.Bit(i) == 1 {
			events = append(events, millerEvent{isDouble: false, ptIdx: record(&t)})
			ops.AddMixedAssign(&t, p)
		}
	}

	// Pass 2: batch-normalize the trace and invert the slope denominators.
	aff := g1.BatchToAffine(trace)
	dens := make([]ff.Element, len(events))
	for i, ev := range events {
		tp := aff[ev.ptIdx]
		switch {
		case tp.Inf:
			dens[i] = fq.One() // placeholder; line becomes 1
		case ev.isDouble:
			dens[i] = fq.Double(fq.New(), tp.Y) // 2y
		case fq.Equal(tp.X, p.X) && !fq.Equal(tp.Y, p.Y):
			// T == -P: vertical line (final step of the loop).
			events[i].vertical = true
			dens[i] = fq.One()
		default:
			dens[i] = fq.Sub(fq.New(), tp.X, p.X) // x_T - x_P
		}
	}
	for _, d := range dens {
		fq.InverseTo(d, d)
	}

	// Pass 3: accumulate f with line evaluations at ψ(Q).
	xq, yq := e.untwist(q)
	K := e.k
	f := K.One()
	lam, num := fq.New(), fq.New()
	l, tmp := K.Zero(), K.Zero()
	for i, ev := range events {
		if ev.isDouble {
			K.Square(f, f)
		}
		tp := aff[ev.ptIdx]
		if tp.Inf {
			continue // T = O: line contribution is 1
		}
		if ev.vertical {
			K.Sub(l, xq, e.embedFq(tp.X)) // l = x_Q - x_T
			K.Mul(f, f, l)
			continue
		}
		if ev.isDouble {
			// λ = (3x² + a) / 2y
			fq.Square(num, tp.X)
			fq.Add(lam, fq.Double(fq.New(), num), num)
			fq.Add(lam, lam, g1.A)
			fq.Mul(lam, lam, dens[i])
		} else {
			// λ = (y_T - y_P) / (x_T - x_P)
			fq.Sub(num, tp.Y, p.Y)
			fq.Mul(lam, num, dens[i])
		}
		// l = (y_Q - y_T) - λ (x_Q - x_T)
		K.Sub(tmp, xq, e.embedFq(tp.X))
		K.MulByBase(tmp, tmp, lam)
		K.Sub(l, yq, e.embedFq(tp.Y))
		K.Sub(l, l, tmp)
		K.Mul(f, f, l)
	}
	return f
}

func TestUnsupportedCurve(t *testing.T) {
	if _, err := New(curve.Get(curve.MNT4753Sim)); err == nil {
		t.Fatal("MNT4753-sim must not support pairing")
	}
}

func TestEngineIsPerCurveSingleton(t *testing.T) {
	for _, e := range testEngines(t) {
		again, err := New(e.c)
		if err != nil || again != e {
			t.Fatalf("%s: New built a second engine (err %v)", e.c.Name, err)
		}
	}
}

func TestUntwistOnCurve(t *testing.T) {
	// The oracle's ψ(Q) must land on E(Fq^k): y² = x³ + b (a = 0 for both curves).
	for _, e := range testEngines(t) {
		o := newTate(t, e.c)
		x, y := o.untwist(e.c.G2.Generator())
		K := o.k
		lhs := K.Square(K.Zero(), y)
		rhs := K.Square(K.Zero(), x)
		K.Mul(rhs, rhs, x)
		K.Add(rhs, rhs, o.embedFq(e.c.G1.B))
		if !K.Equal(lhs, rhs) {
			t.Fatalf("%s: untwisted G2 generator off E(Fq^k)", e.c.Name)
		}
	}
}

func TestNonDegenerate(t *testing.T) {
	for _, e := range testEngines(t) {
		gt := e.Pair(e.c.G1.Generator(), e.c.G2.Generator())
		if e.gt.IsOne(gt) {
			t.Fatalf("%s: e(G1, G2) == 1 (degenerate)", e.c.Name)
		}
		// GT element must have order dividing r: gt^r == 1.
		if !e.gt.IsOne(e.gt.Exp(gt, e.c.Fr.Modulus())) {
			t.Fatalf("%s: e(G1,G2)^r != 1", e.c.Name)
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	for _, e := range testEngines(t) {
		inf1 := e.c.G1.Infinity()
		inf2 := e.c.G2.Infinity()
		if !e.gt.IsOne(e.Pair(inf1, e.c.G2.Generator())) {
			t.Fatalf("%s: e(O, Q) != 1", e.c.Name)
		}
		if !e.gt.IsOne(e.Pair(e.c.G1.Generator(), inf2)) {
			t.Fatalf("%s: e(P, O) != 1", e.c.Name)
		}
		ok, err := e.PairingCheck([]curve.Affine{inf1, e.c.G1.Generator()}, []curve.Affine{e.c.G2.Generator(), inf2})
		if err != nil || !ok {
			t.Fatalf("%s: product of degenerate pairs = %v, %v", e.c.Name, ok, err)
		}
	}
}

func TestBilinearity(t *testing.T) {
	for _, e := range testEngines(t) {
		e := e
		t.Run(e.c.Name, func(t *testing.T) {
			c := e.c
			ops1, ops2 := c.G1.NewOps(), c.G2.NewOps()
			g1, g2 := c.G1.Generator(), c.G2.Generator()
			rng := mrand.New(mrand.NewSource(1))
			a := new(big.Int).Rand(rng, c.Fr.Modulus())
			b := new(big.Int).Rand(rng, c.Fr.Modulus())

			aP := ops1.ToAffine(ops1.ScalarMul(g1, a))
			bQ := ops2.ToAffine(ops2.ScalarMul(g2, b))

			// e(aP, bQ) == e(P, Q)^(ab)
			lhs := e.Pair(aP, bQ)
			base := e.Pair(g1, g2)
			ab := new(big.Int).Mul(a, b)
			rhs := e.gt.Exp(base, ab.Mod(ab, c.Fr.Modulus()))
			if !e.gt.Equal(lhs, rhs) {
				t.Fatal("e(aP,bQ) != e(P,Q)^ab")
			}
			// e(aP, Q) == e(P, aQ)
			aQ := ops2.ToAffine(ops2.ScalarMul(g2, a))
			if !e.gt.Equal(e.Pair(aP, g2), e.Pair(g1, aQ)) {
				t.Fatal("e(aP,Q) != e(P,aQ)")
			}
			// e(P+P', Q) == e(P,Q)·e(P',Q)
			p2 := ops1.ToAffine(ops1.ScalarMul(g1, big.NewInt(77)))
			sum := &curve.Jacobian{}
			ops1.FromAffine(sum, aP)
			ops1.AddMixedAssign(sum, p2)
			sumA := ops1.ToAffine(sum)
			lhs2 := e.Pair(sumA, g2)
			rhs2 := e.gt.Mul(e.gt.Zero(), e.Pair(aP, g2), e.Pair(p2, g2))
			if !e.gt.Equal(lhs2, rhs2) {
				t.Fatal("pairing not additive in first argument")
			}
		})
	}
}

// TestFinalExpMatchesGenericExp pins the addition chains to the exponent:
// FinalExp(f) must be f^((q^k-1)/r) raised to the documented multiple.
func TestFinalExpMatchesGenericExp(t *testing.T) {
	for _, e := range testEngines(t) {
		o := newTate(t, e.c)
		x := e.c.X
		mult := big.NewInt(3) // BLS12
		if e.bn {
			// 2x(6x²+3x+1)
			mult.Mul(x, x).Mul(mult, big.NewInt(6)).Add(mult, new(big.Int).Mul(x, big.NewInt(3)))
			mult.Add(mult, big.NewInt(1)).Mul(mult, x).Lsh(mult, 1)
		}
		if new(big.Int).GCD(nil, nil, mult, o.rBig).Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("%s: final-exponent multiple shares a factor with r", e.c.Name)
		}
		rng := mrand.New(mrand.NewSource(3))
		f := e.gt.Rand(rng)
		want := e.gt.Exp(f, new(big.Int).Mul(o.exp, mult))
		if !e.gt.Equal(e.FinalExp(f), want) {
			t.Fatalf("%s: FinalExp disagrees with the generic exponentiation", e.c.Name)
		}
	}
}

// TestMultiMillerIsProduct checks the shared squaring chain against one
// loop per pair, with prepared and live lines mixed.
func TestMultiMillerIsProduct(t *testing.T) {
	for _, e := range testEngines(t) {
		c := e.c
		ops1, ops2 := c.G1.NewOps(), c.G2.NewOps()
		p := ops1.ToAffine(ops1.ScalarMul(c.G1.Generator(), big.NewInt(12345)))
		q := ops2.ToAffine(ops2.ScalarMul(c.G2.Generator(), big.NewInt(6789)))
		lq := e.Prepare(q)
		got := e.MillerLoopLines(
			[]curve.Affine{p, c.G1.Generator(), c.G1.Infinity()},
			[]*Lines{lq, e.Prepare(c.G2.Generator()), lq})
		want := e.gt.Mul(e.gt.Zero(), e.MillerLoop(p, q), e.MillerLoop(c.G1.Generator(), c.G2.Generator()))
		if !e.gt.Equal(got, want) {
			t.Fatalf("%s: multi-pair Miller loop is not the product of the single ones", c.Name)
		}
	}
}

func TestPairingCheck(t *testing.T) {
	e := testEngines(t)[0]
	c := e.c
	ops1, ops2 := c.G1.NewOps(), c.G2.NewOps()
	g1, g2 := c.G1.Generator(), c.G2.Generator()
	// e(2P, Q) * e(-P, 2Q) == 1 (since 2ab - 2ab = 0 in the exponent).
	p2 := ops1.ToAffine(ops1.ScalarMul(g1, big.NewInt(2)))
	q2 := ops2.ToAffine(ops2.ScalarMul(g2, big.NewInt(2)))
	negP := c.G1.NegAffine(g1)
	ok, err := e.PairingCheck(
		[]curve.Affine{p2, negP},
		[]curve.Affine{g2, q2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("valid pairing product rejected")
	}
	// Perturbed product must fail.
	ok, err = e.PairingCheck(
		[]curve.Affine{p2, g1},
		[]curve.Affine{g2, q2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("invalid pairing product accepted")
	}
	// Length mismatch errors.
	if _, err := e.PairingCheck([]curve.Affine{g1}, nil); err == nil {
		t.Fatal("length mismatch not reported")
	}
}

// TestPairingCheckAgreesWithTate draws random 4-pair products whose
// exponents sum to zero (valid) or to one (invalid) and requires the
// optimal ate engine and the Tate oracle to return the same verdict — the
// right one — on each.
func TestPairingCheckAgreesWithTate(t *testing.T) {
	n := 64
	if testing.Short() {
		n = 4
	}
	for _, e := range testEngines(t) {
		e := e
		t.Run(e.c.Name, func(t *testing.T) {
			c, o := e.c, newTate(t, e.c)
			r := c.Fr.Modulus()
			ops1, ops2 := c.G1.NewOps(), c.G2.NewOps()
			rng := mrand.New(mrand.NewSource(11))
			for i := 0; i < 2*n; i++ {
				valid := i%2 == 0
				var as, bs [4]*big.Int
				sum := new(big.Int)
				for j := range as {
					as[j] = new(big.Int).Add(new(big.Int).Rand(rng, new(big.Int).Sub(r, big.NewInt(1))), big.NewInt(1))
					bs[j] = new(big.Int).Rand(rng, r)
					if j < 3 {
						sum.Add(sum, new(big.Int).Mul(as[j], bs[j]))
					}
				}
				// b₃ = -(Σ_{j<3} aⱼbⱼ)/a₃, plus one when the tuple is to be invalid.
				bs[3].Mul(sum.Neg(sum), new(big.Int).ModInverse(as[3], r)).Mod(bs[3], r)
				if !valid {
					bs[3].Add(bs[3], big.NewInt(1))
				}
				ps, qs := make([]curve.Affine, 4), make([]curve.Affine, 4)
				for j := range as {
					ps[j] = ops1.ToAffine(ops1.ScalarMul(c.G1.Generator(), as[j]))
					qs[j] = ops2.ToAffine(ops2.ScalarMul(c.G2.Generator(), bs[j]))
				}
				got, err := e.PairingCheck(ps, qs)
				if err != nil {
					t.Fatal(err)
				}
				if want := o.pairingCheck(ps, qs); got != want || got != valid {
					t.Fatalf("tuple %d (valid=%v): optimal ate says %v, Tate says %v", i, valid, got, want)
				}
			}
		})
	}
}

func BenchmarkPair(b *testing.B) {
	for _, e := range testEngines(b) {
		e := e
		b.Run(e.c.Name, func(b *testing.B) {
			p, q := e.c.G1.Generator(), e.c.G2.Generator()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Pair(p, q)
			}
		})
	}
}

func BenchmarkMillerLoop(b *testing.B) {
	e := testEngines(b)[0]
	p, q := e.c.G1.Generator(), e.c.G2.Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MillerLoop(p, q)
	}
}

func BenchmarkFinalExp(b *testing.B) {
	e := testEngines(b)[0]
	f := e.MillerLoop(e.c.G1.Generator(), e.c.G2.Generator())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.FinalExp(f)
	}
}
