// Package pairing implements the optimal ate pairing e: G1 × G2 → GT that
// every Groth16 verification runs on — the client's, and the proving
// service's, which checks each proof it returns and so spends its warm-path
// time here rather than in the prover GZKP accelerates (§7: the protocol,
// and with it the verifier, is unchanged).
//
//	e(P, Q) = (f_{s,Q}(P) · tail)^((q¹²-1)/r),  s = 6x+2 on BN254, |x| on BLS12-381,
//
// with Q ∈ G2(Fq2) kept on the twist: the Miller loop walks T = [·]Q in
// homogeneous projective coordinates over Fq2 and each tangent or chord is
// a sparse Fq12 element with three Fq2 coefficients (D-type twist: at
// 1, w, w³; M-type: at 1, w², w³), folded into the accumulator by
// tower.Fast's MulBy034 / MulBy014. The lines depend on Q only, so Prepare
// computes them once (Lines) and MillerLoopLines replays them against any
// number of (P, Lines) pairs under one shared squaring chain; a verifying
// key prepares its fixed G2 points once and for all. BN254 finishes with
// the two Frobenius chords through π(Q) and -π²(Q); BLS12-381's negative x
// conjugates. The final exponentiation is the easy part (q⁶-1)(q²+1) by
// conjugation, one inversion and two Frobenius maps, then the hard part
// (q⁴-q²+1)/r as a short chain of exponentiations by x over Granger–Scott
// cyclotomic squarings.
//
// The reduced Tate pairing this replaces lives on in pairing_test.go as
// the accept/reject oracle.
package pairing

import (
	"fmt"
	"math/big"
	"math/bits"
	"sync"

	"gzkp/internal/curve"
	"gzkp/internal/tower"
)

// GT is an element of the target group (subgroup of Fq^k*), flattened.
type GT = []uint64

// Engine holds one curve's pairing constants. It is immutable after New
// and safe for concurrent use.
type Engine struct {
	c    *curve.Curve
	gt   *tower.Ext  // Fq12
	k    *tower.Fast // the kernels gt, Fq6 and Fq2 are bound to
	w    int         // words per Fq2 element
	loop *big.Int    // Miller loop scalar s
	bn   bool        // BN family: Frobenius tail lines, BN hard part
	xAbs uint64      // |x|
	xNeg bool
}

// Lines is a G2 point prepared for the Miller loop: the (y, x, constant)
// Fq2 coefficient triple of every line the loop evaluates, in loop order.
// It is read-only once built.
type Lines struct {
	coeffs []uint64 // nil for the point at infinity
}

var engines [curve.MNT4753Sim + 1]struct {
	once sync.Once
	e    *Engine
	err  error
}

// New returns the curve's pairing engine, built on first use and shared
// afterwards; the curve must carry a pairing tower.
func New(c *curve.Curve) (*Engine, error) {
	if !c.PairingSupported() {
		return nil, fmt.Errorf("pairing: %s has no pairing tower", c.Name)
	}
	s := &engines[c.ID]
	s.once.Do(func() { s.e, s.err = newEngine(c) })
	return s.e, s.err
}

func newEngine(c *curve.Curve) (*Engine, error) {
	k := c.KFull.Fast()
	if k == nil || c.Embedding != 12 {
		return nil, fmt.Errorf("pairing: %s's tower is not the fast 2·3·2 shape", c.Name)
	}
	e := &Engine{
		c: c, gt: c.KFull, k: k, w: c.Fq2.Words(),
		xAbs: new(big.Int).Abs(c.X).Uint64(), xNeg: c.X.Sign() < 0,
	}
	switch c.ID {
	case curve.BN254:
		e.bn = true
		e.loop = new(big.Int).Mul(c.X, big.NewInt(6))
		e.loop.Add(e.loop, big.NewInt(2))
	case curve.BLS12381:
		e.loop = new(big.Int).Abs(c.X)
	default:
		return nil, fmt.Errorf("pairing: no Miller loop parameters for %s", c.Name)
	}
	return e, nil
}

// GTOne returns the identity of the target group.
func (e *Engine) GTOne() GT { return e.gt.One() }

// GTEqual compares target-group elements.
func (e *Engine) GTEqual(a, b GT) bool { return e.gt.Equal(a, b) }

// Pair computes the optimal ate pairing e(p, q).
func (e *Engine) Pair(p, q curve.Affine) GT {
	return e.FinalExp(e.MillerLoop(p, q))
}

// PairingCheck reports whether ∏ e(ps[i], qs[i]) == 1, sharing one
// squaring chain and one final exponentiation across all pairs.
func (e *Engine) PairingCheck(ps, qs []curve.Affine) (bool, error) {
	if len(ps) != len(qs) {
		return false, fmt.Errorf("pairing: mismatched point-vector lengths %d, %d", len(ps), len(qs))
	}
	ls := make([]*Lines, len(qs))
	for i, q := range qs {
		ls[i] = e.Prepare(q)
	}
	return e.gt.IsOne(e.FinalExp(e.MillerLoopLines(ps, ls))), nil
}

// MillerLoop computes the Miller value of (p, q) without the final
// exponentiation. Degenerate inputs (either point at infinity) yield 1.
func (e *Engine) MillerLoop(p, q curve.Affine) GT {
	return e.MillerLoopLines([]curve.Affine{p}, []*Lines{e.Prepare(q)})
}

// prepState is the running point T = (X : Y : Z) of one Prepare on the
// twist, plus Fq2 scratch.
type prepState struct {
	x, y, z []uint64
	t       [8][]uint64
}

// Prepare computes the line coefficients of q for the Miller loop.
func (e *Engine) Prepare(q curve.Affine) *Lines {
	if q.Inf {
		return &Lines{}
	}
	k, w := e.k, e.w
	n := e.loop.BitLen() - 1 // doublings
	for i := n - 1; i >= 0; i-- {
		n += int(e.loop.Bit(i))
	}
	if e.bn {
		n += 2
	}
	lines := &Lines{coeffs: make([]uint64, 3*n*w)}
	coeffs := lines.coeffs
	fq2 := e.c.Fq2
	s := prepState{x: fq2.Copy(q.X), y: fq2.Copy(q.Y), z: fq2.One()}
	for i := range s.t {
		s.t[i] = fq2.Zero()
	}
	next := func() []uint64 {
		l := coeffs[:3*w]
		coeffs = coeffs[3*w:]
		return l
	}
	for i := e.loop.BitLen() - 2; i >= 0; i-- {
		e.doubleStep(&s, next())
		if e.loop.Bit(i) == 1 {
			e.addStep(&s, next(), q.X, q.Y)
		}
	}
	if e.bn {
		// π(Q) = (x̄·γ₂, ȳ·γ₃) on the twist; the second chord goes through -π²(Q).
		qx, qy := make([]uint64, w), make([]uint64, w)
		frob := func(x, y []uint64) {
			k.Conj2(qx, x)
			k.Mul2(qx, qx, k.FrobeniusCoeff(2))
			k.Conj2(qy, y)
			k.Mul2(qy, qy, k.FrobeniusCoeff(3))
		}
		frob(q.X, q.Y)
		e.addStep(&s, next(), qx, qy)
		frob(qx, qy)
		k.Neg(qy, qy)
		e.addStep(&s, next(), qx, qy)
	}
	return lines
}

// doubleStep sets T = 2T and writes the tangent's coefficients to l:
// with B = Y², E = 3b'Z², F = 3E, H = 2YZ, J = X²,
//
//	X₃ = 2XY(B-F), Y₃ = (B+F)² - 12E², Z₃ = 4BH, line = (-H, 3J, E-B).
func (e *Engine) doubleStep(s *prepState, l []uint64) {
	k, w := e.k, e.w
	a, b, c, ee, f, h, j, u := s.t[0], s.t[1], s.t[2], s.t[3], s.t[4], s.t[5], s.t[6], s.t[7]
	k.Mul2(a, s.x, s.y)
	k.Sqr2(b, s.y)
	k.Sqr2(c, s.z)
	k.Double(ee, c)
	k.Add(ee, ee, c)
	k.Mul2(ee, ee, e.c.G2.B)
	k.Double(f, ee)
	k.Add(f, f, ee)
	k.Add(h, s.y, s.z)
	k.Sqr2(h, h)
	k.Sub(h, h, b)
	k.Sub(h, h, c)
	k.Sqr2(j, s.x)

	k.Neg(l[:w], h)
	k.Double(l[w:2*w], j)
	k.Add(l[w:2*w], l[w:2*w], j)
	k.Sub(l[2*w:], ee, b)

	k.Sub(u, b, f)
	k.Mul2(s.x, a, u)
	k.Double(s.x, s.x)
	k.Mul2(s.z, b, h)
	k.Double(s.z, s.z)
	k.Double(s.z, s.z)
	k.Add(u, b, f)
	k.Sqr2(s.y, u)
	k.Sqr2(u, ee)
	k.Double(u, u)
	k.Double(u, u)
	for i := 0; i < 3; i++ {
		k.Sub(s.y, s.y, u)
	}
}

// addStep sets T = T + (x2, y2) and writes the chord's coefficients to l:
// with θ = Y - y₂Z, μ = X - x₂Z, E = μ³, F = Zθ², G = Xμ², H = E + F - 2G,
//
//	X₃ = μH, Y₃ = θ(G-H) - EY, Z₃ = ZE, line = (μ, -θ, θx₂ - μy₂).
func (e *Engine) addStep(s *prepState, l, x2, y2 []uint64) {
	k, w := e.k, e.w
	th, mu, ee, f, g, h, u := s.t[0], s.t[1], s.t[2], s.t[3], s.t[4], s.t[5], s.t[6]
	k.Mul2(th, y2, s.z)
	k.Sub(th, s.y, th)
	k.Mul2(mu, x2, s.z)
	k.Sub(mu, s.x, mu)

	copy(l[:w], mu)
	k.Neg(l[w:2*w], th)
	k.Mul2(u, th, x2)
	k.Mul2(l[2*w:], mu, y2)
	k.Sub(l[2*w:], u, l[2*w:])

	k.Sqr2(u, mu) // D = μ²
	k.Mul2(ee, mu, u)
	k.Mul2(g, s.x, u)
	k.Sqr2(f, th)
	k.Mul2(f, f, s.z)
	k.Add(h, ee, f)
	k.Sub(h, h, g)
	k.Sub(h, h, g)
	k.Mul2(s.x, mu, h)
	k.Sub(g, g, h)
	k.Mul2(g, g, th)
	k.Mul2(u, ee, s.y)
	k.Sub(s.y, g, u)
	k.Mul2(s.z, s.z, ee)
}

// MillerLoopLines computes ∏ f(ps[i], ls[i]) under one squaring chain.
// Pairs with either side at infinity contribute 1.
func (e *Engine) MillerLoopLines(ps []curve.Affine, ls []*Lines) GT {
	k := e.k
	var live []int
	for i := range ps {
		if !ps[i].Inf && ls[i].coeffs != nil {
			live = append(live, i)
		}
	}
	f := e.gt.One()
	at := 0 // offset of the current line in every Lines
	step := func() {
		for _, i := range live {
			e.mulLine(f, ls[i].coeffs[at:at+3*e.w], ps[i])
		}
		at += 3 * e.w
	}
	for i := e.loop.BitLen() - 2; i >= 0; i-- {
		k.Sqr12(f, f)
		step()
		if e.loop.Bit(i) == 1 {
			step()
		}
	}
	if e.bn {
		step()
		step()
	}
	if e.xNeg {
		k.Conj12(f, f)
	}
	return f
}

// mulLine folds one line, evaluated at p, into f.
func (e *Engine) mulLine(f, l []uint64, p curve.Affine) {
	k, w := e.k, e.w
	var buf [2][12]uint64
	ly, lx := buf[0][:w], buf[1][:w]
	k.MulFq2(ly, l[:w], p.Y)
	k.MulFq2(lx, l[w:2*w], p.X)
	if e.c.TwistIsM {
		k.MulBy014(f, f, l[2*w:], lx, ly)
	} else {
		k.MulBy034(f, f, ly, lx, l[2*w:])
	}
}

// FinalExp raises a Miller value to (a fixed multiple, prime to r, of)
// (q¹²-1)/r: 2x(6x²+3x+1) times it on BN254 (Fuentes-Castañeda et al.),
// 3 times it on BLS12-381 (Hayashida et al.).
func (e *Engine) FinalExp(f GT) GT {
	k := e.k
	t, a, b, c := e.gt.Zero(), e.gt.Zero(), e.gt.Zero(), e.gt.Zero()
	// Easy part: t = f^((q⁶-1)(q²+1)), which lands in the cyclotomic
	// subgroup where conjugation inverts.
	k.Conj12(t, f)
	k.Mul12(t, t, e.gt.Inverse(f))
	k.Frob12(a, t)
	k.Frob12(a, a)
	k.Mul12(t, a, t)
	if e.bn {
		// λ₀ + λ₁q + λ₂q² + λ₃q³ with a = t^(12x³+6x²+6x), b = a·t^(-2x):
		// λ₀ = a·t^(6x²)·t, λ₁ = b, λ₂ = a, λ₃ = b·t⁻¹.
		fx, f6x2 := e.gt.Zero(), e.gt.Zero()
		e.expX(fx, t)
		k.CycloSqr(fx, fx) // t^2x
		k.CycloSqr(a, fx)
		k.Mul12(a, a, fx) // t^6x
		e.expX(f6x2, a)
		k.CycloSqr(b, f6x2)
		e.expX(c, b) // t^12x³
		k.Mul12(a, a, f6x2)
		k.Mul12(a, a, c)
		k.Conj12(fx, fx)
		k.Mul12(b, a, fx)
		k.Mul12(c, a, f6x2)
		k.Mul12(c, c, t) // λ₀
		k.Conj12(t, t)
		k.Mul12(t, b, t) // λ₃ before its Frobenius
		k.Frob12(t, t)
		k.Mul12(t, t, a)
		k.Frob12(t, t)
		k.Mul12(t, t, b)
		k.Frob12(t, t)
		k.Mul12(t, t, c)
		return t
	}
	// (x-1)²·(x+q)·(x²+q²-1) + 3.
	e.expX(a, t)
	k.Conj12(b, t)
	k.Mul12(a, a, b) // t^(x-1)
	e.expX(b, a)
	k.Conj12(a, a)
	k.Mul12(a, a, b) // t^((x-1)²)
	e.expX(b, a)
	k.Frob12(a, a)
	k.Mul12(a, a, b) // ·(x+q)
	e.expX(b, a)
	e.expX(c, b)
	k.Conj12(b, a)
	k.Mul12(c, c, b)
	k.Frob12(a, a)
	k.Frob12(a, a)
	k.Mul12(c, c, a) // ·(x²+q²-1)
	k.CycloSqr(a, t)
	k.Mul12(a, a, t)
	k.Mul12(c, c, a) // ·t³
	return c
}

// expX sets z = t^x for t in the cyclotomic subgroup; z must not alias t.
func (e *Engine) expX(z, t []uint64) {
	k := e.k
	copy(z, t)
	for i := bits.Len64(e.xAbs) - 2; i >= 0; i-- {
		k.CycloSqr(z, z)
		if e.xAbs>>uint(i)&1 == 1 {
			k.Mul12(z, z, t)
		}
	}
	if e.xNeg {
		k.Conj12(z, z)
	}
}
