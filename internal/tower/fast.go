package tower

import (
	"math/big"

	"gzkp/internal/ff"
)

// Fast is the fixed-width, allocation-free kernel set of the tower shape
// both pairing curves share,
//
//	Fq2 = Fq[u]/(u²+1), Fq6 = Fq2[v]/(v³-ξ) with ξ = c+u, Fq12 = Fq6[w]/(w²-v),
//
// over a 4- or 6-limb Fq. Elements keep the flattened layout of Ext, so an
// Fq12 element is the six Fq2 coefficients [g0 g2 g4 g1 g3 g5] of Σ gᵢ·wⁱ.
// The Fq2 methods branch on the width into the generated array-pointer
// kernels of fq2_gen.go; Fq6 and Fq12 are written once over them, with
// temporaries in stack arrays sized for the 6-limb case. Every call on the
// way down to ff's Montgomery kernels is a direct one — a func-value call
// would send those temporaries to the heap. All methods allow z to alias an
// input. Operands must be exactly one element long (the coefficient-wise
// ops take their level from len(z)).
//
// NewExt binds an extension to a Fast when it is one of the three steps
// above (installKernels); any other shape — a quadratic non-residue other
// than -1, a ξ outside the add-chain range, a 12-limb base such as
// MNT4753-sim's — stays on Ext's generic coefficient loops, which are also
// the differential oracle for this file.
type Fast struct {
	f    *ff.Field
	n    int        // limbs per Fq element: 4 or 6
	m4   *[4]uint64 // the modulus, through whichever pointer n selects
	m6   *[6]uint64
	inv  uint64      // -p⁻¹ mod 2⁶⁴
	xi   uint        // ξ = xi + u (0 until a cubic step is bound)
	frob [5][]uint64 // γᵢ = ξ^{i(p-1)/6}, i = 1..5: Frobenius on the wⁱ coefficient
}

//go:generate go run ./gen -out fq2_gen.go

// maxXi bounds the constant term of ξ that binds fast (9 on BN254, 1 on
// BLS12-381): multiplying by ξ is then a short add chain, not an Fq2 mul.
const maxXi = 16

// installKernels selects e's implementation by construction, as
// ff.installKernels does one level down: generic first, then the fast
// binding when e is the next step of a Fast-shaped tower.
func (e *Ext) installKernels() {
	e.installGeneric()
	switch b := e.base.(type) {
	case *Prime:
		if e.d != 2 || !b.F.Equal(e.nr, b.F.FromInt64(-1)) {
			return
		}
		p, inv := b.F.MontParams()
		k := &Fast{f: b.F, n: b.F.FastPathWidth(), inv: inv}
		switch k.n {
		case 4:
			k.m4 = (*[4]uint64)(p)
			e.kern = kernels2x4(k.m4, inv)
		case 6:
			k.m6 = (*[6]uint64)(p)
			e.kern = kernels2x6(k.m6, inv)
		default:
			return
		}
		e.fast, e.level = k, 2
		return
	case *Ext:
		switch {
		case b.level == 2 && e.d == 3:
			k := *b.fast
			f := k.f
			for c := uint(1); c <= maxXi && k.xi == 0; c++ {
				if f.Equal(e.nr[:k.n], f.FromUint64(uint64(c))) && f.IsOne(e.nr[k.n:]) {
					k.xi = c
				}
			}
			if k.xi == 0 {
				return
			}
			k.deriveFrobenius(b, e.nr)
			e.fast, e.level = &k, 6
		case b.level == 6 && e.d == 2 && b.Equal(e.nr, b.MulByRoot(b.Zero(), b.One())):
			e.fast, e.level = b.fast, 12
		default:
			return
		}
	default:
		return
	}
	k := e.fast
	e.kern = Kernels{Add: k.Add, Sub: k.Sub, Neg: k.Neg, Double: k.Double, Mul: k.Mul12, Square: k.Sqr12}
	if e.level == 6 {
		e.kern.Mul, e.kern.Square = k.Mul6, func(z, x []uint64) { k.Mul6(z, x, x) }
	}
}

// deriveFrobenius fills γᵢ = ξ^{i(p-1)/6} (p ≡ 1 mod 6 on every curve
// with a sextic twist).
func (k *Fast) deriveFrobenius(fq2 *Ext, xi []uint64) {
	exp := new(big.Int).Sub(k.f.Modulus(), big.NewInt(1))
	exp.Div(exp, big.NewInt(6))
	k.frob[0] = fq2.Exp(xi, exp)
	for i := 1; i < len(k.frob); i++ {
		k.frob[i] = fq2.Mul(fq2.Zero(), k.frob[i-1], k.frob[0])
	}
}

// FrobeniusCoeff returns γᵢ = ξ^{i(p-1)/6} for i in 1..5 (shared, read-only).
func (k *Fast) FrobeniusCoeff(i int) []uint64 { return k.frob[i-1] }

// Coefficient-wise ops, valid at every level of the tower: one Fq2
// coefficient per step.

// Add sets z = x+y.
func (k *Fast) Add(z, x, y []uint64) {
	if k.n == 4 {
		for i := 0; i < len(z); i += 8 {
			add2x4((*[8]uint64)(z[i:]), (*[8]uint64)(x[i:]), (*[8]uint64)(y[i:]), k.m4)
		}
		return
	}
	for i := 0; i < len(z); i += 12 {
		add2x6((*[12]uint64)(z[i:]), (*[12]uint64)(x[i:]), (*[12]uint64)(y[i:]), k.m6)
	}
}

// Sub sets z = x-y.
func (k *Fast) Sub(z, x, y []uint64) {
	if k.n == 4 {
		for i := 0; i < len(z); i += 8 {
			sub2x4((*[8]uint64)(z[i:]), (*[8]uint64)(x[i:]), (*[8]uint64)(y[i:]), k.m4)
		}
		return
	}
	for i := 0; i < len(z); i += 12 {
		sub2x6((*[12]uint64)(z[i:]), (*[12]uint64)(x[i:]), (*[12]uint64)(y[i:]), k.m6)
	}
}

// Neg sets z = -x.
func (k *Fast) Neg(z, x []uint64) {
	if k.n == 4 {
		for i := 0; i < len(z); i += 8 {
			neg2x4((*[8]uint64)(z[i:]), (*[8]uint64)(x[i:]), k.m4)
		}
		return
	}
	for i := 0; i < len(z); i += 12 {
		neg2x6((*[12]uint64)(z[i:]), (*[12]uint64)(x[i:]), k.m6)
	}
}

// Double sets z = 2x.
func (k *Fast) Double(z, x []uint64) { k.Add(z, x, x) }

// Fq2: the width branch in front of fq2_gen.go.

// Mul2 sets z = x*y in Fq2.
func (k *Fast) Mul2(z, x, y []uint64) {
	if k.n == 4 {
		mul2x4((*[8]uint64)(z), (*[8]uint64)(x), (*[8]uint64)(y), k.m4, k.inv)
		return
	}
	mul2x6((*[12]uint64)(z), (*[12]uint64)(x), (*[12]uint64)(y), k.m6, k.inv)
}

// Sqr2 sets z = x² in Fq2.
func (k *Fast) Sqr2(z, x []uint64) {
	if k.n == 4 {
		sqr2x4((*[8]uint64)(z), (*[8]uint64)(x), k.m4, k.inv)
		return
	}
	sqr2x6((*[12]uint64)(z), (*[12]uint64)(x), k.m6, k.inv)
}

// MulFq2 sets z = c·x for x in Fq2 and a prime-field scalar c.
func (k *Fast) MulFq2(z, x, c []uint64) {
	if k.n == 4 {
		mulFq2x4((*[8]uint64)(z), (*[8]uint64)(x), (*[4]uint64)(c), k.m4, k.inv)
		return
	}
	mulFq2x6((*[12]uint64)(z), (*[12]uint64)(x), (*[6]uint64)(c), k.m6, k.inv)
}

// Conj2 sets z = x^p = a0 - a1·u, the Fq2 Frobenius.
func (k *Fast) Conj2(z, x []uint64) {
	if k.n == 4 {
		conj2x4((*[8]uint64)(z), (*[8]uint64)(x), k.m4)
		return
	}
	conj2x6((*[12]uint64)(z), (*[12]uint64)(x), k.m6)
}

// mulXi sets z = ξ·x in Fq2.
func (k *Fast) mulXi(z, x []uint64) {
	if k.n == 4 {
		mulXi2x4((*[8]uint64)(z), (*[8]uint64)(x), k.xi, k.m4)
		return
	}
	mulXi2x6((*[12]uint64)(z), (*[12]uint64)(x), k.xi, k.m6)
}

// Fq6 = Fq2[v]/(v³-ξ).

// Mul6 sets z = x*y in Fq6 (Karatsuba, 6 Fq2 multiplications).
func (k *Fast) Mul6(z, x, y []uint64) {
	w := 2 * k.n
	var buf [7][12]uint64
	v0, v1, v2, t, u := buf[0][:w], buf[1][:w], buf[2][:w], buf[3][:w], buf[4][:w]
	r0, r1 := buf[5][:w], buf[6][:w]
	a0, a1, a2 := x[:w], x[w:2*w], x[2*w:3*w]
	b0, b1, b2 := y[:w], y[w:2*w], y[2*w:3*w]
	k.Mul2(v0, a0, b0)
	k.Mul2(v1, a1, b1)
	k.Mul2(v2, a2, b2)
	// r0 = v0 + ξ·((a1+a2)(b1+b2) - v1 - v2)
	k.Add(t, a1, a2)
	k.Add(u, b1, b2)
	k.Mul2(r0, t, u)
	k.Sub(r0, r0, v1)
	k.Sub(r0, r0, v2)
	k.mulXi(r0, r0)
	k.Add(r0, r0, v0)
	// r1 = (a0+a1)(b0+b1) - v0 - v1 + ξ·v2
	k.Add(t, a0, a1)
	k.Add(u, b0, b1)
	k.Mul2(r1, t, u)
	k.Sub(r1, r1, v0)
	k.Sub(r1, r1, v1)
	k.mulXi(t, v2)
	k.Add(r1, r1, t)
	// z2 = (a0+a2)(b0+b2) - v0 - v2 + v1
	k.Add(t, a0, a2)
	k.Add(u, b0, b2)
	k.Mul2(t, t, u)
	k.Sub(t, t, v0)
	k.Sub(t, t, v2)
	k.Add(z[2*w:3*w], t, v1)
	copy(z[:w], r0)
	copy(z[w:2*w], r1)
}

// mulV sets z = v·x in Fq6: (a0, a1, a2) → (ξ·a2, a0, a1).
func (k *Fast) mulV(z, x []uint64) {
	w := 2 * k.n
	var buf [12]uint64
	t := buf[:w]
	k.mulXi(t, x[2*w:3*w])
	copy(z[2*w:3*w], x[w:2*w])
	copy(z[w:2*w], x[:w])
	copy(z[:w], t)
}

// scale6 sets z = c·x for x in Fq6 and c in Fq2.
func (k *Fast) scale6(z, x, c []uint64) {
	w := 2 * k.n
	for i := 0; i < 3*w; i += w {
		k.Mul2(z[i:i+w], x[i:i+w], c)
	}
}

// mul6By01 sets z = x·(d0 + d1·v) in Fq6 (5 Fq2 multiplications).
func (k *Fast) mul6By01(z, x, d0, d1 []uint64) {
	w := 2 * k.n
	var buf [6][12]uint64
	a, b, t, u, r0, r1 := buf[0][:w], buf[1][:w], buf[2][:w], buf[3][:w], buf[4][:w], buf[5][:w]
	a0, a1, a2 := x[:w], x[w:2*w], x[2*w:3*w]
	k.Mul2(a, a0, d0)
	k.Mul2(b, a1, d1)
	// r0 = a + ξ·a2·d1
	k.Mul2(r0, a2, d1)
	k.mulXi(r0, r0)
	k.Add(r0, r0, a)
	// r1 = (a0+a1)(d0+d1) - a - b
	k.Add(t, a0, a1)
	k.Add(u, d0, d1)
	k.Mul2(r1, t, u)
	k.Sub(r1, r1, a)
	k.Sub(r1, r1, b)
	// z2 = a2·d0 + b
	k.Mul2(t, a2, d0)
	k.Add(z[2*w:3*w], t, b)
	copy(z[:w], r0)
	copy(z[w:2*w], r1)
}

// Fq12 = Fq6[w]/(w²-v).

// Mul12 sets z = x*y in Fq12 (Karatsuba, 3 Fq6 multiplications).
func (k *Fast) Mul12(z, x, y []uint64) {
	h := 6 * k.n
	var buf [4][36]uint64
	v0, v1, t, u := buf[0][:h], buf[1][:h], buf[2][:h], buf[3][:h]
	k.Mul6(v0, x[:h], y[:h])
	k.Mul6(v1, x[h:], y[h:])
	k.Add(t, x[:h], x[h:])
	k.Add(u, y[:h], y[h:])
	k.Mul6(t, t, u)
	k.Sub(t, t, v0)
	k.Sub(z[h:], t, v1)
	k.mulV(v1, v1)
	k.Add(z[:h], v0, v1)
}

// Sqr12 sets z = x² in Fq12 by complex squaring (2 Fq6 multiplications):
// z0 = (a0+a1)(a0+v·a1) - a0a1 - v·a0a1, z1 = 2·a0a1.
func (k *Fast) Sqr12(z, x []uint64) {
	h := 6 * k.n
	var buf [3][36]uint64
	m, t, u := buf[0][:h], buf[1][:h], buf[2][:h]
	k.Mul6(m, x[:h], x[h:])
	k.mulV(t, x[h:])
	k.Add(t, t, x[:h])
	k.Add(u, x[:h], x[h:])
	k.Mul6(t, t, u)
	k.Sub(t, t, m)
	k.Add(z[h:], m, m)
	k.mulV(m, m)
	k.Sub(z[:h], t, m)
}

// Conj12 sets z = x^(p⁶) = a0 - a1·w, the inverse on the cyclotomic subgroup.
func (k *Fast) Conj12(z, x []uint64) {
	h := 6 * k.n
	copy(z[:h], x[:h])
	k.Neg(z[h:], x[h:])
}

// frobOrder[i] is the power of w the i-th flattened Fq2 coefficient of an
// Fq12 element multiplies.
var frobOrder = [6]int{0, 2, 4, 1, 3, 5}

// Frob12 sets z = x^p: conjugate every Fq2 coefficient gᵢ and scale it by γᵢ.
func (k *Fast) Frob12(z, x []uint64) {
	w := 2 * k.n
	for i, g := range frobOrder {
		zi := z[i*w : (i+1)*w]
		k.Conj2(zi, x[i*w:(i+1)*w])
		if g > 0 {
			k.Mul2(zi, zi, k.frob[g-1])
		}
	}
}

// CycloSqr sets z = x² for x in the cyclotomic subgroup (x^(p⁶+1) has been
// taken, so x^(p⁴-p²+1) = 1): Granger–Scott squaring over
// Fq4 = Fq2[w³], x = A + B·w + C·w² ↦ (3A²-2Ā) + (3w³C²+2B̄)·w + (3B²-2C̄)·w²,
// 9 Fq2 squarings instead of Sqr12's 12 multiplications.
func (k *Fast) CycloSqr(z, x []uint64) {
	w := 2 * k.n
	var buf [7][12]uint64
	b := func(i int) []uint64 { return x[i*w : (i+1)*w] }
	t := func(i int) []uint64 { return buf[i][:w] }
	k.sqr4(t(0), t(4), b(4), b(0)) // A² = (b0² + ξ·b4²) + 2·b0·b4·w³
	k.sqr4(t(1), t(5), b(2), b(3)) // B² = (b3² + ξ·b2²) + 2·b3·b2·w³
	k.sqr4(t(2), t(3), b(5), b(1)) // C² = (b1² + ξ·b5²) + 2·b1·b5·w³
	k.mulXi(t(3), t(3))            // w³·C² swaps the halves and folds ξ in
	for i, plus := range [6]bool{false, false, false, true, true, true} {
		// zᵢ = 3·tᵢ ∓ 2·bᵢ = 2·(tᵢ ∓ bᵢ) + tᵢ
		u := t(6)
		if plus {
			k.Add(u, t(i), b(i))
		} else {
			k.Sub(u, t(i), b(i))
		}
		k.Add(u, u, u)
		k.Add(z[i*w:(i+1)*w], u, t(i))
	}
}

// sqr4 squares q + p·s in Fq4 = Fq2[s]/(s²-ξ): r0 = q² + ξ·p², r1 = 2·p·q.
// r0 and r1 must not alias the inputs.
func (k *Fast) sqr4(r0, r1, p, q []uint64) {
	var buf [12]uint64
	s := buf[:2*k.n]
	k.Sqr2(s, p)
	k.Sqr2(r0, q)
	k.Add(r1, p, q)
	k.Sqr2(r1, r1)
	k.Sub(r1, r1, s)
	k.Sub(r1, r1, r0)
	k.mulXi(s, s)
	k.Add(r0, r0, s)
}

// MulBy034 sets z = x·(c0 + c3·w + c4·w³), the sparse product with a
// D-type-twist line (13 Fq2 multiplications instead of 18).
func (k *Fast) MulBy034(z, x, c0, c3, c4 []uint64) {
	h := 6 * k.n
	var buf [3][36]uint64
	var dbuf [12]uint64
	a, b, e, d := buf[0][:h], buf[1][:h], buf[2][:h], dbuf[:2*k.n]
	k.scale6(a, x[:h], c0)
	k.mul6By01(b, x[h:], c3, c4)
	k.Add(d, c0, c3)
	k.Add(e, x[:h], x[h:])
	k.mul6By01(e, e, d, c4)
	k.sparseTail(z, a, b, e)
}

// MulBy014 sets z = x·(c0 + c1·w² + c4·w³), the sparse product with an
// M-type-twist line (13 Fq2 multiplications).
func (k *Fast) MulBy014(z, x, c0, c1, c4 []uint64) {
	h := 6 * k.n
	var buf [3][36]uint64
	var dbuf [12]uint64
	a, b, e, d := buf[0][:h], buf[1][:h], buf[2][:h], dbuf[:2*k.n]
	k.mul6By01(a, x[:h], c0, c1)
	k.scale6(b, x[h:], c4)
	k.mulV(b, b)
	k.Add(d, c1, c4)
	k.Add(e, x[:h], x[h:])
	k.mul6By01(e, e, c0, d)
	k.sparseTail(z, a, b, e)
}

// sparseTail finishes a Karatsuba product from a = x0·y0, b = x1·y1 and
// e = (x0+x1)(y0+y1): z1 = e - a - b, z0 = a + v·b.
func (k *Fast) sparseTail(z, a, b, e []uint64) {
	h := 6 * k.n
	k.Sub(e, e, a)
	k.Sub(z[h:], e, b)
	k.mulV(b, b)
	k.Add(z[:h], a, b)
}
