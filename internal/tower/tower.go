// Package tower builds extension-field towers over the prime fields of
// internal/ff. Elements of every field in a tower are flattened
// little-endian []uint64 vectors (Words() words), so the same slice-based
// calling convention flows from Fq through Fq2 up to Fq12. Towers are
// assembled from quadratic and cubic steps (z^d = nr), which is how the
// pairing-friendly fields used by GZKP factor:
//
//	BN254:      Fq2 = Fq[u]/(u²+1), Fq6 = Fq2[v]/(v³-(9+u)), Fq12 = Fq6[w]/(w²-v)
//	BLS12-381:  Fq2 = Fq[u]/(u²+1), Fq6 = Fq2[v]/(v³-(1+u)), Fq12 = Fq6[w]/(w²-v)
//
// Both are bound at construction to the fixed-width, allocation-free
// kernels of fast.go; Ext's own coefficient loops serve every other shape.
package tower

import (
	"fmt"
	"math/big"
	mrand "math/rand"

	"gzkp/internal/ff"
)

// Field is the common interface of every level of a tower (including the
// prime base). All mutating methods allow z to alias inputs.
type Field interface {
	// Name identifies the field for diagnostics.
	Name() string
	// Words is the flattened element size in uint64 words.
	Words() int
	// Degree is the total extension degree over the prime field.
	Degree() int
	// Order is the number of field elements (p^Degree).
	Order() *big.Int

	Zero() []uint64
	One() []uint64
	IsZero(x []uint64) bool
	IsOne(x []uint64) bool
	Equal(x, y []uint64) bool
	Copy(x []uint64) []uint64
	Set(z, x []uint64) []uint64

	Add(z, x, y []uint64) []uint64
	Sub(z, x, y []uint64) []uint64
	Neg(z, x []uint64) []uint64
	Double(z, x []uint64) []uint64
	Mul(z, x, y []uint64) []uint64
	Square(z, x []uint64) []uint64
	// MulByBase multiplies x by a prime-field scalar (coefficient-wise).
	MulByBase(z, x []uint64, c ff.Element) []uint64
	// Inverse returns a fresh x^{-1} (zero maps to zero).
	Inverse(x []uint64) []uint64
	// Exp returns a fresh x^e (e may be negative).
	Exp(x []uint64, e *big.Int) []uint64

	String(x []uint64) string
	Rand(rng *mrand.Rand) []uint64
}

// Prime adapts *ff.Field to the tower interface (degree-1 tower level).
type Prime struct{ F *ff.Field }

// NewPrime wraps a prime field as the bottom of a tower.
func NewPrime(f *ff.Field) *Prime { return &Prime{F: f} }

func (p *Prime) Name() string             { return p.F.Name() }
func (p *Prime) Words() int               { return p.F.Limbs() }
func (p *Prime) Degree() int              { return 1 }
func (p *Prime) Order() *big.Int          { return p.F.Modulus() }
func (p *Prime) Zero() []uint64           { return p.F.New() }
func (p *Prime) One() []uint64            { return p.F.One() }
func (p *Prime) IsZero(x []uint64) bool   { return p.F.IsZero(x) }
func (p *Prime) IsOne(x []uint64) bool    { return p.F.IsOne(x) }
func (p *Prime) Equal(x, y []uint64) bool { return p.F.Equal(x, y) }
func (p *Prime) Copy(x []uint64) []uint64 { return p.F.Copy(x) }
func (p *Prime) Set(z, x []uint64) []uint64 {
	copy(z, x)
	return z
}
func (p *Prime) Add(z, x, y []uint64) []uint64 { return p.F.Add(z, x, y) }
func (p *Prime) Sub(z, x, y []uint64) []uint64 { return p.F.Sub(z, x, y) }
func (p *Prime) Neg(z, x []uint64) []uint64    { return p.F.Neg(z, x) }
func (p *Prime) Double(z, x []uint64) []uint64 { return p.F.Double(z, x) }
func (p *Prime) Mul(z, x, y []uint64) []uint64 { return p.F.Mul(z, x, y) }
func (p *Prime) Square(z, x []uint64) []uint64 { return p.F.Square(z, x) }
func (p *Prime) Inverse(x []uint64) []uint64   { return p.F.Inverse(x) }
func (p *Prime) Exp(x []uint64, e *big.Int) []uint64 {
	return p.F.Exp(x, e)
}
func (p *Prime) MulByBase(z, x []uint64, c ff.Element) []uint64 {
	return p.F.Mul(z, x, c)
}
func (p *Prime) String(x []uint64) string      { return p.F.String(x) }
func (p *Prime) Rand(rng *mrand.Rand) []uint64 { return p.F.Rand(rng) }

// Kernels is an extension field's arithmetic dispatch table, the tower's
// counterpart of ff.Kernels: written once in NewExt — the fixed-width
// kernels of fast.go when the shape binds, the generic coefficient loops
// below otherwise — and read-only afterwards. Hot loops (internal/curve's
// G2 point formulas) hoist it instead of dispatching through Field.
type Kernels struct {
	// Three-operand ops: z = x op y. z may alias x or y.
	Mul, Add, Sub func(z, x, y []uint64)
	// Two-operand ops: z = op(x). z may alias x.
	Square, Neg, Double func(z, x []uint64)
}

// Ext is a quadratic or cubic extension Base[z]/(z^D - NR), the two steps
// all GZKP towers are built from.
type Ext struct {
	name  string
	base  Field
	d     int
	nr    []uint64 // non-residue in the base field
	words int
	order *big.Int

	kern Kernels
	// fast is the fixed-width kernel set this level is bound to and level
	// its rung in the 2·3·2 tower (2, 6 or 12); nil and 0 on the generic
	// path (fast.go says which shapes bind).
	fast  *Fast
	level int
}

// NewExt constructs Base[z]/(z^d - nr). nr must be a base-field element for
// which the polynomial is irreducible (the caller guarantees this; the
// standard parameter sets are wired in internal/curve).
func NewExt(name string, base Field, d int, nr []uint64) *Ext {
	if d != 2 && d != 3 {
		panic("tower: extension degree must be 2 or 3")
	}
	order := new(big.Int).Set(base.Order())
	for i := 1; i < d; i++ {
		order.Mul(order, base.Order())
	}
	e := &Ext{
		name:  name,
		base:  base,
		d:     d,
		nr:    base.Copy(nr),
		words: d * base.Words(),
		order: order,
	}
	e.installKernels()
	return e
}

// Kernels returns the field's dispatch table for hoisting into hot loops.
// The returned pointer is shared and read-only.
func (e *Ext) Kernels() *Kernels { return &e.kern }

// Fast returns the fixed-width kernel set e is bound to, nil when e runs
// on the generic path.
func (e *Ext) Fast() *Fast { return e.fast }

func (e *Ext) installGeneric() {
	e.kern = Kernels{
		Mul: e.mulGeneric, Add: e.addGeneric, Sub: e.subGeneric,
		Square: func(z, x []uint64) { e.mulGeneric(z, x, x) },
		Neg:    e.negGeneric,
		Double: func(z, x []uint64) { e.addGeneric(z, x, x) },
	}
}

// Base returns the field this extension is built over.
func (e *Ext) Base() Field { return e.base }

func (e *Ext) Name() string    { return e.name }
func (e *Ext) Words() int      { return e.words }
func (e *Ext) Degree() int     { return e.d * e.base.Degree() }
func (e *Ext) Order() *big.Int { return new(big.Int).Set(e.order) }

// coeff returns the i-th base coefficient view of x.
func (e *Ext) coeff(x []uint64, i int) []uint64 {
	w := e.base.Words()
	return x[i*w : (i+1)*w]
}

func (e *Ext) Zero() []uint64 { return make([]uint64, e.words) }

func (e *Ext) One() []uint64 {
	z := e.Zero()
	e.base.Set(e.coeff(z, 0), e.base.One())
	return z
}

func (e *Ext) IsZero(x []uint64) bool {
	for _, w := range x {
		if w != 0 {
			return false
		}
	}
	return true
}

func (e *Ext) IsOne(x []uint64) bool {
	if !e.base.IsOne(e.coeff(x, 0)) {
		return false
	}
	for _, w := range x[e.base.Words():] {
		if w != 0 {
			return false
		}
	}
	return true
}

func (e *Ext) Equal(x, y []uint64) bool {
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func (e *Ext) Copy(x []uint64) []uint64 {
	z := make([]uint64, e.words)
	copy(z, x)
	return z
}

func (e *Ext) Set(z, x []uint64) []uint64 {
	copy(z, x)
	return z
}

func (e *Ext) Add(z, x, y []uint64) []uint64 { e.kern.Add(z, x, y); return z }
func (e *Ext) Sub(z, x, y []uint64) []uint64 { e.kern.Sub(z, x, y); return z }
func (e *Ext) Neg(z, x []uint64) []uint64    { e.kern.Neg(z, x); return z }
func (e *Ext) Double(z, x []uint64) []uint64 { e.kern.Double(z, x); return z }
func (e *Ext) Mul(z, x, y []uint64) []uint64 { e.kern.Mul(z, x, y); return z }
func (e *Ext) Square(z, x []uint64) []uint64 { e.kern.Square(z, x); return z }

func (e *Ext) addGeneric(z, x, y []uint64) {
	for i := 0; i < e.d; i++ {
		e.base.Add(e.coeff(z, i), e.coeff(x, i), e.coeff(y, i))
	}
}

func (e *Ext) subGeneric(z, x, y []uint64) {
	for i := 0; i < e.d; i++ {
		e.base.Sub(e.coeff(z, i), e.coeff(x, i), e.coeff(y, i))
	}
}

func (e *Ext) negGeneric(z, x []uint64) {
	for i := 0; i < e.d; i++ {
		e.base.Neg(e.coeff(z, i), e.coeff(x, i))
	}
}

// mulGeneric computes z = x*y by Karatsuba (3 resp. 6 base multiplications).
func (e *Ext) mulGeneric(z, x, y []uint64) {
	if e.d == 2 {
		e.mul2(z, x, y)
	} else {
		e.mul3(z, x, y)
	}
}

// mul2: Karatsuba for z² = nr.
//
//	z0 = v0 + nr·v1, z1 = (a0+a1)(b0+b1) - v0 - v1.
func (e *Ext) mul2(z, x, y []uint64) []uint64 {
	b := e.base
	a0, a1 := e.coeff(x, 0), e.coeff(x, 1)
	b0, b1 := e.coeff(y, 0), e.coeff(y, 1)
	v0 := b.Mul(b.Zero(), a0, b0)
	v1 := b.Mul(b.Zero(), a1, b1)
	sa := b.Add(b.Zero(), a0, a1)
	sb := b.Add(b.Zero(), b0, b1)
	z1 := b.Mul(sa, sa, sb)
	b.Sub(z1, z1, v0)
	b.Sub(z1, z1, v1)
	z0 := b.Mul(v1, v1, e.nr)
	b.Add(z0, z0, v0)
	b.Set(e.coeff(z, 0), z0)
	b.Set(e.coeff(z, 1), z1)
	return z
}

// mul3: Karatsuba-3 for z³ = nr (6 base multiplications).
func (e *Ext) mul3(z, x, y []uint64) []uint64 {
	b := e.base
	a0, a1, a2 := e.coeff(x, 0), e.coeff(x, 1), e.coeff(x, 2)
	b0, b1, b2 := e.coeff(y, 0), e.coeff(y, 1), e.coeff(y, 2)
	v0 := b.Mul(b.Zero(), a0, b0)
	v1 := b.Mul(b.Zero(), a1, b1)
	v2 := b.Mul(b.Zero(), a2, b2)
	t, u := b.Zero(), b.Zero()
	// z0 = v0 + nr·((a1+a2)(b1+b2) - v1 - v2)
	b.Add(t, a1, a2)
	b.Add(u, b1, b2)
	z0 := b.Mul(b.Zero(), t, u)
	b.Sub(z0, z0, v1)
	b.Sub(z0, z0, v2)
	b.Mul(z0, z0, e.nr)
	b.Add(z0, z0, v0)
	// z1 = (a0+a1)(b0+b1) - v0 - v1 + nr·v2
	b.Add(t, a0, a1)
	b.Add(u, b0, b1)
	z1 := b.Mul(b.Zero(), t, u)
	b.Sub(z1, z1, v0)
	b.Sub(z1, z1, v1)
	b.Mul(t, v2, e.nr)
	b.Add(z1, z1, t)
	// z2 = (a0+a2)(b0+b2) - v0 - v2 + v1
	b.Add(t, a0, a2)
	b.Add(u, b0, b2)
	z2 := b.Mul(b.Zero(), t, u)
	b.Sub(z2, z2, v0)
	b.Sub(z2, z2, v2)
	b.Add(z2, z2, v1)
	b.Set(e.coeff(z, 0), z0)
	b.Set(e.coeff(z, 1), z1)
	b.Set(e.coeff(z, 2), z2)
	return z
}

func (e *Ext) MulByBase(z, x []uint64, c ff.Element) []uint64 {
	for i := 0; i < e.d; i++ {
		e.base.MulByBase(e.coeff(z, i), e.coeff(x, i), c)
	}
	return z
}

// MulByNonResidue multiplies x by z (the adjoined root), i.e. shifts
// coefficients up and folds the top through nr. Used by untwist maps.
func (e *Ext) MulByRoot(z, x []uint64) []uint64 {
	top := e.base.Copy(e.coeff(x, e.d-1))
	for i := e.d - 1; i > 0; i-- {
		e.base.Set(e.coeff(z, i), e.coeff(x, i-1))
	}
	e.base.Mul(e.coeff(z, 0), top, e.nr)
	return z
}

// Inverse returns x^{-1}; zero maps to zero.
func (e *Ext) Inverse(x []uint64) []uint64 {
	if e.IsZero(x) {
		return e.Zero()
	}
	if e.d == 2 {
		return e.inverse2(x)
	}
	return e.inverse3(x)
}

// inverse2: (a0 + a1 z)^{-1} = (a0 - a1 z) / (a0² - nr·a1²).
func (e *Ext) inverse2(x []uint64) []uint64 {
	b := e.base
	a0, a1 := e.coeff(x, 0), e.coeff(x, 1)
	t0 := b.Zero()
	t1 := b.Zero()
	b.Square(t0, a0)
	b.Square(t1, a1)
	b.Mul(t1, t1, e.nr)
	b.Sub(t0, t0, t1) // norm
	inv := b.Inverse(t0)
	z := e.Zero()
	b.Mul(e.coeff(z, 0), a0, inv)
	b.Mul(e.coeff(z, 1), a1, inv)
	b.Neg(e.coeff(z, 1), e.coeff(z, 1))
	return z
}

// inverse3: standard cubic-extension inversion for z³ = nr.
func (e *Ext) inverse3(x []uint64) []uint64 {
	b := e.base
	a0, a1, a2 := e.coeff(x, 0), e.coeff(x, 1), e.coeff(x, 2)
	t := b.Zero()
	c0 := b.Zero() // a0² - nr·a1·a2
	b.Square(c0, a0)
	b.Mul(t, a1, a2)
	b.Mul(t, t, e.nr)
	b.Sub(c0, c0, t)
	c1 := b.Zero() // nr·a2² - a0·a1
	b.Square(c1, a2)
	b.Mul(c1, c1, e.nr)
	b.Mul(t, a0, a1)
	b.Sub(c1, c1, t)
	c2 := b.Zero() // a1² - a0·a2
	b.Square(c2, a1)
	b.Mul(t, a0, a2)
	b.Sub(c2, c2, t)
	// denom = a0·c0 + nr·(a2·c1 + a1·c2)
	den := b.Zero()
	b.Mul(den, a0, c0)
	b.Mul(t, a2, c1)
	tt := b.Zero()
	b.Mul(tt, a1, c2)
	b.Add(t, t, tt)
	b.Mul(t, t, e.nr)
	b.Add(den, den, t)
	inv := b.Inverse(den)
	z := e.Zero()
	b.Mul(e.coeff(z, 0), c0, inv)
	b.Mul(e.coeff(z, 1), c1, inv)
	b.Mul(e.coeff(z, 2), c2, inv)
	return z
}

// Exp returns x^e by square-and-multiply; negative exponents invert first.
func (e *Ext) Exp(x []uint64, exp *big.Int) []uint64 {
	if exp.Sign() < 0 {
		return e.Exp(e.Inverse(x), new(big.Int).Neg(exp))
	}
	z := e.One()
	for i := exp.BitLen() - 1; i >= 0; i-- {
		e.Square(z, z)
		if exp.Bit(i) == 1 {
			e.Mul(z, z, x)
		}
	}
	return z
}

func (e *Ext) String(x []uint64) string {
	s := "("
	for i := 0; i < e.d; i++ {
		if i > 0 {
			s += ", "
		}
		s += e.base.String(e.coeff(x, i))
	}
	return s + ")"
}

func (e *Ext) Rand(rng *mrand.Rand) []uint64 {
	z := e.Zero()
	for i := 0; i < e.d; i++ {
		e.base.Set(e.coeff(z, i), e.base.Rand(rng))
	}
	return z
}

// FromBase embeds a base-field element as the constant coefficient.
func (e *Ext) FromBase(c []uint64) []uint64 {
	z := e.Zero()
	e.base.Set(e.coeff(z, 0), c)
	return z
}

// Coeff returns a copy of the i-th base coefficient of x.
func (e *Ext) Coeff(x []uint64, i int) []uint64 {
	return e.base.Copy(e.coeff(x, i))
}

// SetCoeff overwrites the i-th base coefficient of x.
func (e *Ext) SetCoeff(x []uint64, i int, c []uint64) {
	e.base.Set(e.coeff(x, i), c)
}

// Sqrt computes a square root in a quadratic extension over a prime field
// with z² = nr, using the norm method. Returns an error for non-residues or
// unsupported tower shapes.
func (e *Ext) Sqrt(x []uint64) ([]uint64, error) {
	p, ok := e.base.(*Prime)
	if !ok || e.d != 2 {
		return nil, fmt.Errorf("tower: Sqrt only supported on quadratic extensions of a prime field")
	}
	f := p.F
	a0, a1 := ff.Element(e.coeff(x, 0)), ff.Element(e.coeff(x, 1))
	if f.IsZero(a1) {
		// sqrt of base element: either sqrt(a0) or sqrt(a0/nr)·z.
		if f.Legendre(a0) != -1 {
			r, err := f.Sqrt(a0)
			if err != nil {
				return nil, err
			}
			return e.FromBase(r), nil
		}
		t := f.Mul(f.New(), a0, f.Inverse(ff.Element(e.nr)))
		r, err := f.Sqrt(t)
		if err != nil {
			return nil, fmt.Errorf("tower: %s: sqrt of non-residue", e.name)
		}
		z := e.Zero()
		e.base.Set(e.coeff(z, 1), r)
		return z, nil
	}
	// norm = a0² - nr·a1² must be a QR in Fq if x is a square.
	norm := f.Square(f.New(), a0)
	t := f.Square(f.New(), a1)
	f.Mul(t, t, ff.Element(e.nr))
	f.Sub(norm, norm, t)
	lambda, err := f.Sqrt(norm)
	if err != nil {
		return nil, fmt.Errorf("tower: %s: sqrt of non-residue (norm)", e.name)
	}
	// delta = (a0 + λ)/2 should be a QR; otherwise flip λ's sign.
	delta := f.Add(f.New(), a0, lambda)
	f.Halve(delta, delta)
	if f.Legendre(delta) == -1 {
		f.Sub(delta, a0, lambda)
		f.Halve(delta, delta)
		if f.Legendre(delta) == -1 {
			return nil, fmt.Errorf("tower: %s: element is not a square", e.name)
		}
	}
	x0, err := f.Sqrt(delta)
	if err != nil {
		return nil, err
	}
	// x1 = a1 / (2 x0)
	den := f.Double(f.New(), x0)
	x1 := f.Mul(f.New(), a1, f.Inverse(den))
	z := e.Zero()
	e.base.Set(e.coeff(z, 0), x0)
	e.base.Set(e.coeff(z, 1), x1)
	// Self-check: squaring must give x back (guards the QR case analysis).
	if !e.Equal(e.Square(e.Zero(), z), x) {
		return nil, fmt.Errorf("tower: %s: element is not a square", e.name)
	}
	return z, nil
}
