package ff

import (
	"fmt"
	"math/big"
)

// Exp returns x^e for a non-negative big integer exponent, using MSB-first
// square-and-multiply. Exponents are public in every GZKP use (Legendre
// symbols, Tonelli–Shanks, root-of-unity derivation), so a variable-time
// ladder is appropriate.
func (f *Field) Exp(x Element, e *big.Int) Element {
	if e.Sign() < 0 {
		inv := f.Inverse(x)
		return f.Exp(inv, new(big.Int).Neg(e))
	}
	z := f.One()
	for i := e.BitLen() - 1; i >= 0; i-- {
		f.Square(z, z)
		if e.Bit(i) == 1 {
			f.Mul(z, z, x)
		}
	}
	return z
}

// ExpUint64 returns x^e for a machine-word exponent.
func (f *Field) ExpUint64(x Element, e uint64) Element {
	return f.Exp(x, new(big.Int).SetUint64(e))
}

// Inverse returns x^{-1} (InverseTo). Inverse of zero returns zero,
// matching the usual proof-system convention.
func (f *Field) Inverse(x Element) Element {
	z := f.New()
	f.InverseTo(z, x)
	return z
}

// Legendre returns the Legendre symbol of x: 1 (QR), -1 (non-QR), 0 (zero).
func (f *Field) Legendre(x Element) int {
	if f.IsZero(x) {
		return 0
	}
	e := f.Exp(x, f.pm1Half)
	if f.IsOne(e) {
		return 1
	}
	return -1
}

// Sqrt returns a square root of x via Tonelli–Shanks, or an error if x is a
// non-residue. The returned root is whichever TS converges to; callers
// needing a canonical root should normalize on parity of the canonical form.
func (f *Field) Sqrt(x Element) (Element, error) {
	switch f.Legendre(x) {
	case 0:
		return f.New(), nil
	case -1:
		return nil, fmt.Errorf("ff: %s: sqrt of non-residue", f.name)
	}
	// p ≡ 3 (mod 4) shortcut: x^{(p+1)/4}.
	if f.pBig.Bit(0) == 1 && f.pBig.Bit(1) == 1 {
		e := new(big.Int).Add(f.pBig, big.NewInt(1))
		e.Rsh(e, 2)
		return f.Exp(x, e), nil
	}
	// General Tonelli–Shanks.
	m := f.twoAdicS
	c := f.Copy(f.rootPow) // order 2^s
	t := f.Exp(x, f.tsQ)
	rExp := new(big.Int).Add(f.tsQ, big.NewInt(1))
	rExp.Rsh(rExp, 1)
	r := f.Exp(x, rExp) // x^{(q+1)/2}
	for !f.IsOne(t) {
		// Least i with t^{2^i} == 1.
		var i uint
		t2 := f.Copy(t)
		for i = 0; !f.IsOne(t2); i++ {
			f.Square(t2, t2)
			if i > m {
				return nil, fmt.Errorf("ff: %s: Tonelli–Shanks failed to converge", f.name)
			}
		}
		b := f.Copy(c)
		for j := uint(0); j < m-i-1; j++ {
			f.Square(b, b)
		}
		m = i
		f.Square(c, b)
		f.Mul(t, t, c)
		f.Mul(r, r, b)
	}
	return r, nil
}

// RootOfUnity returns a primitive 2^k-th root of unity, or an error when k
// exceeds the field's two-adicity. RootOfUnity(0) is 1; RootOfUnity(1) is -1.
func (f *Field) RootOfUnity(k uint) (Element, error) {
	if k > f.twoAdicS {
		return nil, fmt.Errorf("ff: %s supports radix-2 domains up to 2^%d, requested 2^%d",
			f.name, f.twoAdicS, k)
	}
	z := f.Copy(f.rootPow) // order exactly 2^s
	for i := f.twoAdicS; i > k; i-- {
		f.Square(z, z)
	}
	return z, nil
}

// GeneratorOfUnityOrder returns the multiplicative generator used as the
// coset shift in coset-NTTs: the field's cached small non-residue, which is
// guaranteed to lie outside every proper power-of-two subgroup of size < 2^s.
func (f *Field) CosetGenerator() Element { return f.Copy(f.nqr) }
