// Package ff implements arithmetic over arbitrary prime fields whose
// elements are stored as little-endian uint64 limb vectors in Montgomery
// form. It is the "optimized finite field library" of GZKP §4.3: a single
// generic code path supports the 256-bit (ALT-BN128), 381-bit (BLS12-381)
// and 753-bit (MNT4753-sim) fields used throughout the system.
//
// A Field value carries the modulus and all precomputed Montgomery
// constants; Element values are meaningless without their Field. All
// arithmetic entry points allow the destination to alias either operand.
package ff

import (
	"fmt"
	"math/big"
	"math/bits"
)

// MaxLimbs is the largest supported field width in 64-bit limbs
// (16*64 = 1024 bits, comfortably above the 753-bit MNT4753 class).
const MaxLimbs = 16

// Element is a field element: exactly Field.Limbs() little-endian uint64
// limbs, held in Montgomery form (value * 2^(64n) mod p).
type Element []uint64

// Field describes a prime field and caches its Montgomery constants.
type Field struct {
	name string
	p    []uint64 // modulus, little-endian
	n    int      // limb count
	bits int      // modulus bit length

	inv uint64 // -p^{-1} mod 2^64

	// kern dispatches the arithmetic entry points: fixed-width unrolled
	// kernels for 4/6/12-limb moduli, the generic path otherwise
	// (dispatch.go). fastWidth records the active specialization (0 = none).
	kern      Kernels
	fastWidth int

	r  Element // 2^(64n) mod p == Montgomery form of 1
	r2 Element // 2^(128n) mod p, for conversion into Montgomery form

	pBig     *big.Int
	pMinus1  *big.Int // p-1
	pm1Half  *big.Int // (p-1)/2, Legendre exponent
	twoAdicS uint     // s with p-1 = q * 2^s, q odd
	tsQ      *big.Int // the odd q above
	nqr      Element  // a quadratic non-residue (Montgomery form)
	rootPow  Element  // nqr^q: generator of the 2-Sylow subgroup, order 2^s

	// safegcd inversion constants (inverse.go): p in signed 62-bit limbs,
	// p⁻¹ mod 2^62, and R³ mod p.
	p62    []int64
	pInv62 uint64
	r3     Element
}

// NewField builds a Field for the given odd prime modulus (decimal or 0x-hex
// string). It precomputes all Montgomery and Tonelli–Shanks constants.
func NewField(name, modulus string) (*Field, error) {
	p, ok := new(big.Int).SetString(modulus, 0)
	if !ok {
		return nil, fmt.Errorf("ff: cannot parse modulus %q", modulus)
	}
	return newFieldBig(name, p)
}

// MustField is NewField that panics on error, for package-level curve tables.
func MustField(name, modulus string) *Field {
	f, err := NewField(name, modulus)
	if err != nil {
		panic(err)
	}
	return f
}

func newFieldBig(name string, p *big.Int) (*Field, error) {
	if p.Sign() <= 0 || p.Bit(0) == 0 {
		return nil, fmt.Errorf("ff: modulus must be an odd positive prime, got %s", p)
	}
	n := (p.BitLen() + 63) / 64
	if n > MaxLimbs {
		return nil, fmt.Errorf("ff: modulus too wide: %d limbs > %d", n, MaxLimbs)
	}
	f := &Field{
		name: name,
		n:    n,
		bits: p.BitLen(),
		p:    bigToLimbs(p, n),
		pBig: new(big.Int).Set(p),
	}
	// inv = -p^{-1} mod 2^64 via Newton–Hensel lifting (p odd).
	inv := f.p[0] // correct to 3 bits
	for i := 0; i < 5; i++ {
		inv *= 2 - f.p[0]*inv
	}
	f.inv = -inv
	f.installKernels() // must precede the first Mul below

	shift := uint(64 * n)
	r := new(big.Int).Lsh(big.NewInt(1), shift)
	r.Mod(r, p)
	f.r = Element(bigToLimbs(r, n))
	r2 := new(big.Int).Lsh(big.NewInt(1), 2*shift)
	r2.Mod(r2, p)
	f.r2 = Element(bigToLimbs(r2, n))
	r3 := new(big.Int).Lsh(big.NewInt(1), 3*shift)
	f.installInverse(bigToLimbs(r3.Mod(r3, p), n))

	f.pMinus1 = new(big.Int).Sub(p, big.NewInt(1))
	f.pm1Half = new(big.Int).Rsh(f.pMinus1, 1)

	// p-1 = q * 2^s.
	q := new(big.Int).Set(f.pMinus1)
	var s uint
	for q.Bit(0) == 0 {
		q.Rsh(q, 1)
		s++
	}
	f.twoAdicS = s
	f.tsQ = q

	// Find a small quadratic non-residue by Euler's criterion.
	for c := int64(2); ; c++ {
		cand := f.FromBig(big.NewInt(c))
		if f.Legendre(cand) == -1 {
			f.nqr = cand
			break
		}
		if c > 1000 {
			return nil, fmt.Errorf("ff: no small non-residue found for %s", name)
		}
	}
	f.rootPow = f.Exp(f.nqr, q)
	return f, nil
}

// Name returns the field's display name.
func (f *Field) Name() string { return f.name }

// Limbs returns the number of 64-bit limbs per element.
func (f *Field) Limbs() int { return f.n }

// Bits returns the bit length of the modulus.
func (f *Field) Bits() int { return f.bits }

// Modulus returns a copy of the modulus.
func (f *Field) Modulus() *big.Int { return new(big.Int).Set(f.pBig) }

// TwoAdicity returns s where p-1 = q*2^s with q odd: the maximal power of
// two for which the multiplicative group has roots of unity, bounding the
// radix-2 NTT size to 2^s.
func (f *Field) TwoAdicity() uint { return f.twoAdicS }

// ByteLen returns the canonical serialized size of one element.
func (f *Field) ByteLen() int { return f.n * 8 }

// New returns a fresh zero element.
func (f *Field) New() Element { return make(Element, f.n) }

// NewVector returns n zero elements backed by one contiguous allocation —
// the column-major-friendly layout the GPU code paths assume (§3) and the
// cache-friendly layout for CPU transforms.
func (f *Field) NewVector(n int) []Element {
	backing := make([]uint64, n*f.n)
	v := make([]Element, n)
	for i := range v {
		v[i] = backing[i*f.n : (i+1)*f.n : (i+1)*f.n]
	}
	return v
}

// CopyVector returns a deep copy of xs in one contiguous allocation.
func (f *Field) CopyVector(xs []Element) []Element {
	v := f.NewVector(len(xs))
	for i := range xs {
		copy(v[i], xs[i])
	}
	return v
}

// Zero returns a fresh zero element (alias of New, reads better at call sites).
func (f *Field) Zero() Element { return f.New() }

// One returns a fresh element holding 1.
func (f *Field) One() Element {
	z := f.New()
	copy(z, f.r)
	return z
}

// SetOne sets z = 1 and returns z.
func (f *Field) SetOne(z Element) Element { return f.Set(z, f.r) }

// Set copies x into z and returns z.
func (f *Field) Set(z, x Element) Element {
	copy(z, x)
	return z
}

// Copy returns a fresh copy of x.
func (f *Field) Copy(x Element) Element {
	z := f.New()
	copy(z, x)
	return z
}

// FromUint64 returns v as a field element.
func (f *Field) FromUint64(v uint64) Element {
	return f.FromBig(new(big.Int).SetUint64(v))
}

// FromInt64 returns v as a field element (negative values wrap mod p).
func (f *Field) FromInt64(v int64) Element {
	return f.FromBig(big.NewInt(v))
}

// FromBig converts an arbitrary big.Int (any sign, any magnitude) into a
// Montgomery-form element.
func (f *Field) FromBig(v *big.Int) Element {
	t := new(big.Int).Mod(v, f.pBig)
	z := Element(bigToLimbs(t, f.n))
	f.Mul(z, z, f.r2) // z * R^2 * R^{-1} = z*R
	return z
}

// MustFromString parses a decimal or 0x-hex constant.
func (f *Field) MustFromString(s string) Element {
	v, ok := new(big.Int).SetString(s, 0)
	if !ok {
		panic("ff: bad constant " + s)
	}
	return f.FromBig(v)
}

// ToBig converts a Montgomery-form element back to its canonical integer.
func (f *Field) ToBig(x Element) *big.Int {
	return limbsToBig(f.Canonical(f.New(), x))
}

// rawOne is the integer 1 of any supported width, not in Montgomery form.
var rawOne = [MaxLimbs]uint64{1}

// Canonical sets z to x's canonical integer limbs (out of Montgomery form:
// x·1·R⁻¹) and returns z.
func (f *Field) Canonical(z, x Element) Element {
	f.kern.Mul(z, x, rawOne[:f.n])
	return z
}

// String renders x in decimal.
func (f *Field) String(x Element) string { return f.ToBig(x).String() }

// Bytes serializes x canonically as big-endian ByteLen() bytes.
func (f *Field) Bytes(x Element) []byte {
	return f.ToBig(x).FillBytes(make([]byte, f.ByteLen()))
}

// SetBytes parses a canonical big-endian encoding, rejecting values >= p.
func (f *Field) SetBytes(b []byte) (Element, error) {
	if len(b) != f.ByteLen() {
		return nil, fmt.Errorf("ff: %s: want %d bytes, got %d", f.name, f.ByteLen(), len(b))
	}
	v := new(big.Int).SetBytes(b)
	if v.Cmp(f.pBig) >= 0 {
		return nil, fmt.Errorf("ff: %s: encoding not in canonical range", f.name)
	}
	return f.FromBig(v), nil
}

func bigToLimbs(v *big.Int, n int) []uint64 {
	z := make([]uint64, n)
	words := v.Bits()
	if bits.UintSize == 64 {
		for i, w := range words {
			if i < n {
				z[i] = uint64(w)
			}
		}
		return z
	}
	// 32-bit platform fallback.
	for i := range z {
		var lo, hi uint64
		if 2*i < len(words) {
			lo = uint64(words[2*i])
		}
		if 2*i+1 < len(words) {
			hi = uint64(words[2*i+1])
		}
		z[i] = lo | hi<<32
	}
	return z
}

func limbsToBig(x Element) *big.Int {
	b := make([]byte, len(x)*8)
	for i, limb := range x {
		for j := 0; j < 8; j++ {
			b[len(b)-1-(i*8+j)] = byte(limb >> (8 * j))
		}
	}
	return new(big.Int).SetBytes(b)
}
