package ff

import (
	"encoding/binary"
	"math/big"
	mrand "math/rand"
	"testing"
)

// fermatInverse is the inverter safegcd replaced, kept as the oracle:
// z = x^(p−2) by square-and-multiply on f's kernels, 0 for x = 0.
func fermatInverse(f *Field, z, x Element) {
	e := new(big.Int).Sub(f.pBig, big.NewInt(2))
	acc := f.One()
	for i := e.BitLen() - 1; i >= 0; i-- {
		f.kern.Square(acc, acc)
		if e.Bit(i) == 1 {
			f.kern.Mul(acc, acc, x)
		}
	}
	copy(z, acc)
}

// inverseFields is every field the inverse is checked on: the 4-, 6- and
// 12-limb fixed-path widths, the test moduli (1, 4 and 6 limbs), and the
// generic-only 4-limb p = 2^256 − 189, whose top limb is full.
var inverseFields = func() []*Field {
	out := append([]*Field(nil), fuzzFields...)
	for _, m := range testModuli {
		out = append(out, MustField(m.name, m.mod))
	}
	return append(out, MustField("fulltop", "115792089237316195423570985008687907853269984665640564039457584007913129639747"))
}()

// inverseInput decodes one fuzz input into an element of f (raw
// Montgomery limbs, always < p): kind picks the shape, data its payload.
func inverseInput(f *Field, kind byte, data []byte) Element {
	p := f.Modulus()
	v := new(big.Int).SetBytes(data)
	switch kind % 7 {
	case 1: // zero
		v.SetInt64(0)
	case 2: // one
		v.SetInt64(1)
	case 3: // p − 1
		v.Sub(p, big.NewInt(1))
	case 4: // a power of two
		v.Lsh(big.NewInt(1), uint(v.Uint64()%uint64(f.Bits()-1)))
	case 5: // R mod p, the Montgomery form of 1
		return f.One()
	case 6: // top limb saturated: equal to p's, the lower limbs below p's
		low := new(big.Int).Lsh(big.NewInt(1), uint(64*(f.Limbs()-1)))
		low.Mod(p, low)
		if low.Sign() == 0 {
			low.SetInt64(1)
		}
		v.Sub(p, v.Add(big.NewInt(1), v.Mod(v, low)))
	}
	return Element(bigToLimbs(v.Mod(v, p), f.Limbs()))
}

// checkInverse requires InverseTo ≡ InverseTo on the generic multiplier ≡
// the Fermat oracle ≡ math/big ModInverse on x, and InverseTo(x, x) ≡
// InverseTo(z, x).
func checkInverse(t *testing.T, f *Field, x Element) {
	t.Helper()
	got := f.New()
	f.InverseTo(got, x)
	generic := f.New()
	f.WithoutFastPath().InverseTo(generic, x)
	oracle := f.New()
	fermatInverse(f, oracle, x)
	want := new(big.Int)
	if xv := f.ToBig(x); xv.Sign() != 0 {
		want.ModInverse(xv, f.pBig)
	}
	if !f.Equal(got, generic) || !f.Equal(got, oracle) || f.ToBig(got).Cmp(want) != 0 {
		t.Fatalf("%s: inverse of %s: got %s, generic %s, Fermat %s, math/big %s", f.Name(),
			f.String(x), f.String(got), f.String(generic), f.String(oracle), want)
	}
	aliased := f.Copy(x)
	f.InverseTo(aliased, aliased)
	if !f.Equal(aliased, got) {
		t.Fatalf("%s: InverseTo(x, x) = %s, want %s", f.Name(), f.String(aliased), f.String(got))
	}
}

// FuzzInverse differentially tests the safegcd inverter against the Fermat
// oracle and math/big on every test modulus, with the aliased form z = x.
// Run by the CI fuzz leg and `make fuzz`.
func FuzzInverse(fz *testing.F) {
	for which := range inverseFields {
		for kind := byte(0); kind < 7; kind++ {
			fz.Add(byte(which), kind, []byte{byte(17 * which), 0xa5, kind})
		}
	}
	fz.Add(byte(0), byte(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	fz.Add(byte(1), byte(4), []byte{250})
	fz.Add(byte(2), byte(6), make([]byte, 96))
	fz.Fuzz(func(t *testing.T, which, kind byte, data []byte) {
		f := inverseFields[int(which)%len(inverseFields)]
		checkInverse(t, f, inverseInput(f, kind, data))
	})
}

// TestInverseEdges runs the fuzz seed menu plus random elements and every
// power of two below p deterministically.
func TestInverseEdges(t *testing.T) {
	rng := mrand.New(mrand.NewSource(38))
	for _, f := range inverseFields {
		for kind := byte(0); kind < 7; kind++ {
			for i := 0; i < 8; i++ {
				data := make([]byte, 8*f.Limbs())
				rng.Read(data)
				checkInverse(t, f, inverseInput(f, kind, data))
			}
		}
		for i := 0; i < f.Bits()-1; i++ {
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(i))
			checkInverse(t, f, inverseInput(f, 4, b[:]))
		}
	}
}

// TestInverseZeroIsZero: 0 maps to 0 on every width and path, aliased or
// not, so no caller can loop or divide by zero on a degenerate input.
func TestInverseZeroIsZero(t *testing.T) {
	for _, f := range inverseFields {
		for _, g := range []*Field{f, f.WithoutFastPath()} {
			z := g.One()
			g.InverseTo(z, g.Zero())
			if !g.IsZero(z) || !g.IsZero(g.Inverse(g.Zero())) {
				t.Fatalf("%s (fast path %d): inverse of 0 is not 0", g.Name(), g.FastPathWidth())
			}
			g.InverseTo(z, z)
			if !g.IsZero(z) {
				t.Fatalf("%s: aliased inverse of 0 is not 0", g.Name())
			}
		}
	}
}

// BenchmarkInverse: safegcd against the Fermat ladder it replaced, on
// BN254 Fq (4 limbs), BLS12-381 Fq (6) and the 12-limb width.
func BenchmarkInverse(b *testing.B) {
	for _, f := range fuzzFields {
		rng := mrand.New(mrand.NewSource(1))
		x, z := f.Rand(rng), f.New()
		b.Run(f.Name()+"/safegcd", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.InverseTo(z, x)
			}
		})
		b.Run(f.Name()+"/fermat", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fermatInverse(f, z, x)
			}
		})
	}
}
