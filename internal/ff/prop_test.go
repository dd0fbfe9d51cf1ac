package ff

import (
	"math/big"
	mrand "math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// quickConfig builds a testing/quick config whose Values generator draws
// canonical field elements for f.
func quickConfig(f *Field, seed int64) *quick.Config {
	rng := mrand.New(mrand.NewSource(seed))
	return &quick.Config{
		MaxCount: 150,
		Values: func(vals []reflect.Value, _ *mrand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(f.Rand(rng))
			}
		},
	}
}

func TestPropFieldAxioms(t *testing.T) {
	for _, f := range testFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			commAdd := func(a, b Element) bool {
				return f.Equal(f.Add(f.New(), a, b), f.Add(f.New(), b, a))
			}
			if err := quick.Check(commAdd, quickConfig(f, 10)); err != nil {
				t.Error("add commutativity:", err)
			}
			commMul := func(a, b Element) bool {
				return f.Equal(f.Mul(f.New(), a, b), f.Mul(f.New(), b, a))
			}
			if err := quick.Check(commMul, quickConfig(f, 11)); err != nil {
				t.Error("mul commutativity:", err)
			}
			assocMul := func(a, b, c Element) bool {
				ab := f.Mul(f.New(), a, b)
				bc := f.Mul(f.New(), b, c)
				return f.Equal(f.Mul(ab, ab, c), f.Mul(bc, a, bc))
			}
			if err := quick.Check(assocMul, quickConfig(f, 12)); err != nil {
				t.Error("mul associativity:", err)
			}
			distrib := func(a, b, c Element) bool {
				// a*(b+c) == a*b + a*c
				lhs := f.Mul(f.New(), a, f.Add(f.New(), b, c))
				rhs := f.Add(f.New(), f.Mul(f.New(), a, b), f.Mul(f.New(), a, c))
				return f.Equal(lhs, rhs)
			}
			if err := quick.Check(distrib, quickConfig(f, 13)); err != nil {
				t.Error("distributivity:", err)
			}
			addNeg := func(a Element) bool {
				return f.IsZero(f.Add(f.New(), a, f.Neg(f.New(), a)))
			}
			if err := quick.Check(addNeg, quickConfig(f, 14)); err != nil {
				t.Error("additive inverse:", err)
			}
			mulOne := func(a Element) bool {
				return f.Equal(f.Mul(f.New(), a, f.One()), a)
			}
			if err := quick.Check(mulOne, quickConfig(f, 15)); err != nil {
				t.Error("multiplicative identity:", err)
			}
			subAdd := func(a, b Element) bool {
				// (a-b)+b == a
				return f.Equal(f.Add(f.New(), f.Sub(f.New(), a, b), b), a)
			}
			if err := quick.Check(subAdd, quickConfig(f, 16)); err != nil {
				t.Error("sub/add roundtrip:", err)
			}
		})
	}
}

func TestPropMontgomeryRoundtrip(t *testing.T) {
	for _, f := range testFields(t) {
		f := f
		prop := func(a Element) bool {
			return f.Equal(f.FromBig(f.ToBig(a)), a)
		}
		if err := quick.Check(prop, quickConfig(f, 17)); err != nil {
			t.Errorf("%s: %v", f.Name(), err)
		}
	}
}

func TestPropFermat(t *testing.T) {
	// a^p == a for all a (Frobenius is identity on the prime field).
	for _, f := range testFields(t) {
		if f.Bits() > 64 {
			continue // keep the property cheap; wide fields covered by TestExp
		}
		f := f
		prop := func(a Element) bool {
			return f.Equal(f.Exp(a, f.Modulus()), a)
		}
		if err := quick.Check(prop, quickConfig(f, 18)); err != nil {
			t.Errorf("%s: %v", f.Name(), err)
		}
	}
}

func TestPropSquareLegendre(t *testing.T) {
	for _, f := range testFields(t) {
		f := f
		prop := func(a Element) bool {
			if f.IsZero(a) {
				return true
			}
			return f.Legendre(f.Square(f.New(), a)) == 1
		}
		if err := quick.Check(prop, quickConfig(f, 19)); err != nil {
			t.Errorf("%s: %v", f.Name(), err)
		}
	}
}

func TestPropHalveDouble(t *testing.T) {
	for _, f := range testFields(t) {
		f := f
		prop := func(a Element) bool {
			return f.Equal(f.Double(f.New(), f.Halve(f.New(), a)), a)
		}
		if err := quick.Check(prop, quickConfig(f, 20)); err != nil {
			t.Errorf("%s: %v", f.Name(), err)
		}
	}
}

func BenchmarkMul(b *testing.B) {
	for _, m := range testModuli[2:] {
		f := MustField(m.name, m.mod)
		rng := mrand.New(mrand.NewSource(1))
		x, y := f.Rand(rng), f.Rand(rng)
		z := f.New()
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.Mul(z, x, y)
			}
		})
	}
}

func BenchmarkAdd(b *testing.B) {
	for _, m := range testModuli[2:] {
		f := MustField(m.name, m.mod)
		rng := mrand.New(mrand.NewSource(1))
		x, y := f.Rand(rng), f.Rand(rng)
		z := f.New()
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.Add(z, x, y)
			}
		})
	}
}

var sinkBig *big.Int

func BenchmarkMulBigIntReference(b *testing.B) {
	// Reference point: math/big modular multiply, to show the limb path wins.
	f := MustField("BN254Fq", testModuli[2].mod)
	rng := mrand.New(mrand.NewSource(1))
	x, y := f.ToBig(f.Rand(rng)), f.ToBig(f.Rand(rng))
	p := f.Modulus()
	z := new(big.Int)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Mul(x, y)
		z.Mod(z, p)
	}
	sinkBig = z
}

func TestPropSquareMatchesMul(t *testing.T) {
	// The dedicated SOS squaring must agree with Mul(x,x) bit-for-bit,
	// including aliasing and boundary values, on every field width.
	for _, f := range testFields(t) {
		f := f
		prop := func(a Element) bool {
			viaMul := f.Mul(f.New(), a, a)
			viaSq := f.Square(f.New(), a)
			aliased := f.Copy(a)
			f.Square(aliased, aliased)
			return f.Equal(viaSq, viaMul) && f.Equal(aliased, viaMul)
		}
		if err := quick.Check(prop, quickConfig(f, 21)); err != nil {
			t.Errorf("%s: %v", f.Name(), err)
		}
		// Boundary values.
		pm1 := f.FromBig(new(big.Int).Sub(f.Modulus(), big.NewInt(1)))
		for _, v := range []Element{f.Zero(), f.One(), pm1} {
			if !f.Equal(f.Square(f.New(), v), f.Mul(f.New(), v, v)) {
				t.Fatalf("%s: square boundary mismatch", f.Name())
			}
		}
	}
}

func BenchmarkSquare(b *testing.B) {
	for _, m := range testModuli[2:] {
		f := MustField(m.name, m.mod)
		rng := mrand.New(mrand.NewSource(1))
		x := f.Rand(rng)
		z := f.New()
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.Square(z, x)
			}
		})
	}
}
