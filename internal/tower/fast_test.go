package tower

import (
	"encoding/binary"
	"math/big"
	mrand "math/rand"
	"testing"

	"gzkp/internal/ff"
)

// WithoutFastPath returns a view of e (and of every level under it) pinned
// to the generic coefficient loops, as ff.Field.WithoutFastPath does for
// the prime field. Elements are interchangeable between e and the view.
// Test support only: the differential oracle for fast.go.
func (e *Ext) WithoutFastPath() *Ext {
	clone := *e
	if b, ok := e.base.(*Ext); ok {
		clone.base = b.WithoutFastPath()
	}
	clone.name += "-generic"
	clone.fast, clone.level = nil, 0
	clone.installGeneric()
	return &clone
}

type testTower struct {
	fq             *ff.Field
	fq2, fq6, fq12 *Ext
}

// build232 assembles Fq2 = Fq[u]/(u²+1), Fq6 = Fq2[v]/(v³-(xi+u)),
// Fq12 = Fq6[w]/(w²-v) over the given prime.
func build232(name, modulus string, xi uint64) testTower {
	fq := ff.MustField(name+"Fq", modulus)
	fq2 := NewExt(name+"Fq2", NewPrime(fq), 2, fq.FromInt64(-1))
	nr := fq2.Zero()
	fq2.SetCoeff(nr, 0, fq.FromUint64(xi))
	fq2.SetCoeff(nr, 1, fq.One())
	fq6 := NewExt(name+"Fq6", fq2, 3, nr)
	fq12 := NewExt(name+"Fq12", fq6, 2, fq6.MulByRoot(fq6.Zero(), fq6.One()))
	return testTower{fq, fq2, fq6, fq12}
}

const (
	bn254Modulus  = "21888242871839275222246405745257275088696311157297823662689037894645226208583"
	bls381Modulus = "0x1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab"
)

// fastTowers are the two shapes that must bind fast: BN254 (4 limbs,
// ξ = 9+u) and BLS12-381 (6 limbs, ξ = 1+u).
var fastTowers = []testTower{
	build232("BN254", bn254Modulus, 9),
	build232("BLS381", bls381Modulus, 1),
}

func TestFastBindingSelection(t *testing.T) {
	for _, tw := range fastTowers {
		for i, e := range []*Ext{tw.fq2, tw.fq6, tw.fq12} {
			if e.Fast() == nil || e.level != []int{2, 6, 12}[i] {
				t.Errorf("%s: not bound to the fast kernels (level %d)", e.Name(), e.level)
			}
			if g := e.WithoutFastPath(); g.Fast() != nil || g.level != 0 {
				t.Errorf("%s: WithoutFastPath view still bound", e.Name())
			}
		}
	}
	fq := fastTowers[0].fq
	// A non-(-1) quadratic non-residue, a base on the generic ff path, a ξ
	// outside the add-chain range and a 12-limb base must all stay generic.
	wide := ff.MustField("wide", "0x1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000003db")
	generic := []*Ext{
		NewExt("nr=-3", NewPrime(fq), 2, fq.FromInt64(-3)),
		NewExt("generic-ff", NewPrime(fq.WithoutFastPath()), 2, fq.FromInt64(-1)),
		build232("bigxi", bn254Modulus, maxXi+1).fq6,
		NewExt("12-limb", NewPrime(wide), 2, wide.FromInt64(-1)),
	}
	for _, e := range generic {
		if e.Fast() != nil {
			t.Errorf("%s: bound fast, must stay generic", e.Name())
		}
	}
}

// fuzzElement fills one element of f coefficient by coefficient: the low
// two bits of each selector byte pick 0, 1, p-1 or a value drawn from rng.
func fuzzElement(fq *ff.Field, f *Ext, sel []byte, rng *mrand.Rand) []uint64 {
	n := fq.Limbs()
	z := f.Zero()
	pm1 := fq.Neg(fq.New(), fq.One())
	for i := 0; i*n < len(z); i++ {
		var s byte = 3
		if i < len(sel) {
			s = sel[i] & 3
		}
		c := z[i*n : (i+1)*n]
		switch s {
		case 1:
			copy(c, fq.One())
		case 2:
			copy(c, pm1)
		case 3:
			copy(c, fq.Rand(rng))
		}
	}
	return z
}

// FuzzTowerFastVsGeneric differentially tests every fast kernel against
// the generic Ext at all three levels of both towers — Mul, Square,
// Inverse, MulByRoot and the Frobenius maps, under every z/x/y aliasing —
// and Fq2 against math/big. The payload's first 8 bytes seed the random
// coefficients; the rest select 0 / 1 / p-1 / random per coefficient.
func FuzzTowerFastVsGeneric(fz *testing.F) {
	fz.Add([]byte{})
	fz.Add(make([]byte, 40))
	fz.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	fz.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	fz.Add([]byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8, 3, 0, 1, 2, 3, 0, 1, 2, 2, 1, 0, 3, 2, 1, 0, 3})

	fz.Fuzz(func(t *testing.T, data []byte) {
		var seed [8]byte
		copy(seed[:], data)
		sel := data[min(len(data), 8):]
		for _, tw := range fastTowers {
			rng := mrand.New(mrand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))
			p := tw.fq.Modulus()
			for _, f := range []*Ext{tw.fq2, tw.fq6, tw.fq12} {
				g := f.WithoutFastPath()
				x := fuzzElement(tw.fq, f, sel, rng)
				y := fuzzElement(tw.fq, f, sel[min(len(sel), 12):], rng)
				eq := func(op string, got, want []uint64) {
					t.Helper()
					if !f.Equal(got, want) {
						t.Fatalf("%s %s: fast %s != generic %s", f.Name(), op, f.String(got), f.String(want))
					}
				}
				// Three-operand ops under all five aliasings.
				for _, op := range []struct {
					name      string
					fast, gen func(z, x, y []uint64) []uint64
				}{{"mul", f.Mul, g.Mul}, {"add", f.Add, g.Add}, {"sub", f.Sub, g.Sub}} {
					eq(op.name, op.fast(f.Zero(), x, y), op.gen(g.Zero(), x, y))
					z := f.Copy(x)
					eq(op.name+" z=x", op.fast(z, z, y), op.gen(g.Zero(), x, y))
					z = f.Copy(y)
					eq(op.name+" z=y", op.fast(z, x, z), op.gen(g.Zero(), x, y))
					eq(op.name+" x=y", op.fast(f.Zero(), x, x), op.gen(g.Zero(), x, x))
					z = f.Copy(x)
					eq(op.name+" z=x=y", op.fast(z, z, z), op.gen(g.Zero(), x, x))
				}
				for _, op := range []struct {
					name      string
					fast, gen func(z, x []uint64) []uint64
				}{{"square", f.Square, g.Square}, {"neg", f.Neg, g.Neg}, {"double", f.Double, g.Double}, {"mulByRoot", f.MulByRoot, g.MulByRoot}} {
					eq(op.name, op.fast(f.Zero(), x), op.gen(g.Zero(), x))
					z := f.Copy(x)
					eq(op.name+" z=x", op.fast(z, z), op.gen(g.Zero(), x))
				}
				eq("inverse", f.Inverse(x), g.Inverse(x))
			}

			// Frobenius: the fast maps against x^p on the generic tower.
			k := tw.fq12.Fast()
			x2 := fuzzElement(tw.fq, tw.fq2, sel, rng)
			conj := tw.fq2.Zero()
			k.Conj2(conj, x2)
			if !tw.fq2.Equal(conj, tw.fq2.WithoutFastPath().Exp(x2, p)) {
				t.Fatalf("%s: Conj2 != x^p", tw.fq2.Name())
			}
			x12 := fuzzElement(tw.fq, tw.fq12, sel, rng)
			want := tw.fq12.WithoutFastPath().Exp(x12, p)
			got := tw.fq12.Zero()
			k.Frob12(got, x12)
			if !tw.fq12.Equal(got, want) {
				t.Fatalf("%s: Frob12 != x^p", tw.fq12.Name())
			}
			k.Frob12(x12, x12)
			if !tw.fq12.Equal(x12, want) {
				t.Fatalf("%s: Frob12 in place != x^p", tw.fq12.Name())
			}

			// Fq2 against math/big: (a0 + a1·u)(b0 + b1·u), u² = -1.
			y2 := fuzzElement(tw.fq, tw.fq2, sel[min(len(sel), 2):], rng)
			n := tw.fq.Limbs()
			a0, a1 := tw.fq.ToBig(x2[:n]), tw.fq.ToBig(x2[n:])
			b0, b1 := tw.fq.ToBig(y2[:n]), tw.fq.ToBig(y2[n:])
			mod := func(v *big.Int) *big.Int { return v.Mod(v, p) }
			bigEq := func(op string, z []uint64, w0, w1 *big.Int) {
				t.Helper()
				if tw.fq.ToBig(z[:n]).Cmp(mod(w0)) != 0 || tw.fq.ToBig(z[n:]).Cmp(mod(w1)) != 0 {
					t.Fatalf("%s %s: got %s, math/big wants (%s, %s)", tw.fq2.Name(), op, tw.fq2.String(z), w0, w1)
				}
			}
			mul := func(a, b *big.Int) *big.Int { return new(big.Int).Mul(a, b) }
			bigEq("mul", tw.fq2.Mul(tw.fq2.Zero(), x2, y2),
				new(big.Int).Sub(mul(a0, b0), mul(a1, b1)), new(big.Int).Add(mul(a0, b1), mul(a1, b0)))
			bigEq("square", tw.fq2.Square(tw.fq2.Zero(), x2),
				new(big.Int).Sub(mul(a0, a0), mul(a1, a1)), new(big.Int).Lsh(mul(a0, a1), 1))
			if !tw.fq2.IsZero(x2) {
				norm := new(big.Int).Add(mul(a0, a0), mul(a1, a1))
				ninv := new(big.Int).ModInverse(mod(norm), p)
				bigEq("inverse", tw.fq2.Inverse(x2), mul(a0, ninv), new(big.Int).Neg(mul(a1, ninv)))
			}
		}
	})
}

func TestFastKernelsDoNotAllocate(t *testing.T) {
	rng := mrand.New(mrand.NewSource(5))
	for _, tw := range fastTowers {
		for _, f := range []*Ext{tw.fq2, tw.fq6, tw.fq12} {
			x, y, z := f.Rand(rng), f.Rand(rng), f.Zero()
			if a := testing.AllocsPerRun(20, func() { f.Mul(z, x, y) }); a != 0 {
				t.Errorf("%s Mul: %v allocs/op, want 0", f.Name(), a)
			}
			if a := testing.AllocsPerRun(20, func() { f.Square(z, x) }); a != 0 {
				t.Errorf("%s Square: %v allocs/op, want 0", f.Name(), a)
			}
		}
		k, x, z := tw.fq12.Fast(), tw.fq12.Rand(rng), tw.fq12.Zero()
		l := tw.fq6.Rand(rng) // three Fq2 coefficients
		w := tw.fq2.Words()
		for name, fn := range map[string]func(){
			"MulBy034": func() { k.MulBy034(z, x, l[:w], l[w:2*w], l[2*w:]) },
			"MulBy014": func() { k.MulBy014(z, x, l[:w], l[w:2*w], l[2*w:]) },
			"CycloSqr": func() { k.CycloSqr(z, x) },
			"Frob12":   func() { k.Frob12(z, x) },
		} {
			if a := testing.AllocsPerRun(20, fn); a != 0 {
				t.Errorf("%s %s: %v allocs/op, want 0", tw.fq12.Name(), name, a)
			}
		}
	}
}

// TestSparseLineMulIsDenseMul embeds a line at its three positions of the
// flattened [g0 g2 g4 g1 g3 g5] layout and multiplies densely.
func TestSparseLineMulIsDenseMul(t *testing.T) {
	rng := mrand.New(mrand.NewSource(6))
	for _, tw := range fastTowers {
		k, w := tw.fq12.Fast(), tw.fq2.Words()
		for i := 0; i < 20; i++ {
			x := tw.fq12.Rand(rng)
			a, b, c := tw.fq2.Rand(rng), tw.fq2.Rand(rng), tw.fq2.Rand(rng)
			for _, s := range []struct {
				name string
				pos  [3]int
				mul  func(z, x, a, b, c []uint64)
			}{{"MulBy034", [3]int{0, 3, 4}, k.MulBy034}, {"MulBy014", [3]int{0, 1, 4}, k.MulBy014}} {
				line := tw.fq12.Zero()
				for j, co := range [][]uint64{a, b, c} {
					copy(line[s.pos[j]*w:], co)
				}
				want := tw.fq12.WithoutFastPath().Mul(tw.fq12.Zero(), x, line)
				got := tw.fq12.Zero()
				s.mul(got, x, a, b, c)
				if !tw.fq12.Equal(got, want) {
					t.Fatalf("%s %s: sparse product != dense product", tw.fq12.Name(), s.name)
				}
				z := tw.fq12.Copy(x)
				s.mul(z, z, a, b, c)
				if !tw.fq12.Equal(z, want) {
					t.Fatalf("%s %s: in-place sparse product != dense product", tw.fq12.Name(), s.name)
				}
			}
		}
	}
}

// TestCyclotomicSquare checks Granger–Scott squaring against Square on
// elements of the cyclotomic subgroup (after the easy part of the final
// exponentiation), and that it really needs the subgroup.
func TestCyclotomicSquare(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	for _, tw := range fastTowers {
		f, k := tw.fq12, tw.fq12.Fast()
		for i := 0; i < 20; i++ {
			x := f.Rand(rng)
			// x^((p⁶-1)(p²+1))
			c := f.Zero()
			k.Conj12(c, x)
			f.Mul(c, c, f.Inverse(x))
			c2 := f.Zero()
			k.Frob12(c2, c)
			k.Frob12(c2, c2)
			f.Mul(c, c, c2)

			got, want := f.Zero(), f.Square(f.Zero(), c)
			k.CycloSqr(got, c)
			if !f.Equal(got, want) {
				t.Fatalf("%s: CycloSqr != Square on the cyclotomic subgroup", f.Name())
			}
			k.CycloSqr(c, c)
			if !f.Equal(c, want) {
				t.Fatalf("%s: in-place CycloSqr != Square", f.Name())
			}
			k.CycloSqr(got, x)
			if f.Equal(got, f.Square(f.Zero(), x)) {
				t.Fatalf("%s: CycloSqr agrees with Square off the subgroup (test has no teeth)", f.Name())
			}
		}
	}
}

func BenchmarkFast(b *testing.B) {
	rng := mrand.New(mrand.NewSource(1))
	for _, tw := range fastTowers {
		for _, f := range []*Ext{tw.fq2, tw.fq12, tw.fq2.WithoutFastPath(), tw.fq12.WithoutFastPath()} {
			x, y, z := f.Rand(rng), f.Rand(rng), f.Zero()
			b.Run(f.Name()+"/mul", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f.Mul(z, x, y)
				}
			})
			b.Run(f.Name()+"/square", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f.Square(z, x)
				}
			})
		}
	}
}
