package ff

import (
	"bytes"
	crand "crypto/rand"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"
)

// Test moduli spanning the widths GZKP supports. The 256- and 381-bit values
// are the real ALT-BN128 / BLS12-381 base-field moduli; the small one
// stresses edge cases cheaply.
var testModuli = []struct {
	name string
	mod  string
}{
	{"F17", "17"},
	{"Fsmall61", "2305843009213693951"}, // 2^61-1, Mersenne
	{"BN254Fq", "21888242871839275222246405745257275088696311157297823662689037894645226208583"},
	{"BN254Fr", "21888242871839275222246405745257275088548364400416034343698204186575808495617"},
	{"BLS381Fq", "0x1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab"},
	{"BLS381Fr", "0x73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001"},
}

func testFields(t *testing.T) []*Field {
	t.Helper()
	out := make([]*Field, 0, len(testModuli))
	for _, m := range testModuli {
		f, err := NewField(m.name, m.mod)
		if err != nil {
			t.Fatalf("NewField(%s): %v", m.name, err)
		}
		out = append(out, f)
	}
	return out
}

func TestNewFieldRejectsBadModuli(t *testing.T) {
	for _, bad := range []string{"0", "-7", "16", "nonsense"} {
		if _, err := NewField("bad", bad); err == nil {
			t.Errorf("NewField(%q) accepted an invalid modulus", bad)
		}
	}
}

func TestRoundTripBig(t *testing.T) {
	for _, f := range testFields(t) {
		rng := mrand.New(mrand.NewSource(1))
		for i := 0; i < 200; i++ {
			v := new(big.Int).Rand(rng, f.Modulus())
			e := f.FromBig(v)
			got := f.ToBig(e)
			if got.Cmp(v) != 0 {
				t.Fatalf("%s: roundtrip %v -> %v", f.Name(), v, got)
			}
		}
	}
}

func TestArithmeticAgainstBig(t *testing.T) {
	for _, f := range testFields(t) {
		p := f.Modulus()
		rng := mrand.New(mrand.NewSource(2))
		for i := 0; i < 300; i++ {
			a := new(big.Int).Rand(rng, p)
			b := new(big.Int).Rand(rng, p)
			ea, eb := f.FromBig(a), f.FromBig(b)

			sum := f.ToBig(f.Add(f.New(), ea, eb))
			want := new(big.Int).Add(a, b)
			want.Mod(want, p)
			if sum.Cmp(want) != 0 {
				t.Fatalf("%s: add mismatch", f.Name())
			}

			diff := f.ToBig(f.Sub(f.New(), ea, eb))
			want.Sub(a, b).Mod(want, p)
			if diff.Cmp(want) != 0 {
				t.Fatalf("%s: sub mismatch", f.Name())
			}

			prod := f.ToBig(f.Mul(f.New(), ea, eb))
			want.Mul(a, b).Mod(want, p)
			if prod.Cmp(want) != 0 {
				t.Fatalf("%s: mul mismatch: %v*%v = %v want %v", f.Name(), a, b, prod, want)
			}

			neg := f.ToBig(f.Neg(f.New(), ea))
			want.Neg(a).Mod(want, p)
			if neg.Cmp(want) != 0 {
				t.Fatalf("%s: neg mismatch", f.Name())
			}

			sq := f.ToBig(f.Square(f.New(), ea))
			want.Mul(a, a).Mod(want, p)
			if sq.Cmp(want) != 0 {
				t.Fatalf("%s: square mismatch", f.Name())
			}

			half := f.ToBig(f.Halve(f.New(), ea))
			half.Lsh(half, 1).Mod(half, p)
			if half.Cmp(a) != 0 {
				t.Fatalf("%s: halve mismatch", f.Name())
			}
		}
	}
}

func TestAliasing(t *testing.T) {
	for _, f := range testFields(t) {
		rng := mrand.New(mrand.NewSource(3))
		a, b := f.Rand(rng), f.Rand(rng)
		want := f.Mul(f.New(), a, b)
		got := f.Copy(a)
		f.Mul(got, got, b) // z aliases x
		if !f.Equal(got, want) {
			t.Fatalf("%s: mul aliasing x", f.Name())
		}
		got = f.Copy(b)
		f.Mul(got, a, got) // z aliases y
		if !f.Equal(got, want) {
			t.Fatalf("%s: mul aliasing y", f.Name())
		}
		got = f.Copy(a)
		f.Add(got, got, got)
		if !f.Equal(got, f.Double(f.New(), a)) {
			t.Fatalf("%s: add full aliasing", f.Name())
		}
	}
}

func TestInverse(t *testing.T) {
	for _, f := range testFields(t) {
		rng := mrand.New(mrand.NewSource(4))
		for i := 0; i < 50; i++ {
			a := f.Rand(rng)
			if f.IsZero(a) {
				continue
			}
			inv := f.Inverse(a)
			if !f.IsOne(f.Mul(f.New(), a, inv)) {
				t.Fatalf("%s: a * a^-1 != 1", f.Name())
			}
		}
		if !f.IsZero(f.Inverse(f.Zero())) {
			t.Fatalf("%s: Inverse(0) should be 0", f.Name())
		}
	}
}

func TestExp(t *testing.T) {
	for _, f := range testFields(t) {
		rng := mrand.New(mrand.NewSource(6))
		p := f.Modulus()
		for i := 0; i < 20; i++ {
			a := new(big.Int).Rand(rng, p)
			e := new(big.Int).Rand(rng, p)
			got := f.ToBig(f.Exp(f.FromBig(a), e))
			want := new(big.Int).Exp(a, e, p)
			if got.Cmp(want) != 0 {
				t.Fatalf("%s: exp mismatch", f.Name())
			}
		}
		// x^0 == 1, x^1 == x, negative exponent.
		a := f.Rand(rng)
		if !f.IsOne(f.Exp(a, big.NewInt(0))) {
			t.Fatalf("%s: a^0 != 1", f.Name())
		}
		if !f.Equal(f.Exp(a, big.NewInt(1)), a) {
			t.Fatalf("%s: a^1 != a", f.Name())
		}
		if !f.IsOne(f.Mul(f.New(), f.Exp(a, big.NewInt(-1)), a)) {
			t.Fatalf("%s: a^-1 * a != 1", f.Name())
		}
	}
}

func TestLegendreAndSqrt(t *testing.T) {
	for _, f := range testFields(t) {
		rng := mrand.New(mrand.NewSource(7))
		for i := 0; i < 40; i++ {
			a := f.Rand(rng)
			if f.IsZero(a) {
				continue
			}
			sq := f.Square(f.New(), a)
			if f.Legendre(sq) != 1 {
				t.Fatalf("%s: square not a QR", f.Name())
			}
			root, err := f.Sqrt(sq)
			if err != nil {
				t.Fatalf("%s: Sqrt(square): %v", f.Name(), err)
			}
			r2 := f.Square(f.New(), root)
			if !f.Equal(r2, sq) {
				t.Fatalf("%s: sqrt(a^2)^2 != a^2", f.Name())
			}
		}
		if f.Legendre(f.Zero()) != 0 {
			t.Fatalf("%s: Legendre(0) != 0", f.Name())
		}
		// Non-residue must be rejected.
		nr := f.Copy(f.nqr)
		if _, err := f.Sqrt(nr); err == nil {
			t.Fatalf("%s: Sqrt accepted a non-residue", f.Name())
		}
	}
}

func TestRootOfUnity(t *testing.T) {
	for _, f := range testFields(t) {
		s := f.TwoAdicity()
		if _, err := f.RootOfUnity(s + 1); err == nil {
			t.Fatalf("%s: accepted order beyond two-adicity", f.Name())
		}
		for _, k := range []uint{0, 1, 2, s} {
			if k > s {
				continue
			}
			w, err := f.RootOfUnity(k)
			if err != nil {
				t.Fatalf("%s: RootOfUnity(%d): %v", f.Name(), k, err)
			}
			// w^(2^k) == 1 and w^(2^(k-1)) != 1 (primitivity).
			acc := f.Copy(w)
			for i := uint(0); i < k; i++ {
				if i == k-1 && f.IsOne(acc) {
					t.Fatalf("%s: root of order 2^%d not primitive", f.Name(), k)
				}
				f.Square(acc, acc)
			}
			if !f.IsOne(acc) {
				t.Fatalf("%s: RootOfUnity(%d)^2^%d != 1", f.Name(), k, k)
			}
		}
	}
}

func TestSerialization(t *testing.T) {
	for _, f := range testFields(t) {
		rng := mrand.New(mrand.NewSource(8))
		for i := 0; i < 30; i++ {
			a := f.Rand(rng)
			b := f.Bytes(a)
			if len(b) != f.ByteLen() {
				t.Fatalf("%s: byte length %d != %d", f.Name(), len(b), f.ByteLen())
			}
			back, err := f.SetBytes(b)
			if err != nil {
				t.Fatalf("%s: SetBytes: %v", f.Name(), err)
			}
			if !f.Equal(a, back) {
				t.Fatalf("%s: serialize roundtrip failed", f.Name())
			}
		}
		// Non-canonical (>= p) and wrong-size encodings must fail.
		bad := f.Modulus().FillBytes(make([]byte, f.ByteLen()))
		if _, err := f.SetBytes(bad); err == nil {
			t.Fatalf("%s: accepted encoding == p", f.Name())
		}
		if _, err := f.SetBytes(bytes.Repeat([]byte{0}, f.ByteLen()+1)); err == nil {
			t.Fatalf("%s: accepted wrong-size encoding", f.Name())
		}
	}
}

func TestSelect(t *testing.T) {
	f := testFields(t)[2]
	rng := mrand.New(mrand.NewSource(9))
	a, b := f.Rand(rng), f.Rand(rng)
	if !f.Equal(f.Select(f.New(), 1, a, b), a) {
		t.Fatal("Select(1) != a")
	}
	if !f.Equal(f.Select(f.New(), 0, a, b), b) {
		t.Fatal("Select(0) != b")
	}
}

func TestSmallConstants(t *testing.T) {
	for _, f := range testFields(t) {
		if !f.IsZero(f.Zero()) || !f.IsOne(f.One()) {
			t.Fatalf("%s: zero/one broken", f.Name())
		}
		three := f.FromUint64(3)
		if f.String(three) != "3" && f.Modulus().Cmp(big.NewInt(3)) > 0 {
			t.Fatalf("%s: FromUint64(3) = %s", f.Name(), f.String(three))
		}
		m2 := f.FromInt64(-2)
		want := new(big.Int).Sub(f.Modulus(), big.NewInt(2))
		if f.ToBig(m2).Cmp(want) != 0 {
			t.Fatalf("%s: FromInt64(-2) wrong", f.Name())
		}
	}
}

func TestRandReader(t *testing.T) {
	f := testFields(t)[2]
	a, err := f.RandReader(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.RandReader(nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Equal(a, b) {
		t.Fatal("two crypto-random draws equal (astronomically unlikely)")
	}
}

func TestNewVectorContiguous(t *testing.T) {
	f := testFields(t)[2]
	v := f.NewVector(10)
	if len(v) != 10 {
		t.Fatal("wrong length")
	}
	// Each element must be a full-width, capacity-capped view.
	for i := range v {
		if len(v[i]) != f.Limbs() || cap(v[i]) != f.Limbs() {
			t.Fatal("vector element has wrong shape")
		}
	}
	// Writes through one element must not bleed into neighbors.
	rng := mrand.New(mrand.NewSource(12))
	f.Set(v[3], f.Rand(rng))
	if !f.IsZero(v[2]) || !f.IsZero(v[4]) {
		t.Fatal("element write bled into neighbor")
	}
}

func TestCopyVector(t *testing.T) {
	f := testFields(t)[2]
	rng := mrand.New(mrand.NewSource(13))
	src := f.NewVector(5)
	for i := range src {
		f.Set(src[i], f.Rand(rng))
	}
	dst := f.CopyVector(src)
	for i := range src {
		if !f.Equal(src[i], dst[i]) {
			t.Fatal("copy mismatch")
		}
	}
	// Deep copy: mutating dst must not touch src.
	f.Set(dst[0], f.Zero())
	if f.IsZero(src[0]) {
		t.Fatal("CopyVector aliased the source")
	}
}

// TestRandReaderMatchesRandInt: RandReader draws in limbs what
// crypto/rand.Int draws as a big.Int, from the same bytes — including a
// first candidate of all ones, which is at least p and is redrawn — so a
// seeded prover's blinding is unchanged.
func TestRandReaderMatchesRandInt(t *testing.T) {
	for _, tm := range testModuli {
		f := MustField(tm.name, tm.mod)
		stream := func() io.Reader {
			return io.MultiReader(bytes.NewReader(bytes.Repeat([]byte{0xff}, f.ByteLen())), mrand.New(mrand.NewSource(9)))
		}
		a, b := stream(), stream()
		for i := 0; i < 20; i++ {
			got, err := f.RandReader(a)
			if err != nil {
				t.Fatal(err)
			}
			v, err := crand.Int(b, f.Modulus())
			if err != nil {
				t.Fatal(err)
			}
			if !f.Equal(got, f.FromBig(v)) {
				t.Fatalf("%s draw %d: RandReader %s, crypto/rand.Int %s", tm.name, i, f.String(got), v)
			}
		}
	}
}
