package ff

import (
	"math/big"
	"testing"
)

// fuzzFields caches one Field per fixed-path width; construction is too
// expensive to repeat per fuzz input.
var fuzzFields = func() []*Field {
	out := make([]*Field, len(benchWidths))
	for i, w := range benchWidths {
		out[i] = MustField(w.label, w.mod)
	}
	return out
}()

// FuzzFixedVsGeneric differentially tests the fixed-limb kernels against
// the variable-width generic path and against math/big, for mul, square,
// add, sub, neg and inverse at all three specialized widths. The width
// selector byte picks the field; the payload supplies both operands.
func FuzzFixedVsGeneric(fz *testing.F) {
	fz.Add(byte(0), []byte{})
	fz.Add(byte(1), []byte{0xff})
	fz.Add(byte(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	fz.Add(byte(0), make([]byte, 64))
	fz.Add(byte(1), []byte{0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe,
		0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0xff, 0xff, 0xff})

	fz.Fuzz(func(t *testing.T, which byte, data []byte) {
		f := fuzzFields[int(which)%len(fuzzFields)]
		if f.FastPathWidth() == 0 {
			t.Fatalf("%s: fixed path not installed", f.Name())
		}
		g := f.WithoutFastPath()
		p := f.Modulus()

		half := len(data) / 2
		x := f.FromBig(new(big.Int).SetBytes(data[:half]))
		y := f.FromBig(new(big.Int).SetBytes(data[half:]))
		xv, yv := f.ToBig(x), f.ToBig(y)

		check := func(op string, fixed, generic Element, want *big.Int) {
			t.Helper()
			if !f.Equal(fixed, generic) {
				t.Fatalf("%s %s: fixed %s != generic %s", f.Name(), op, f.String(fixed), f.String(generic))
			}
			if got := f.ToBig(fixed); got.Cmp(want) != 0 {
				t.Fatalf("%s %s: got %s, math/big wants %s", f.Name(), op, got, want)
			}
		}

		want := new(big.Int)
		check("mul", f.Mul(f.New(), x, y), g.MulGeneric(g.New(), x, y), want.Mod(want.Mul(xv, yv), p))
		check("square", f.Square(f.New(), x), g.SquareGeneric(g.New(), x), want.Mod(want.Mul(xv, xv), p))
		check("add", f.Add(f.New(), x, y), g.AddGeneric(g.New(), x, y), want.Mod(want.Add(xv, yv), p))
		check("sub", f.Sub(f.New(), x, y), g.SubGeneric(g.New(), x, y), want.Mod(want.Sub(xv, yv), p))
		check("neg", f.Neg(f.New(), x), g.NegGeneric(g.New(), x), want.Mod(want.Neg(xv), p))
		check("double", f.Double(f.New(), x), g.AddGeneric(g.New(), x, x), want.Mod(want.Add(xv, xv), p))

		if !f.IsZero(x) {
			inv := f.Inverse(x)  // safegcd, then the fixed multiplier
			ginv := g.Inverse(x) // the same on the generic multiplier
			wantInv := new(big.Int).ModInverse(xv, p)
			check("inv", inv, ginv, wantInv)
		}
	})
}
