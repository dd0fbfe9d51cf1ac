package curve

import (
	"gzkp/internal/tower"
)

// fieldKern is the coordinate-field call table the point-arithmetic hot
// paths hoist once instead of dispatching through tower.Field per element:
// each entry is a single indirect call, with the prime-vs-extension (and,
// inside ff, fixed-vs-generic width) decision taken exactly once.
type fieldKern struct {
	mul, add, sub       func(z, x, y []uint64)
	square, neg, double func(z, x []uint64)
}

// bindKern builds the table for coordinate field K. Prime fields (G1 — the
// MSM and NTT workhorse) bind straight to the ff dispatch table and
// extension fields (G2) to the tower's — on BN254 and BLS12-381 the
// allocation-free fixed-width Fq2 kernels — skipping the tower.Field
// interface entirely.
func bindKern(K tower.Field) fieldKern {
	if p, ok := K.(*tower.Prime); ok {
		k := p.F.Kernels()
		return fieldKern{
			mul:    func(z, x, y []uint64) { k.Mul(z, x, y) },
			add:    func(z, x, y []uint64) { k.Add(z, x, y) },
			sub:    func(z, x, y []uint64) { k.Sub(z, x, y) },
			square: func(z, x []uint64) { k.Square(z, x) },
			neg:    func(z, x []uint64) { k.Neg(z, x) },
			double: func(z, x []uint64) { k.Double(z, x) },
		}
	}
	k := K.(*tower.Ext).Kernels()
	return fieldKern{mul: k.Mul, add: k.Add, sub: k.Sub, square: k.Square, neg: k.Neg, double: k.Double}
}
