package msm

import (
	"math/big"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
)

// digitMatrix holds every scalar's base-2^k digits as one int32 matrix, the
// digit source both bucket pipelines (the table merge and the window grid)
// read. Unsigned digits are the raw windows, d ∈ [0, 2^k). Signed digits are
// recoded into [-2^(k-1), 2^(k-1)] with carry propagation: a raw digit
// d > 2^(k-1) becomes d - 2^k with a carry into the next window. Bucket
// indices then span |d| ∈ [1, 2^(k-1)] — half the 2^k - 1 buckets an unsigned
// window needs — and a negative digit enters its bucket as the negated point
// (affine negation is free). One extra window absorbs the final carry.
type digitMatrix struct {
	dig     []int32 // row-major: dig[i*windows + t]
	windows int
}

// digit returns window t of scalar i.
func (dm *digitMatrix) digit(i, t int) int32 { return dm.dig[i*dm.windows+t] }

// recodeDigits lays a digit accessor out as a matrix, recoding into the
// signed range when signed is set.
func recodeDigits(d *digits, signed bool) *digitMatrix {
	dm := &digitMatrix{}
	dm.reset(d, signed)
	dm.recode(d, 0, d.n)
	return dm
}

// reset sizes dm for d's rows, which recode then fills: one extra window
// absorbs a signed recoding's final carry.
func (dm *digitMatrix) reset(d *digits, signed bool) {
	dm.windows = d.windows
	if signed {
		dm.windows++
	}
	dm.dig = grow(dm.dig, d.n*dm.windows)
}

// recode fills rows [lo, hi) of dm from d, signed when dm has the carry
// window.
func (dm *digitMatrix) recode(d *digits, lo, hi int) {
	nw := dm.windows
	signed := nw > d.windows
	full := int32(1) << d.k
	half := full // unsigned: no digit exceeds it, so nothing ever carries
	if signed {
		half >>= 1
	}
	for i := lo; i < hi; i++ {
		carry := int32(0)
		row := dm.dig[i*nw : (i+1)*nw]
		for t := 0; t < d.windows; t++ {
			v := int32(d.digit(i, t)) + carry
			carry = 0
			if v > half {
				v -= full
				carry = 1
			}
			row[t] = v
		}
		if signed {
			row[d.windows] = carry
		}
	}
}

// bucketCount is the number of buckets one accumulation unit needs for
// k-bit digits: |d| ∈ [1, 2^(k-1)] signed, d ∈ [1, 2^k) unsigned.
func bucketCount(k int, signed bool) int {
	if signed {
		return 1 << (k - 1)
	}
	return 1<<k - 1
}

// windowBits derives the window size k from the configured value (0 = the
// profiling-based default for n points). Halving the bucket count affords
// one extra window bit at the same bucket memory, so the signed default is
// AutoWindow + 1, clamped to [2, 16].
func windowBits(n, configured int, signed bool) int {
	k := configured
	if !signed {
		if k <= 0 {
			k = AutoWindow(n)
		}
		return k
	}
	if k <= 0 {
		k = AutoWindow(n) + 1
	}
	if k < 2 {
		k = 2
	}
	if k > 16 {
		k = 16
	}
	return k
}

// negateRow flips every digit of scalar row i (folds a negative GLV half
// into the digit signs instead of negating points).
func (dm *digitMatrix) negateRow(i int) {
	row := dm.dig[i*dm.windows : (i+1)*dm.windows]
	for t := range row {
		row[t] = -row[t]
	}
}

// wordsFromBig writes |v|'s little-endian 64-bit words into dst.
func wordsFromBig(dst []uint64, v *big.Int) {
	for i := range dst {
		dst[i] = 0
	}
	b := v.Bytes() // big-endian magnitude
	for i := 0; i < len(b); i++ {
		byteIdx := len(b) - 1 - i // little-endian byte position
		dst[byteIdx/8] |= uint64(b[i]) << (8 * (byteIdx % 8))
	}
}

// glvSignedDigits decomposes each scalar into GLV halves k1 + k2·λ and
// recodes both halves as signed digits: row i holds k1ᵢ, row n+i holds k2ᵢ
// (signs folded into the digits). The caller pairs rows with the doubled
// point set {Pᵢ, φ(Pᵢ)}.
func glvSignedDigits(f *ff.Field, v *curve.GLV, scalars []ff.Element, k int) *digitMatrix {
	n := len(scalars)
	halfWords := (v.HalfBits + 63) / 64
	windows := (v.HalfBits + k - 1) / k
	d := &digits{
		limbs:   make([]uint64, 2*n*halfWords),
		perRow:  halfWords,
		k:       k,
		windows: windows,
		n:       2 * n,
	}
	negs := make([]bool, 2*n)
	for i, s := range scalars {
		k1, k2 := v.Decompose(f.ToBig(s))
		negs[i] = k1.Sign() < 0
		negs[n+i] = k2.Sign() < 0
		wordsFromBig(d.limbs[i*halfWords:(i+1)*halfWords], k1)
		wordsFromBig(d.limbs[(n+i)*halfWords:(n+i+1)*halfWords], k2)
	}
	dm := recodeDigits(d, true)
	for i, neg := range negs {
		if neg {
			dm.negateRow(i)
		}
	}
	return dm
}
