package curve

// FixedBase accelerates repeated scalar multiplication of one base point
// (trusted setup: thousands of s·G for the same G; proof assembly: the
// fixed CRS deltas) with a signed byte-windowed table:
//
//	windows[w][d-1] = d·2^(8w)·base,  d ∈ [1, 128].
//
// Scalar bytes are recoded into signed digits d ∈ [-128, 128] with carry,
// so each window stores 128 points instead of the 255 an unsigned table
// needs — half the memory and build work — and negative digits are folded
// by mixed subtraction (point negation is free in affine coordinates).
type FixedBase struct {
	g       *Group
	windows [][]Affine
}

const fbWindowSize = 128 // signed byte digits: |d| ∈ [1, 128]

// NewFixedBase precomputes the table for base (≈ (bits/8 + 1) × 128 points,
// batch-normalized in one inversion). The extra window absorbs the signed
// recoding's final carry.
func (g *Group) NewFixedBase(base Affine) *FixedBase {
	ops := g.NewOps()
	numWindows := (g.Fr.Bits()+7)/8 + 1
	all := make([]Jacobian, numWindows*fbWindowSize)
	var cur Jacobian
	ops.FromAffine(&cur, base)
	for w := 0; w < numWindows; w++ {
		var acc Jacobian
		ops.SetInfinity(&acc)
		for d := 0; d < fbWindowSize; d++ {
			ops.AddAssign(&acc, &cur)
			ops.Copy(&all[w*fbWindowSize+d], &acc)
		}
		// cur ← 2^8 · cur for the next window.
		for b := 0; b < 8; b++ {
			ops.DoubleAssign(&cur)
		}
	}
	flat := g.BatchToAffine(all)
	fb := &FixedBase{g: g, windows: make([][]Affine, numWindows)}
	for w := 0; w < numWindows; w++ {
		fb.windows[w] = flat[w*fbWindowSize : (w+1)*fbWindowSize]
	}
	return fb
}

// MulElement computes s·base for a scalar-field element using the table:
// ≈ one mixed add or sub per byte of s's canonical limbs (in Ops scratch
// t[10], which mixed adds leave alone), recoded into signed digits with
// carry on the fly. Safe for concurrent use with distinct Ops.
func (fb *FixedBase) MulElement(ops *Ops, s []uint64) Jacobian {
	mag := fb.g.Fr.Canonical(ops.t[10][:fb.g.Fr.Limbs()], s)
	kw := fb.g.K.Words()
	b := make([]uint64, 3*kw)
	acc := Jacobian{X: b[:kw:kw], Y: b[kw : 2*kw : 2*kw], Z: b[2*kw:]} // Z = 0: the identity
	carry, last := 0, min(8*len(mag), len(fb.windows)-1)
	for w := 0; w <= last; w++ { // little-endian window order; the last takes the carry
		d := carry
		if w < last {
			d += int(mag[w/8] >> (8 * (w % 8)) & 0xff)
		}
		carry = 0
		if d > fbWindowSize {
			d -= 256
			carry = 1
		}
		if d > 0 {
			ops.AddMixedAssign(&acc, fb.windows[w][d-1])
		} else if d < 0 {
			ops.SubMixedAssign(&acc, fb.windows[w][-d-1])
		}
	}
	return acc
}
