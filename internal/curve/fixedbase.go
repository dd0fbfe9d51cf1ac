package curve

import (
	"encoding/binary"
	"fmt"
)

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
	base    Affine
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
	fb := &FixedBase{g: g, base: g.CopyAffine(base), windows: make([][]Affine, numWindows)}
	for w := 0; w < numWindows; w++ {
		fb.windows[w] = flat[w*fbWindowSize : (w+1)*fbWindowSize]
	}
	return fb
}

// Base returns (a copy of) the table's base point.
func (fb *FixedBase) Base() Affine { return fb.g.CopyAffine(fb.base) }

// Bytes reports the table memory footprint.
func (fb *FixedBase) Bytes() int64 {
	return int64(len(fb.windows)) * fbWindowSize * int64(2*fb.g.K.Words()*8)
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

// MarshalBinary serializes the table deterministically (raw little-endian
// limbs in Montgomery form), so two replicas of the same circuit produce
// bit-identical bytes and the cluster key bundle can ship tables instead of
// recomputing them at import time.
func (fb *FixedBase) MarshalBinary() ([]byte, error) {
	words := fb.g.K.Words()
	var buf []byte
	var u32 [4]byte
	putU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		buf = append(buf, u32[:]...)
	}
	putU32(uint32(words))
	putU32(uint32(len(fb.windows)))
	putU32(fbWindowSize)
	putPoint := func(p Affine) {
		if p.Inf {
			buf = append(buf, 1)
			return
		}
		buf = append(buf, 0)
		var w [8]byte
		for _, limb := range p.X {
			binary.LittleEndian.PutUint64(w[:], limb)
			buf = append(buf, w[:]...)
		}
		for _, limb := range p.Y {
			binary.LittleEndian.PutUint64(w[:], limb)
			buf = append(buf, w[:]...)
		}
	}
	putPoint(fb.base)
	for _, win := range fb.windows {
		for _, p := range win {
			putPoint(p)
		}
	}
	return buf, nil
}

// ParseFixedBase deserializes a table for group g, verifying the header
// shape and that every point lies on the curve (a corrupt table would
// silently produce invalid proofs otherwise).
func (g *Group) ParseFixedBase(data []byte) (*FixedBase, error) {
	words := g.K.Words()
	if len(data) < 12 {
		return nil, fmt.Errorf("curve: fixed-base table truncated")
	}
	if got := binary.LittleEndian.Uint32(data[0:4]); int(got) != words {
		return nil, fmt.Errorf("curve: fixed-base table for %d-word field, group has %d", got, words)
	}
	numWindows := int(binary.LittleEndian.Uint32(data[4:8]))
	perWindow := int(binary.LittleEndian.Uint32(data[8:12]))
	if perWindow != fbWindowSize {
		return nil, fmt.Errorf("curve: fixed-base window size %d, want %d", perWindow, fbWindowSize)
	}
	wantWindows := (g.Fr.Bits()+7)/8 + 1
	if numWindows != wantWindows {
		return nil, fmt.Errorf("curve: fixed-base table has %d windows, group needs %d", numWindows, wantWindows)
	}
	off := 12
	readPoint := func() (Affine, error) {
		if off >= len(data) {
			return Affine{}, fmt.Errorf("curve: fixed-base table truncated at offset %d", off)
		}
		if data[off] == 1 {
			off++
			return Affine{Inf: true}, nil
		}
		off++
		need := 2 * words * 8
		if off+need > len(data) {
			return Affine{}, fmt.Errorf("curve: fixed-base table truncated at offset %d", off)
		}
		p := Affine{X: make([]uint64, words), Y: make([]uint64, words)}
		for i := 0; i < words; i++ {
			p.X[i] = binary.LittleEndian.Uint64(data[off+i*8:])
		}
		for i := 0; i < words; i++ {
			p.Y[i] = binary.LittleEndian.Uint64(data[off+(words+i)*8:])
		}
		off += need
		if !g.IsOnCurve(p) {
			return Affine{}, fmt.Errorf("curve: fixed-base table point off-curve")
		}
		return p, nil
	}
	base, err := readPoint()
	if err != nil {
		return nil, err
	}
	fb := &FixedBase{g: g, base: base, windows: make([][]Affine, numWindows)}
	for w := 0; w < numWindows; w++ {
		fb.windows[w] = make([]Affine, perWindow)
		for d := 0; d < perWindow; d++ {
			fb.windows[w][d], err = readPoint()
			if err != nil {
				return nil, err
			}
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("curve: fixed-base table has %d trailing bytes", len(data)-off)
	}
	return fb, nil
}
