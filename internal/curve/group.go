// Package curve implements the elliptic-curve groups GZKP computes over:
// G1 and G2 for BN254 (ALT-BN128) and BLS12-381, and the synthetic
// MNT4753-sim group (see DESIGN.md §1). Point arithmetic is generic over a
// tower.Field of coordinates, so the same Jacobian formulas serve prime-
// field G1 and quadratic-extension G2.
package curve

import (
	"fmt"
	"math/big"
	"sync"

	"gzkp/internal/ff"
	"gzkp/internal/tower"
)

// Group is an elliptic-curve group y² = x³ + Ax + B over coordinate field K
// with scalar field Fr (the prime-order subgroup GZKP works in).
type Group struct {
	Name string
	K    tower.Field
	A, B []uint64
	// Fr is the scalar field (order of the cryptographic subgroup).
	Fr *ff.Field
	// Cofactor maps arbitrary curve points into the r-order subgroup; nil
	// when unknown (MNT4753-sim, where the total group order is unknown).
	Cofactor *big.Int

	gen Affine

	// Lazily derived GLV endomorphism parameters (nil when unsupported).
	glvOnce sync.Once
	glv     *GLV
}

// Affine is an affine point; Inf marks the identity.
type Affine struct {
	X, Y []uint64
	Inf  bool
}

// Jacobian is a point in Jacobian projective coordinates (X/Z², Y/Z³);
// Z == 0 marks the identity.
type Jacobian struct {
	X, Y, Z []uint64
}

// Generator returns (a copy of) the group generator.
func (g *Group) Generator() Affine { return g.CopyAffine(g.gen) }

// CopyAffine deep-copies a point.
func (g *Group) CopyAffine(p Affine) Affine {
	if p.Inf {
		return Affine{Inf: true}
	}
	return Affine{X: g.K.Copy(p.X), Y: g.K.Copy(p.Y)}
}

// Infinity returns the affine identity.
func (g *Group) Infinity() Affine { return Affine{Inf: true} }

// NegAffine returns -p.
func (g *Group) NegAffine(p Affine) Affine {
	if p.Inf {
		return p
	}
	return Affine{X: g.K.Copy(p.X), Y: g.K.Neg(g.K.Zero(), p.Y)}
}

// EqualAffine reports p == q.
func (g *Group) EqualAffine(p, q Affine) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return g.K.Equal(p.X, q.X) && g.K.Equal(p.Y, q.Y)
}

// IsOnCurve verifies y² == x³ + Ax + B (identity counts as on-curve).
func (g *Group) IsOnCurve(p Affine) bool {
	if p.Inf {
		return true
	}
	K := g.K
	lhs := K.Square(K.Zero(), p.Y)
	rhs := K.Square(K.Zero(), p.X)
	K.Mul(rhs, rhs, p.X)
	t := K.Mul(K.Zero(), g.A, p.X)
	K.Add(rhs, rhs, t)
	K.Add(rhs, rhs, g.B)
	return K.Equal(lhs, rhs)
}

// Ops holds per-goroutine scratch for point arithmetic. Each worker must
// create its own Ops with NewOps; the methods are not safe for concurrent
// use of a single Ops.
type Ops struct {
	g   *Group
	k   fieldKern
	t   [12][]uint64
	one []uint64
}

// NewOps allocates scratch for point arithmetic on g.
func (g *Group) NewOps() *Ops {
	o := &Ops{g: g, k: bindKern(g.K), one: g.K.One()}
	for i := range o.t {
		o.t[i] = g.K.Zero()
	}
	return o
}

// Group returns the group these ops act on.
func (o *Ops) Group() *Group { return o.g }

// alloc gives p zero coordinates over one slab if it has none.
func (o *Ops) alloc(p *Jacobian) {
	if p.X == nil {
		w := o.g.K.Words()
		b := make([]uint64, 3*w)
		p.X, p.Y, p.Z = b[:w:w], b[w:2*w:2*w], b[2*w:]
	}
}

// SetInfinity makes p the identity (allocating coordinates if needed).
func (o *Ops) SetInfinity(p *Jacobian) {
	o.alloc(p)
	copy(p.Y, o.one)
	clear(p.Z)
}

// IsInfinity reports whether p is the identity.
func (o *Ops) IsInfinity(p *Jacobian) bool { return o.g.K.IsZero(p.Z) }

// FromAffine loads an affine point into Jacobian form.
func (o *Ops) FromAffine(p *Jacobian, a Affine) {
	K := o.g.K
	o.alloc(p)
	if a.Inf {
		o.SetInfinity(p)
		return
	}
	K.Set(p.X, a.X)
	K.Set(p.Y, a.Y)
	K.Set(p.Z, o.one)
}

// Copy sets dst = src.
func (o *Ops) Copy(dst, src *Jacobian) {
	K := o.g.K
	o.alloc(dst)
	K.Set(dst.X, src.X)
	K.Set(dst.Y, src.Y)
	K.Set(dst.Z, src.Z)
}

// NegAssign sets p = -p.
func (o *Ops) NegAssign(p *Jacobian) { o.g.K.Neg(p.Y, p.Y) }

// DoubleAssign sets p = 2p (dbl-2007-bl; valid for any curve A).
func (o *Ops) DoubleAssign(p *Jacobian) {
	if o.IsInfinity(p) {
		return
	}
	k := &o.k
	xx, yy, yyyy, zz := o.t[0], o.t[1], o.t[2], o.t[3]
	s, m, u := o.t[4], o.t[5], o.t[6]
	k.square(xx, p.X)
	k.square(yy, p.Y)
	k.square(yyyy, yy)
	k.square(zz, p.Z)
	// S = 2*((X+YY)² - XX - YYYY)
	k.add(s, p.X, yy)
	k.square(s, s)
	k.sub(s, s, xx)
	k.sub(s, s, yyyy)
	k.double(s, s)
	// M = 3*XX + A*ZZ²
	k.double(m, xx)
	k.add(m, m, xx)
	if !o.g.K.IsZero(o.g.A) {
		k.square(u, zz)
		k.mul(u, u, o.g.A)
		k.add(m, m, u)
	}
	// Z' = (Y+Z)² - YY - ZZ  (computed before X/Y which clobber inputs)
	k.add(u, p.Y, p.Z)
	k.square(u, u)
	k.sub(u, u, yy)
	k.sub(u, u, zz)
	copy(p.Z, u)
	// X' = M² - 2S
	k.square(p.X, m)
	k.sub(p.X, p.X, s)
	k.sub(p.X, p.X, s)
	// Y' = M*(S - X') - 8*YYYY
	k.sub(s, s, p.X)
	k.mul(s, s, m)
	k.double(yyyy, yyyy)
	k.double(yyyy, yyyy)
	k.double(yyyy, yyyy)
	k.sub(p.Y, s, yyyy)
}

// AddAssign sets p = p + q (add-2007-bl with full case analysis).
func (o *Ops) AddAssign(p, q *Jacobian) {
	if o.IsInfinity(q) {
		return
	}
	if o.IsInfinity(p) {
		o.Copy(p, q)
		return
	}
	K := o.g.K
	k := &o.k
	z1z1, z2z2, u1, u2 := o.t[0], o.t[1], o.t[2], o.t[3]
	s1, s2, h, i := o.t[4], o.t[5], o.t[6], o.t[7]
	j, rr, v := o.t[8], o.t[9], o.t[10]
	k.square(z1z1, p.Z)
	k.square(z2z2, q.Z)
	k.mul(u1, p.X, z2z2)
	k.mul(u2, q.X, z1z1)
	k.mul(s1, p.Y, q.Z)
	k.mul(s1, s1, z2z2)
	k.mul(s2, q.Y, p.Z)
	k.mul(s2, s2, z1z1)
	k.sub(h, u2, u1)
	k.sub(rr, s2, s1)
	if K.IsZero(h) {
		if K.IsZero(rr) {
			o.DoubleAssign(p)
			return
		}
		o.SetInfinity(p)
		return
	}
	k.double(rr, rr) // r = 2*(S2-S1)
	k.double(i, h)
	k.square(i, i) // I = (2H)²
	k.mul(j, h, i)
	k.mul(v, u1, i)
	// Z3 = ((Z1+Z2)² - Z1Z1 - Z2Z2) * H
	k.add(p.Z, p.Z, q.Z)
	k.square(p.Z, p.Z)
	k.sub(p.Z, p.Z, z1z1)
	k.sub(p.Z, p.Z, z2z2)
	k.mul(p.Z, p.Z, h)
	// X3 = r² - J - 2V
	k.square(p.X, rr)
	k.sub(p.X, p.X, j)
	k.sub(p.X, p.X, v)
	k.sub(p.X, p.X, v)
	// Y3 = r*(V - X3) - 2*S1*J
	k.sub(v, v, p.X)
	k.mul(v, v, rr)
	k.mul(s1, s1, j)
	k.double(s1, s1)
	k.sub(p.Y, v, s1)
}

// AddMixedAssign sets p = p + q for an affine q (madd-2007-bl), the
// workhorse of bucket accumulation in MSM (§4).
func (o *Ops) AddMixedAssign(p *Jacobian, q Affine) {
	if q.Inf {
		return
	}
	o.addMixed(p, q.X, q.Y)
}

// SubMixedAssign sets p = p - q for an affine q: the madd formula against
// q's negated Y held in scratch, so signed-digit bucket accumulation pays
// one field negation instead of allocating -q per entry.
func (o *Ops) SubMixedAssign(p *Jacobian, q Affine) {
	if q.Inf {
		return
	}
	negY := o.g.K.Neg(o.t[11], q.Y)
	o.addMixed(p, q.X, negY)
}

// addMixed is the madd-2007-bl body over raw affine coordinates (qx, qy).
// It uses scratch t[0..8] only; callers may pass qy in t[9..11].
func (o *Ops) addMixed(p *Jacobian, qx, qy []uint64) {
	if o.IsInfinity(p) {
		K := o.g.K
		o.alloc(p)
		K.Set(p.X, qx)
		K.Set(p.Y, qy)
		K.Set(p.Z, o.one)
		return
	}
	K := o.g.K
	k := &o.k
	z1z1, u2, s2, h := o.t[0], o.t[1], o.t[2], o.t[3]
	hh, i, j, rr, v := o.t[4], o.t[5], o.t[6], o.t[7], o.t[8]
	k.square(z1z1, p.Z)
	k.mul(u2, qx, z1z1)
	k.mul(s2, qy, p.Z)
	k.mul(s2, s2, z1z1)
	k.sub(h, u2, p.X)
	k.sub(rr, s2, p.Y)
	if K.IsZero(h) {
		if K.IsZero(rr) {
			o.DoubleAssign(p)
			return
		}
		o.SetInfinity(p)
		return
	}
	k.double(rr, rr)
	k.square(hh, h)
	k.double(i, hh)
	k.double(i, i) // I = 4*HH
	k.mul(j, h, i)
	k.mul(v, p.X, i)
	// Z3 = (Z1+H)² - Z1Z1 - HH
	k.add(p.Z, p.Z, h)
	k.square(p.Z, p.Z)
	k.sub(p.Z, p.Z, z1z1)
	k.sub(p.Z, p.Z, hh)
	// X3 = r² - J - 2V
	k.square(p.X, rr)
	k.sub(p.X, p.X, j)
	k.sub(p.X, p.X, v)
	k.sub(p.X, p.X, v)
	// Y3 = r*(V-X3) - 2*Y1*J  (note p.Y still holds Y1)
	k.sub(v, v, p.X)
	k.mul(v, v, rr)
	k.mul(j, j, p.Y)
	k.double(j, j)
	k.sub(p.Y, v, j)
}

// Equal reports whether p and q are the same point (cross-multiplied).
func (o *Ops) Equal(p, q *Jacobian) bool {
	pi, qi := o.IsInfinity(p), o.IsInfinity(q)
	if pi || qi {
		return pi == qi
	}
	K := o.g.K
	k := &o.k
	z1z1, z2z2, a, b := o.t[0], o.t[1], o.t[2], o.t[3]
	k.square(z1z1, p.Z)
	k.square(z2z2, q.Z)
	k.mul(a, p.X, z2z2)
	k.mul(b, q.X, z1z1)
	if !K.Equal(a, b) {
		return false
	}
	k.mul(z1z1, z1z1, p.Z) // Z1³
	k.mul(z2z2, z2z2, q.Z) // Z2³
	k.mul(a, p.Y, z2z2)
	k.mul(b, q.Y, z1z1)
	return K.Equal(a, b)
}

// ToAffine converts p to affine form (one field inversion in scratch),
// its coordinates over one new slab.
func (o *Ops) ToAffine(p *Jacobian) Affine {
	if o.IsInfinity(p) {
		return Affine{Inf: true}
	}
	w, k := o.g.K.Words(), &o.k
	zinv, zz := o.t[0], o.t[1]
	invertTo(o.g.K, zinv, p.Z, o.t[2], o.t[3])
	b := make([]uint64, 2*w)
	k.square(zz, zinv)
	k.mul(b[:w], p.X, zz)
	k.mul(zz, zz, zinv)
	k.mul(b[w:], p.Y, zz)
	return Affine{X: b[:w:w], Y: b[w:]}
}

// ScalarMul computes k*base by double-and-add. Negative k negates the point.
func (o *Ops) ScalarMul(base Affine, k *big.Int) *Jacobian {
	if k.Sign() < 0 {
		return o.ScalarMul(o.g.NegAffine(base), new(big.Int).Neg(k))
	}
	var acc Jacobian
	o.SetInfinity(&acc)
	if base.Inf || k.Sign() == 0 {
		return &acc
	}
	for i := k.BitLen() - 1; i >= 0; i-- {
		o.DoubleAssign(&acc)
		if k.Bit(i) == 1 {
			o.AddMixedAssign(&acc, base)
		}
	}
	return &acc
}

// ScalarMulElement computes s*base for a scalar-field element.
func (o *Ops) ScalarMulElement(base Affine, s ff.Element) *Jacobian {
	return o.ScalarMul(base, o.g.Fr.ToBig(s))
}

// ScalarMulWNAF computes s·base for a scalar-field element s with a
// width-w non-adjacent form over a small odd-multiples table: ~n/(w+1)
// additions instead of n/2, for hot single multiplications (assembly,
// batch verification). The digits are read first, from s's canonical limbs
// in scratch t[10], which the arithmetic then clobbers.
func (o *Ops) ScalarMulWNAF(base Affine, s ff.Element, w uint) *Jacobian {
	if w < 2 || w > 8 {
		w = 4
	}
	var mag [ff.MaxLimbs + 1]uint64 // a zero word above s for the top window
	copy(mag[:], o.g.Fr.Canonical(o.t[10][:o.g.Fr.Limbs()], s))
	bit := func(i int) uint64 { return mag[i/64] >> (i % 64) & 1 }
	var digits [64*ff.MaxLimbs + 1]int8
	top, c := 0, uint64(0) // c: the carry a negative digit leaves above its window
	for i := 0; i <= 64*o.g.Fr.Limbs(); {
		if b := bit(i) + c; b&1 == 0 {
			c = b >> 1
			i++
			continue
		}
		win := c
		for j := range int(w) {
			win += bit(i+j) << j
		}
		d, half := int(win), 1<<(w-1)
		if c = 0; d >= half {
			d, c = d-2*half, 1
		}
		digits[i], top = int8(d), i+1
		i += int(w)
	}
	// One slab: the table's Jacobian and affine rows ((2i+1)·base), 2·base, the result.
	size, kw := 1<<(w-1), o.g.K.Words()
	slab := make([]uint64, 5*kw*size+6*kw)
	jac, aff := slab[:3*kw*size], slab[3*kw*size:5*kw*size]
	row := func(b []uint64) Jacobian {
		return Jacobian{X: b[:kw:kw], Y: b[kw : 2*kw : 2*kw], Z: b[2*kw : 3*kw : 3*kw]}
	}
	twoP, acc := row(slab[5*kw*size:]), row(slab[5*kw*size+3*kw:])
	if base.Inf || top == 0 {
		return &acc // Z = 0: the identity
	}
	o.FromAffine(&twoP, base)
	o.DoubleAssign(&twoP)
	prev := row(jac)
	o.FromAffine(&prev, base)
	for i := 1; i < size; i++ {
		cur := row(jac[3*kw*i:])
		o.Copy(&cur, &prev)
		o.AddAssign(&cur, &twoP)
		prev = cur
	}
	var inf [128]bool
	o.g.BatchNormalize(aff, inf[:size], jac)
	for i := top - 1; i >= 0; i-- {
		o.DoubleAssign(&acc)
		d := int(digits[i])
		if d == 0 {
			continue
		}
		e := (max(d, -d) - 1) / 2
		q := Affine{X: aff[2*kw*e : 2*kw*e+kw], Y: aff[2*kw*e+kw : 2*kw*(e+1)], Inf: inf[e]}
		if d > 0 {
			o.AddMixedAssign(&acc, q)
		} else {
			o.SubMixedAssign(&acc, q)
		}
	}
	return &acc
}

// BatchToAffine converts many Jacobian points with a single inversion
// (Montgomery's trick over the coordinate field). The results' coordinates
// are full-slice views into one limb slab, each capped at its own w words
// so that an append cannot reach the next point; a call allocates a
// constant number of times, and a point with Z = 0 comes back as
// Affine{Inf: true}.
func (g *Group) BatchToAffine(pts []Jacobian) []Affine {
	n, w := len(pts), g.K.Words()
	out := make([]Affine, n)
	slab := make([]uint64, 2*w*n)
	inf := make([]bool, n)
	g.normalize(slab, inf, func(i int) (x, y, z []uint64) { return pts[i].X, pts[i].Y, pts[i].Z })
	for i := range out {
		if inf[i] {
			out[i] = Affine{Inf: true}
			continue
		}
		b := slab[2*w*i : 2*w*(i+1)]
		out[i] = Affine{X: b[:w:w], Y: b[w : 2*w : 2*w]}
	}
	return out
}

// BatchNormalize converts the len(inf) Jacobian points held flat in jac —
// point i is X‖Y‖Z at jac[3iw:3(i+1)w] — to affine rows of dst, x‖y at
// dst[2iw:2(i+1)w], with one field inversion, and sets inf[i] when point i
// is the identity (Z = 0; its row is left undefined). jac is read only.
func (g *Group) BatchNormalize(dst []uint64, inf []bool, jac []uint64) {
	w := g.K.Words()
	g.normalize(dst, inf, func(i int) (x, y, z []uint64) {
		p := jac[3*w*i : 3*w*(i+1)]
		return p[:w], p[w : 2*w], p[2*w:]
	})
}

// normalize is Montgomery's trick over the len(inf) points xyz returns,
// writing x‖y rows into dst: the forward pass keeps each point's prefix
// product of Z coordinates in its own row's x words, and after the one
// inversion the backward pass overwrites them with the affine point.
func (g *Group) normalize(dst []uint64, inf []bool, xyz func(i int) (x, y, z []uint64)) {
	K, w := g.K, g.K.Words()
	t := make([]uint64, 6*w)
	acc, inv, zinv, zz := t[:w], t[w:2*w], t[2*w:3*w], t[3*w:4*w]
	first := -1 // the first finite point: its prefix product is empty
	for i := range inf {
		_, _, z := xyz(i)
		if inf[i] = K.IsZero(z); inf[i] {
			continue
		}
		if first < 0 {
			first = i
			copy(acc, z)
			continue
		}
		copy(dst[2*w*i:], acc)
		K.Mul(acc, acc, z)
	}
	if first < 0 {
		return
	}
	invertTo(K, inv, acc, t[4*w:5*w], t[5*w:])
	for i := len(inf) - 1; i >= first; i-- {
		if inf[i] {
			continue
		}
		x, y, z := xyz(i)
		row := dst[2*w*i : 2*w*(i+1)]
		if i == first {
			copy(zinv, inv)
		} else {
			K.Mul(zinv, inv, row[:w]) // z⁻¹ = (z₀⋯zᵢ)⁻¹ · (z₀⋯zᵢ₋₁)
			K.Mul(inv, inv, z)
		}
		K.Square(zz, zinv)
		K.Mul(row[:w], x, zz)
		K.Mul(zz, zz, zinv)
		K.Mul(row[w:], y, zz)
	}
}

// invertTo sets z = x⁻¹ for x ≠ 0 without allocating, with conj and norm
// (one coordinate each) as scratch: ff.Field.InverseTo on a prime field; on
// a quadratic extension the norm map x⁻¹ = x̄ / (x·x̄) down to one prime
// inversion.
func invertTo(K tower.Field, z, x, conj, norm []uint64) {
	if p, ok := K.(*tower.Prime); ok {
		p.F.InverseTo(z, x)
		return
	}
	f := basePrime(K.(*tower.Ext)).F
	h, k := f.Limbs(), f.Kernels()
	// x = x0 + x1·u: x̄ = x0 − x1·u and x·x̄ = x0² − nr·x1² lies in the base.
	copy(conj[:h], x[:h])
	k.Neg(conj[h:], x[h:])
	K.Mul(norm, x, conj)
	ninv := norm[h:]
	f.InverseTo(ninv, norm[:h])
	k.Mul(z[:h], conj[:h], ninv)
	k.Mul(z[h:], conj[h:], ninv)
}

// FindPoint deterministically finds a curve point by scanning x-coordinates
// upward from a small integer seed, solving y² = x³+Ax+B with a coordinate-
// field square root. Used by generator bootstrap and tests.
func (g *Group) FindPoint(seed uint64) (Affine, error) {
	K := g.K
	for i := uint64(0); i < 10000; i++ {
		x := g.embedSmall(seed + i)
		rhs := K.Square(K.Zero(), x)
		K.Mul(rhs, rhs, x)
		t := K.Mul(K.Zero(), g.A, x)
		K.Add(rhs, rhs, t)
		K.Add(rhs, rhs, g.B)
		y, err := g.sqrtK(rhs)
		if err != nil {
			continue
		}
		return Affine{X: x, Y: y}, nil
	}
	return Affine{}, fmt.Errorf("curve %s: no point found from seed %d", g.Name, seed)
}

func (g *Group) embedSmall(v uint64) []uint64 {
	switch k := g.K.(type) {
	case *tower.Prime:
		return k.F.FromUint64(v)
	case *tower.Ext:
		// Spread the seed over both coefficients so the scan explores the
		// extension, not just the base subfield.
		p := basePrime(k)
		z := k.Zero()
		k.SetCoeff(z, 0, p.F.FromUint64(v))
		k.SetCoeff(z, 1, p.F.FromUint64(v/3+1))
		return z
	default:
		panic("curve: unsupported coordinate field")
	}
}

func (g *Group) sqrtK(v []uint64) ([]uint64, error) {
	switch k := g.K.(type) {
	case *tower.Prime:
		return k.F.Sqrt(v)
	case *tower.Ext:
		return k.Sqrt(v)
	default:
		panic("curve: unsupported coordinate field")
	}
}

func basePrime(e *tower.Ext) *tower.Prime {
	p, ok := e.Base().(*tower.Prime)
	if !ok {
		panic("curve: coordinate tower deeper than quadratic-over-prime")
	}
	return p
}
