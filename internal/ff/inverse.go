package ff

import "math/bits"

// Field inversion is Bernstein–Yang safegcd ("Fast constant-time gcd
// computation and modular inversion", 2019) in its variable-time form: the
// divstep loop runs on the low 64 bits of f and g, skips runs of zero bits
// with one count-trailing-zeros, and is batched 62 divsteps at a time into
// a 2×2 transition matrix that is then applied to the full-width f, g and
// to the Bézout coefficients d, e (mod p). Values are held as signed
// 62-bit limbs (the low limbs in [0, 2^62), the top limb a full signed
// int64), so each matrix application is a handful of 64×64→128 products
// per limb. The loop stops once g = 0, when d ≡ ±x⁻¹.
//
// The inverter is variable time: its iteration count depends on x. GZKP
// inverts only inside the prover, whose bucket kernel already indexes
// buckets by secret scalar digits, so constant time is not a goal here.
//
// One implementation serves every width: divsteps62, which does not depend
// on the width, is over half of an inversion, and unrolling the matrix
// applications for 4 and 6 limbs measured slower than these loops.

const (
	m62 = ^uint64(0) >> 2
	// maxS62 is the most signed-62 limbs an element needs: MaxLimbs·64
	// bits, plus a limb of headroom for the sign.
	maxS62 = MaxLimbs*64/62 + 1
)

// trans2x2 is the transition matrix of 62 divsteps, scaled by 2^62:
// [f', g'] = [[u, v], [q, r]]·[f, g] / 2^62.
type trans2x2 struct{ u, v, q, r int64 }

// installInverse precomputes the safegcd constants: p in signed-62 limbs
// (enough for every bit plus the sign), p⁻¹ mod 2^62, and R³ mod p, which
// maps (xR)⁻¹ back into Montgomery form with one multiplication.
func (f *Field) installInverse(r3 Element) {
	f.p62 = make([]int64, f.bits/62+1)
	toS62(f.p62, f.p)
	f.pInv62 = -f.inv & m62 // -inv = p⁻¹ mod 2^64
	f.r3 = r3
}

// InverseTo sets z = x⁻¹, or z = 0 for x = 0, without allocating — the
// MSM bucket kernel inverts once per tree round. z may alias x. It runs in
// variable time.
func (f *Field) InverseTo(z, x Element) {
	if f.IsZero(x) {
		clear(z)
		return
	}
	n := len(f.p62)
	var d, e, fv, gv [maxS62]int64
	e[0] = 1
	copy(fv[:n], f.p62)
	toS62(gv[:n], x)
	eta, ln := int64(-1), n
	for {
		var t trans2x2
		eta = divsteps62(eta, uint64(fv[0]), uint64(gv[0]), &t)
		updateDE(d[:n], e[:n], &t, f.p62, f.pInv62)
		updateFG(fv[:ln], gv[:ln], &t)
		if gv[0] == 0 {
			var rest int64
			for _, w := range gv[1:ln] {
				rest |= w
			}
			if rest == 0 {
				break
			}
		}
		// Drop the top limb once both f and g fit in the one below.
		fn, gn := fv[ln-1], gv[ln-1]
		if ln > 1 && (fn^(fn>>63))|(gn^(gn>>63)) == 0 {
			fv[ln-2] |= int64(uint64(fn) << 62)
			gv[ln-2] |= int64(uint64(gn) << 62)
			ln--
		}
	}
	normalize62(d[:n], fv[ln-1], f.p62)
	fromS62(z, d[:n])
	f.kern.Mul(z, z, f.r3)
}

// divsteps62 runs 62 divsteps on the low words of f (odd) and g, returning
// the new eta (= −delta) and the scaled transition matrix in t. Runs of
// zero bits in g are consumed in one step; otherwise up to 6 (eta < 0) or
// 4 low bits of g are cancelled against f at once.
func divsteps62(eta int64, f, g uint64, t *trans2x2) int64 {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	i := 62
	for {
		// The sentinel bit stops the count at the steps left.
		zeros := bits.TrailingZeros64(g | ^uint64(0)<<uint(i))
		g >>= uint(zeros)
		u <<= uint(zeros)
		v <<= uint(zeros)
		eta -= int64(zeros)
		i -= zeros
		if i == 0 {
			break
		}
		// Cancel the low bits of g against f: no more than eta+1 of them,
		// after which eta's sign flips again.
		var w uint64
		if eta < 0 {
			eta = -eta
			f, g = g, -f
			u, q = q, -u
			v, r = r, -v
			m := ^uint64(0) >> uint(64-min(int(eta)+1, i)) & 63
			w = f * g * (f*f - 2) & m
		} else {
			m := ^uint64(0) >> uint(64-min(int(eta)+1, i)) & 15
			w = -(f + (f+1)&4<<1) * g & m
		}
		g += f * w
		q += u * w
		r += v * w
	}
	t.u, t.v, t.q, t.r = int64(u), int64(v), int64(q), int64(r)
	return eta
}

// mac returns (hi:lo) + a·b for a signed 128-bit accumulator.
func mac(hi int64, lo uint64, a, b int64) (int64, uint64) {
	ph, pl := bits.Mul64(uint64(a), uint64(b))
	ph -= uint64(a>>63)&uint64(b) + uint64(b>>63)&uint64(a)
	lo, c := bits.Add64(lo, pl, 0)
	return hi + int64(ph+c), lo
}

// shr62 shifts a signed 128-bit accumulator right by 62 bits.
func shr62(hi int64, lo uint64) (int64, uint64) {
	return hi >> 62, lo>>62 | uint64(hi)<<2
}

// updateDE sets [d, e] = t·[d, e] / 2^62 mod p, adding the multiples of p
// that clear the low 62 bits. d and e stay in (−2p, p).
func updateDE(d, e []int64, t *trans2x2, p []int64, pInv uint64) {
	n := len(d)
	u, v, q, r := t.u, t.v, t.q, t.r
	sd, se := d[n-1]>>63, e[n-1]>>63
	md := u&sd + v&se
	me := q&sd + r&se
	dh, dl := mac(0, 0, u, d[0])
	dh, dl = mac(dh, dl, v, e[0])
	eh, el := mac(0, 0, q, d[0])
	eh, el = mac(eh, el, r, e[0])
	md -= int64((pInv*dl + uint64(md)) & m62)
	me -= int64((pInv*el + uint64(me)) & m62)
	dh, dl = shr62(mac(dh, dl, p[0], md))
	eh, el = shr62(mac(eh, el, p[0], me))
	for i := 1; i < n; i++ {
		dh, dl = mac(dh, dl, u, d[i])
		dh, dl = mac(dh, dl, v, e[i])
		dh, dl = mac(dh, dl, p[i], md)
		eh, el = mac(eh, el, q, d[i])
		eh, el = mac(eh, el, r, e[i])
		eh, el = mac(eh, el, p[i], me)
		d[i-1], e[i-1] = int64(dl&m62), int64(el&m62)
		dh, dl = shr62(dh, dl)
		eh, el = shr62(eh, el)
	}
	d[n-1], e[n-1] = int64(dl), int64(el)
}

// updateFG sets [f, g] = t·[f, g] / 2^62, an exact division.
func updateFG(f, g []int64, t *trans2x2) {
	n := len(f)
	u, v, q, r := t.u, t.v, t.q, t.r
	fh, fl := mac(0, 0, u, f[0])
	fh, fl = shr62(mac(fh, fl, v, g[0]))
	gh, gl := mac(0, 0, q, f[0])
	gh, gl = shr62(mac(gh, gl, r, g[0]))
	for i := 1; i < n; i++ {
		fh, fl = mac(fh, fl, u, f[i])
		fh, fl = mac(fh, fl, v, g[i])
		gh, gl = mac(gh, gl, q, f[i])
		gh, gl = mac(gh, gl, r, g[i])
		f[i-1], g[i-1] = int64(fl&m62), int64(gl&m62)
		fh, fl = shr62(fh, fl)
		gh, gl = shr62(gh, gl)
	}
	f[n-1], g[n-1] = int64(fl), int64(gl)
}

// normalize62 maps d ∈ (−2p, p), negated when sign < 0, into [0, p).
func normalize62(d []int64, sign int64, p []int64) {
	n := len(d)
	add := d[n-1] >> 63
	neg := sign >> 63
	for i := range d {
		d[i] = (d[i] + p[i]&add ^ neg) - neg
	}
	carry62(d)
	add = d[n-1] >> 63
	for i := range d {
		d[i] += p[i] & add
	}
	carry62(d)
}

// carry62 brings every limb but the top one back into [0, 2^62).
func carry62(d []int64) {
	for i := 0; i < len(d)-1; i++ {
		d[i+1] += d[i] >> 62
		d[i] &= int64(m62)
	}
}

// toS62 splits the non-negative 64-bit limbs x into signed-62 limbs.
func toS62(d []int64, x []uint64) {
	for i := range d {
		bit := 62 * i
		w, off := bit/64, uint(bit%64)
		var v uint64
		if w < len(x) {
			v = x[w] >> off
			if off > 2 && w+1 < len(x) {
				v |= x[w+1] << (64 - off)
			}
		}
		if i < len(d)-1 {
			v &= m62
		}
		d[i] = int64(v)
	}
}

// fromS62 joins normalized signed-62 limbs back into 64-bit limbs.
func fromS62(z []uint64, d []int64) {
	for j := range z {
		bit := 64 * j
		i, off := bit/62, uint(bit%62)
		v := uint64(d[i]) >> off
		if i+1 < len(d) {
			v |= uint64(d[i+1]) << (62 - off)
			if off > 60 && i+2 < len(d) {
				v |= uint64(d[i+2]) << (124 - off)
			}
		}
		z[j] = v
	}
}
