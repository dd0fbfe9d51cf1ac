package curve

// AffineAdder adds many independent affine pairs at once, resolving every
// queued slope denominator on Flush with one shared inversion (Montgomery's
// trick): an addition costs 5M + 1S + 6 add/sub plus a share of that
// inversion, against a Jacobian mixed add's 7M + 4S + 13 add/sub. It is the
// bucket kernel of msm's GZKP table routine and the engine of its bucket
// combine's running sums. Points live in the adder's
// flat limb slab (slot i is x‖y at slab[2iw:2(i+1)w]), sized once: Load,
// Queue and Flush never allocate. Not safe for concurrent use.
type AffineAdder struct {
	g     *Group
	k     fieldKern
	w     int
	slab  []uint64
	inf   []bool
	pairs []affinePair
	// den[s·w:(s+1)·w] is the s-th queued slope's denominator, then its
	// inverse; pre holds the batch inversion's prefix products alike.
	den, pre []uint64
	slopes   int
	t        [5][]uint64
	one      []uint64
}

// affinePair is one queued slot out = slot p + slot q.
type affinePair struct {
	p, q, out int32
	kind      uint8
}

const (
	pairAdd    = iota // distinct x: chord slope (qy − py)/(qx − px)
	pairDouble        // p == q: tangent slope (3x² + A)/(2y)
	pairCancel        // p == −q (or a 2-torsion double): the sum is O
	pairCopy          // q absent: out = p
)

// NewAffineAdder allocates an adder for g with a slab of the given number
// of slots. A batch — one round of in-place pairing over the slab — holds
// at most that many pairs, at most half of them additions or doublings.
func (g *Group) NewAffineAdder(slots int) *AffineAdder {
	w, half := g.K.Words(), (slots+1)/2
	a := &AffineAdder{
		g: g, k: bindKern(g.K), w: w,
		slab: make([]uint64, 2*w*slots), inf: make([]bool, slots),
		pairs: make([]affinePair, 0, slots),
		den:   make([]uint64, w*half), pre: make([]uint64, w*half),
		one: g.K.One(),
	}
	for i := range a.t {
		a.t[i] = make([]uint64, w)
	}
	return a
}

func (a *AffineAdder) x(i int32) []uint64 { return a.slab[2*int(i)*a.w : (2*int(i)+1)*a.w] }
func (a *AffineAdder) y(i int32) []uint64 { return a.slab[(2*int(i)+1)*a.w : 2*(int(i)+1)*a.w] }

// Load copies p, or −p when neg, into slot i. p may not be the point at
// infinity.
func (a *AffineAdder) Load(i int32, p Affine, neg bool) {
	a.inf[i] = false
	copy(a.x(i), p.X)
	if neg {
		a.k.neg(a.y(i), p.Y)
	} else {
		copy(a.y(i), p.Y)
	}
}

// LoadLimbs copies the finite point stored as x‖y in xy (2w words, a
// slot's own layout), or its negation when neg, into slot i: the one copy a
// table point makes on its way into a bucket.
func (a *AffineAdder) LoadLimbs(i int32, xy []uint64, neg bool) {
	a.inf[i] = false
	copy(a.slab[2*int(i)*a.w:2*(int(i)+1)*a.w], xy)
	if y := a.y(i); neg {
		a.k.neg(y, y)
	}
}

// SetInfinity makes slot i the point at infinity.
func (a *AffineAdder) SetInfinity(i int32) { a.inf[i] = true }

// Point returns slot i, aliasing the slab.
func (a *AffineAdder) Point(i int32) Affine {
	return Affine{X: a.x(i), Y: a.y(i), Inf: a.inf[i]}
}

// Queue schedules slot out = slot p + slot q (q < 0: the copy out = p) for
// the next Flush; neither operand may be the point at infinity. Outputs are
// written in queue order, so out may alias an operand of its own pair or of
// an earlier one, never of a later one.
func (a *AffineAdder) Queue(p, q, out int32) {
	pr := affinePair{p: p, q: q, out: out, kind: pairCopy}
	if q >= 0 {
		k, den := &a.k, a.slope(a.slopes)
		k.sub(den, a.x(q), a.x(p))
		switch py := a.y(p); {
		case !a.g.K.IsZero(den):
			pr.kind = pairAdd
			a.slopes++
		case a.g.K.Equal(py, a.y(q)) && !a.g.K.IsZero(py):
			pr.kind = pairDouble
			k.double(den, py)
			a.slopes++
		default:
			pr.kind = pairCancel
		}
	}
	a.pairs = append(a.pairs, pr)
}

func (a *AffineAdder) slope(s int) []uint64 { return a.den[s*a.w : (s+1)*a.w] }

// Flush inverts every queued denominator with one field inversion, writes
// every queued sum, and empties the batch.
func (a *AffineAdder) Flush() {
	w, k := a.w, &a.k
	acc, inv, lam, x3, y3 := a.t[0], a.t[1], a.t[2], a.t[3], a.t[4]
	if a.slopes > 0 {
		copy(acc, a.one)
		for s := 0; s < a.slopes; s++ {
			copy(a.pre[s*w:(s+1)*w], acc)
			k.mul(acc, acc, a.slope(s))
		}
		invertTo(a.g.K, inv, acc, lam, x3)
		for s := a.slopes - 1; s >= 0; s-- {
			den := a.slope(s)
			k.mul(lam, inv, a.pre[s*w:(s+1)*w]) // den⁻¹
			k.mul(inv, inv, den)
			copy(den, lam)
		}
	}
	s := 0
	for _, pr := range a.pairs {
		a.inf[pr.out] = pr.kind == pairCancel
		px, py := a.x(pr.p), a.y(pr.p)
		switch pr.kind {
		case pairCancel:
			continue
		case pairCopy:
			copy(a.x(pr.out), px)
			copy(a.y(pr.out), py)
			continue
		case pairAdd:
			k.sub(y3, a.y(pr.q), py)
		case pairDouble:
			k.square(y3, px)
			k.double(lam, y3)
			k.add(y3, y3, lam)
			if !a.g.K.IsZero(a.g.A) {
				k.add(y3, y3, a.g.A)
			}
		}
		k.mul(lam, y3, a.slope(s))
		s++
		// x3 = λ² − px − qx; y3 = λ(px − x3) − py, via scratch: out may alias p or q.
		k.square(x3, lam)
		k.sub(x3, x3, px)
		k.sub(x3, x3, a.x(pr.q))
		k.sub(y3, px, x3)
		k.mul(y3, y3, lam)
		k.sub(y3, y3, py)
		copy(a.x(pr.out), x3)
		copy(a.y(pr.out), y3)
	}
	a.pairs, a.slopes = a.pairs[:0], 0
}
