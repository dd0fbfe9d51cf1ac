package curve

import (
	"math/big"
	mrand "math/rand"
	"testing"

	"gzkp/internal/tower"
)

// AffineBatchSum is the allocating tree-reduction batch-affine sum the
// AffineAdder replaced, kept as a differential oracle: each level pairs
// points up and resolves all slope denominators with one inversion.
func (g *Group) AffineBatchSum(points []Affine) Affine {
	K := g.K
	work := make([]Affine, 0, len(points))
	for _, p := range points {
		if !p.Inf {
			work = append(work, g.CopyAffine(p))
		}
	}
	for len(work) > 1 {
		half := len(work) / 2
		nums := make([][]uint64, half)
		dens := make([][]uint64, half)
		for i := 0; i < half; i++ {
			p, q := work[2*i], work[2*i+1]
			switch {
			case !K.Equal(p.X, q.X):
				nums[i], dens[i] = K.Sub(K.Zero(), q.Y, p.Y), K.Sub(K.Zero(), q.X, p.X)
			case K.Equal(p.Y, q.Y) && !K.IsZero(p.Y):
				num := K.Square(K.Zero(), p.X)
				K.Add(num, K.Add(K.Zero(), num, num), num)
				nums[i], dens[i] = K.Add(num, num, g.A), K.Double(K.Zero(), p.Y)
			default: // P + (−P) or a 2-torsion double: O
			}
		}
		next := work[:0]
		for i := 0; i < half; i++ {
			if nums[i] == nil {
				continue
			}
			p, q := work[2*i], work[2*i+1]
			lambda := K.Mul(K.Zero(), nums[i], K.Inverse(dens[i]))
			x3 := K.Square(K.Zero(), lambda)
			K.Sub(x3, K.Sub(x3, x3, p.X), q.X)
			y3 := K.Mul(K.Zero(), K.Sub(K.Zero(), p.X, x3), lambda)
			next = append(next, Affine{X: x3, Y: K.Sub(y3, y3, p.Y)})
		}
		if len(work)%2 == 1 {
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	if len(work) == 0 {
		return Affine{Inf: true}
	}
	return work[0]
}

// adderSum tree-reduces pts with the AffineAdder — loaded into slots,
// pts[i] as −pts[i] where neg[i], then paired in place with one Flush per
// level — the shape msm's bucket kernel drives it in.
func adderSum(g *Group, pts []Affine, neg []bool) Affine {
	a := g.NewAffineAdder(len(pts))
	live := int32(0)
	for i, p := range pts {
		if !p.Inf {
			a.Load(live, p, neg != nil && neg[i])
			live++
		}
	}
	for live > 1 {
		out := int32(0)
		for i := int32(0); i+1 < live; i += 2 {
			a.Queue(i, i+1, out)
			out++
		}
		if live%2 == 1 {
			a.Queue(live-1, -1, out)
			out++
		}
		a.Flush()
		// Compact away cancellations.
		live = 0
		for i := int32(0); i < out; i++ {
			if !a.Point(i).Inf {
				a.Queue(i, -1, live)
				live++
			}
		}
		a.Flush()
	}
	if live == 0 {
		return Affine{Inf: true}
	}
	return g.CopyAffine(a.Point(0))
}

func TestAffineBatchSumMatchesSequential(t *testing.T) {
	for _, g := range allGroups(t) {
		ops := g.NewOps()
		rng := mrand.New(mrand.NewSource(3))
		for _, n := range []int{0, 1, 2, 3, 17, 64, 101} {
			pts := make([]Affine, n)
			neg := make([]bool, n)
			var want, wantSigned Jacobian
			ops.SetInfinity(&want)
			ops.SetInfinity(&wantSigned)
			for i := range pts {
				k := big.NewInt(int64(rng.Intn(1<<20) + 1))
				pts[i] = ops.ToAffine(ops.ScalarMul(g.Generator(), k))
				ops.AddMixedAssign(&want, pts[i])
				if neg[i] = rng.Intn(2) == 1; neg[i] {
					ops.SubMixedAssign(&wantSigned, pts[i])
				} else {
					ops.AddMixedAssign(&wantSigned, pts[i])
				}
			}
			w := ops.ToAffine(&want)
			if got := g.AffineBatchSum(pts); !g.EqualAffine(got, w) {
				t.Fatalf("%s n=%d: oracle batch sum mismatch", g.Name, n)
			}
			if got := adderSum(g, pts, nil); !g.EqualAffine(got, w) {
				t.Fatalf("%s n=%d: AffineAdder sum mismatch", g.Name, n)
			}
			if got := adderSum(g, pts, neg); !g.EqualAffine(got, ops.ToAffine(&wantSigned)) {
				t.Fatalf("%s n=%d: AffineAdder signed sum mismatch", g.Name, n)
			}
		}
	}
}

func TestAffineBatchSumDegenerate(t *testing.T) {
	for _, g := range allGroups(t) {
		ops := g.NewOps()
		gen := g.Generator()
		mul := func(k int64) Affine { return ops.ToAffine(ops.ScalarMul(gen, big.NewInt(k))) }
		same := make([]Affine, 13)
		for i := range same {
			same[i] = gen
		}
		neg := func(idx ...int) []bool {
			out := make([]bool, 13)
			for _, i := range idx {
				out[i] = true
			}
			return out
		}
		for _, c := range []struct {
			name string
			pts  []Affine
			neg  []bool
			want Affine
		}{
			{"P+P", []Affine{gen, gen}, nil, mul(2)},
			{"P+(-P)", []Affine{gen, g.NegAffine(gen)}, nil, g.Infinity()},
			{"mid-batch cancel", []Affine{gen, g.NegAffine(gen), mul(2), gen}, nil, mul(3)},
			{"infinities skipped", []Affine{g.Infinity(), mul(2), g.Infinity(), gen}, nil, mul(3)},
			{"empty", nil, nil, g.Infinity()},
			{"all infinity", []Affine{g.Infinity()}, nil, g.Infinity()},
			{"13 copies", same, nil, mul(13)},
			// Signed reads: the doubling and cancellation cases under
			// opposite and equal signs.
			{"(-P)+(-P)", []Affine{gen, gen}, neg(0, 1), mul(-2)},
			{"P+(-P) by sign", []Affine{gen, gen}, neg(1), g.Infinity()},
			{"(-P)+P by sign", []Affine{gen, gen}, neg(0), g.Infinity()},
			{"(-P)+(-(-P))", []Affine{gen, g.NegAffine(gen)}, neg(0), mul(-2)},
			{"P+(-(-P))", []Affine{gen, g.NegAffine(gen)}, neg(1), mul(2)},
			{"(-2P)+P", []Affine{mul(2), gen}, neg(0), mul(-1)},
			{"P+(-2P)", []Affine{gen, mul(2)}, neg(1), mul(-1)},
			{"13 copies, 5 negated", same, neg(0, 3, 4, 8, 12), mul(3)},
		} {
			if c.neg == nil {
				if got := g.AffineBatchSum(c.pts); !g.EqualAffine(got, c.want) {
					t.Fatalf("%s %s: oracle mismatch", g.Name, c.name)
				}
			}
			if got := adderSum(g, c.pts, c.neg); !g.EqualAffine(got, c.want) {
				t.Fatalf("%s %s: AffineAdder mismatch", g.Name, c.name)
			}
		}
	}
}

// TestAffineAdderDoesNotAllocate: loads, a batch of queued additions and
// its Flush — inversion included — allocate nothing on any shipped group,
// G2 included.
func TestAffineAdderDoesNotAllocate(t *testing.T) {
	for _, g := range allGroups(t) {
		ops := g.NewOps()
		pts := make([]Affine, 8)
		for i := range pts {
			pts[i] = ops.ToAffine(ops.ScalarMul(g.Generator(), big.NewInt(int64(5*i+1))))
		}
		pts[7] = pts[6] // one doubling in the batch
		a := g.NewAffineAdder(len(pts))
		allocs := testing.AllocsPerRun(10, func() {
			for i, p := range pts {
				a.Load(int32(i), p, i == 3)
			}
			for i := int32(0); i < 4; i++ {
				a.Queue(2*i, 2*i+1, i)
			}
			a.Flush()
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per batch, want 0", g.Name, allocs)
		}
	}
}

// TestAdderInverseMatchesField pins invertTo, the allocation-free inversion
// of the adder and of BatchToAffine, to tower.Field.Inverse on every
// coordinate field a shipped group uses.
func TestAdderInverseMatchesField(t *testing.T) {
	rng := mrand.New(mrand.NewSource(5))
	for _, g := range allGroups(t) {
		z, conj, norm := g.K.Zero(), g.K.Zero(), g.K.Zero()
		for i := 0; i < 8; i++ {
			x := g.K.Rand(rng)
			if i == 0 {
				x = g.K.One()
			}
			if g.K.IsZero(x) {
				continue
			}
			invertTo(g.K, z, x, conj, norm)
			if !g.K.Equal(z, g.K.Inverse(x)) {
				t.Fatalf("%s: inverse mismatch", g.Name)
			}
		}
	}
}

func TestCompressRoundTrip(t *testing.T) {
	for _, c := range allCurves(t) {
		groups := []*Group{c.G1}
		if c.G2 != nil {
			groups = append(groups, c.G2)
		}
		for _, g := range groups {
			ops := g.NewOps()
			rng := mrand.New(mrand.NewSource(9))
			for i := 0; i < 6; i++ {
				k := big.NewInt(int64(rng.Intn(1<<30) + 1))
				p := ops.ToAffine(ops.ScalarMul(g.Generator(), k))
				enc := g.Compress(p)
				if len(enc) != g.CompressedLen() {
					t.Fatalf("%s: length %d != %d", g.Name, len(enc), g.CompressedLen())
				}
				back, err := g.Decompress(enc)
				if err != nil {
					t.Fatalf("%s: %v", g.Name, err)
				}
				if !g.EqualAffine(p, back) {
					t.Fatalf("%s: compress roundtrip mismatch", g.Name)
				}
				// The negated point must roundtrip distinctly.
				neg := g.NegAffine(p)
				back2, err := g.Decompress(g.Compress(neg))
				if err != nil {
					t.Fatal(err)
				}
				if !g.EqualAffine(neg, back2) {
					t.Fatalf("%s: negated point roundtrip mismatch", g.Name)
				}
			}
			// Infinity.
			inf, err := g.Decompress(g.Compress(g.Infinity()))
			if err != nil || !inf.Inf {
				t.Fatalf("%s: infinity roundtrip: %v", g.Name, err)
			}
			// Rejections: bad header, bad length, off-curve x, dirty infinity.
			enc := g.Compress(g.Generator())
			enc[0] = 7
			if _, err := g.Decompress(enc); err == nil {
				t.Fatalf("%s: bad header accepted", g.Name)
			}
			if _, err := g.Decompress(enc[:len(enc)-1]); err == nil {
				t.Fatalf("%s: short encoding accepted", g.Name)
			}
			dirty := g.Compress(g.Infinity())
			dirty[1] = 1
			if _, err := g.Decompress(dirty); err == nil {
				t.Fatalf("%s: dirty infinity accepted", g.Name)
			}
		}
	}
	// An x with no curve point must be rejected (scan for one).
	g := Get(BN254).G1
	f := g.K.(*tower.Prime).F
	for v := uint64(1); v < 100; v++ {
		x := f.FromUint64(v)
		rhs := f.Square(f.New(), x)
		f.Mul(rhs, rhs, x)
		f.Add(rhs, rhs, g.B)
		if f.Legendre(rhs) == -1 {
			enc := make([]byte, g.CompressedLen())
			enc[0] = 2
			copy(enc[1:], f.Bytes(x))
			if _, err := g.Decompress(enc); err == nil {
				t.Fatal("off-curve x accepted")
			}
			return
		}
	}
	t.Fatal("no non-curve x found below 100 (astronomically unlikely)")
}
