package curve

import (
	"fmt"
	"math/big"
	"sync"

	"gzkp/internal/ff"
	"gzkp/internal/tower"
)

// ID names the curves GZKP supports (Table 1 of the paper: GZKP supports
// ALT-BN128, BLS12-381 and MNT4753; our 753-bit curve is the synthetic
// MNT4753-sim, see DESIGN.md §1).
type ID int

const (
	BN254 ID = iota // ALT-BN128, 256-bit
	BLS12381
	MNT4753Sim
)

// IDs lists every supported curve.
var IDs = []ID{BN254, BLS12381, MNT4753Sim}

func (id ID) String() string {
	switch id {
	case BN254:
		return "ALT-BN128"
	case BLS12381:
		return "BLS12-381"
	case MNT4753Sim:
		return "MNT4753-sim"
	}
	return fmt.Sprintf("curve(%d)", int(id))
}

// Curve bundles a curve's fields, groups and pairing tower.
type Curve struct {
	ID   ID
	Name string

	Fq *ff.Field // base field
	Fr *ff.Field // scalar field

	G1 *Group
	G2 *Group // nil when the curve has no usable G2 (MNT4753-sim)

	// Pairing data (zero/nil when Embedding == 0).
	Embedding int        // embedding degree k (12 for BN254/BLS12-381)
	Fq2       *tower.Ext // quadratic extension (G2 coordinates)
	KFull     *tower.Ext // full tower Fq^k
	TwistIsM  bool       // M-type twist (BLS12-381) vs D-type (BN254)
	// X is the family parameter the curve is generated from and the optimal
	// ate Miller loop runs over (6X+2 on BN254, X on BLS12-381).
	X *big.Int

	// FrobeniusTrace t with #E(Fq) = q + 1 - t; nil when unknown.
	FrobeniusTrace *big.Int
}

// PairingSupported reports whether the curve carries a full pairing tower.
func (c *Curve) PairingSupported() bool { return c.Embedding > 0 }

// cache holds one slot per ID; the Once makes a hit an atomic load, so the
// verifier's per-proof Get never meets a lock.
var cache [len(constructors)]struct {
	once sync.Once
	c    *Curve
	err  error
}

var constructors = [...]func() (*Curve, error){
	BN254: newBN254, BLS12381: newBLS12381, MNT4753Sim: newMNT4753Sim,
}

// Get returns the (cached) curve instance for id, constructing and
// self-verifying it on first use.
func Get(id ID) *Curve {
	if id < 0 || int(id) >= len(cache) {
		panic(fmt.Sprintf("curve: construction failed: curve: unknown id %d", id))
	}
	e := &cache[id]
	e.once.Do(func() { e.c, e.err = constructors[id]() })
	if e.err != nil {
		panic("curve: construction failed: " + e.err.Error())
	}
	return e.c
}

const (
	bn254Q = "21888242871839275222246405745257275088696311157297823662689037894645226208583"
	bn254R = "21888242871839275222246405745257275088548364400416034343698204186575808495617"
	// BN parameter x: q = 36x⁴+36x³+24x²+6x+1.
	bn254X = "4965661367192848881"

	bls381Q = "0x1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab"
	bls381R = "0x73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001"
	// BLS parameter x (negative); t = x+1.
	bls381X = "-0xd201000000010000"

	// MNT4753-sim constants, derived deterministically by cmd/paramgen.
	mnt4753SimQ = "0x1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000003db"
	mnt4753SimR = "0x100000002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000008e00000001"
)

func newBN254() (*Curve, error) {
	fq := ff.MustField("BN254.Fq", bn254Q)
	fr := ff.MustField("BN254.Fr", bn254R)
	base := tower.NewPrime(fq)
	fq2 := tower.NewExt("BN254.Fq2", base, 2, fq.FromInt64(-1))
	// ξ = 9 + u.
	xi := fq2.Zero()
	fq2.SetCoeff(xi, 0, fq.FromUint64(9))
	fq2.SetCoeff(xi, 1, fq.One())
	fq6 := tower.NewExt("BN254.Fq6", fq2, 3, xi)
	v := fq6.Zero()
	fq6.SetCoeff(v, 1, fq2.One())
	fq12 := tower.NewExt("BN254.Fq12", fq6, 2, v)

	c := &Curve{
		ID: BN254, Name: BN254.String(),
		Fq: fq, Fr: fr,
		Embedding: 12, Fq2: fq2, KFull: fq12, TwistIsM: false,
	}
	c.X, _ = new(big.Int).SetString(bn254X, 0)
	// #E(Fq) = r exactly (cofactor 1), so t = q + 1 - r.
	q, r := fq.Modulus(), fr.Modulus()
	c.FrobeniusTrace = new(big.Int).Add(q, big.NewInt(1))
	c.FrobeniusTrace.Sub(c.FrobeniusTrace, r)

	c.G1 = &Group{
		Name: "BN254.G1", K: base,
		A: fq.New(), B: fq.FromUint64(3),
		Fr: fr, Cofactor: big.NewInt(1),
		gen: Affine{X: fq.FromUint64(1), Y: fq.FromUint64(2)},
	}
	if !c.G1.IsOnCurve(c.G1.gen) {
		return nil, fmt.Errorf("BN254: G1 generator off-curve")
	}
	// G2: D-type twist y² = x³ + 3/ξ over Fq2.
	b2 := fq2.Inverse(xi)
	fq2.MulByBase(b2, b2, fq.FromUint64(3))
	var err error
	c.G2, err = bootstrapG2(c, "BN254.G2", fq2.Zero(), b2)
	if err != nil {
		return nil, err
	}
	return c, nil
}

func newBLS12381() (*Curve, error) {
	fq := ff.MustField("BLS381.Fq", bls381Q)
	fr := ff.MustField("BLS381.Fr", bls381R)
	base := tower.NewPrime(fq)
	fq2 := tower.NewExt("BLS381.Fq2", base, 2, fq.FromInt64(-1))
	// ξ = 1 + u.
	xi := fq2.Zero()
	fq2.SetCoeff(xi, 0, fq.One())
	fq2.SetCoeff(xi, 1, fq.One())
	fq6 := tower.NewExt("BLS381.Fq6", fq2, 3, xi)
	v := fq6.Zero()
	fq6.SetCoeff(v, 1, fq2.One())
	fq12 := tower.NewExt("BLS381.Fq12", fq6, 2, v)

	c := &Curve{
		ID: BLS12381, Name: BLS12381.String(),
		Fq: fq, Fr: fr,
		Embedding: 12, Fq2: fq2, KFull: fq12, TwistIsM: true,
	}
	c.X, _ = new(big.Int).SetString(bls381X, 0)
	c.FrobeniusTrace = new(big.Int).Add(c.X, big.NewInt(1))

	q := fq.Modulus()
	r := fr.Modulus()
	n1 := new(big.Int).Add(q, big.NewInt(1))
	n1.Sub(n1, c.FrobeniusTrace)
	h1, rem := new(big.Int).QuoRem(n1, r, new(big.Int))
	if rem.Sign() != 0 {
		return nil, fmt.Errorf("BLS12-381: r does not divide #E(Fq); parameters corrupt")
	}
	c.G1 = &Group{
		Name: "BLS381.G1", K: base,
		A: fq.New(), B: fq.FromUint64(4),
		Fr: fr, Cofactor: h1,
	}
	gen, err := bootstrapGenerator(c.G1, h1, r)
	if err != nil {
		return nil, fmt.Errorf("BLS12-381 G1: %w", err)
	}
	c.G1.gen = gen
	// G2: M-type twist y² = x³ + 4ξ over Fq2.
	b2 := fq2.Copy(xi)
	fq2.MulByBase(b2, b2, fq.FromUint64(4))
	c.G2, err = bootstrapG2(c, "BLS381.G2", fq2.Zero(), b2)
	if err != nil {
		return nil, err
	}
	return c, nil
}

func newMNT4753Sim() (*Curve, error) {
	fq := ff.MustField("MNT4753sim.Fq", mnt4753SimQ)
	fr := ff.MustField("MNT4753sim.Fr", mnt4753SimR)
	base := tower.NewPrime(fq)
	c := &Curve{
		ID: MNT4753Sim, Name: MNT4753Sim.String(),
		Fq: fq, Fr: fr,
	}
	// y² = x³ + 2x + 1 with generator (1, 2) — cmd/paramgen derivation.
	c.G1 = &Group{
		Name: "MNT4753sim.G1", K: base,
		A: fq.FromUint64(2), B: fq.FromUint64(1),
		Fr: fr, Cofactor: nil, // group order unknown by design
		gen: Affine{X: fq.FromUint64(1), Y: fq.FromUint64(2)},
	}
	if !c.G1.IsOnCurve(c.G1.gen) {
		return nil, fmt.Errorf("MNT4753-sim: generator off-curve")
	}
	return c, nil
}

// bootstrapGenerator finds a deterministic subgroup generator: scan for a
// curve point, clear the cofactor, verify order r.
func bootstrapGenerator(g *Group, cofactor, r *big.Int) (Affine, error) {
	ops := g.NewOps()
	for seed := uint64(1); seed < 64; seed++ {
		p, err := g.FindPoint(seed)
		if err != nil {
			continue
		}
		cleared := ops.ScalarMul(p, cofactor)
		if ops.IsInfinity(cleared) {
			continue
		}
		gen := ops.ToAffine(cleared)
		if !ops.IsInfinity(ops.ScalarMul(gen, r)) {
			return Affine{}, fmt.Errorf("cofactor-cleared point does not have order r")
		}
		return gen, nil
	}
	return Affine{}, fmt.Errorf("no generator found")
}

// bootstrapG2 builds the G2 twist group for a pairing curve: determines the
// twist order from the six twist-class candidates (CM discriminant -3), then
// bootstraps an order-r generator by cofactor clearing.
func bootstrapG2(c *Curve, name string, a2, b2 []uint64) (*Group, error) {
	g := &Group{Name: name, K: c.Fq2, A: a2, B: b2, Fr: c.Fr}
	q := c.Fq.Modulus()
	r := c.Fr.Modulus()
	n2, err := findTwistOrder(g, q, c.FrobeniusTrace, r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	h2, rem := new(big.Int).QuoRem(n2, r, new(big.Int))
	if rem.Sign() != 0 {
		return nil, fmt.Errorf("%s: twist order not divisible by r", name)
	}
	g.Cofactor = h2
	gen, err := bootstrapGenerator(g, h2, r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	g.gen = gen
	return g, nil
}

// findTwistOrder returns #E'(Fq2) for the twist group g. For a curve with
// CM discriminant -3 (a = 0 base curve), the Frobenius trace over Fq2 is
// t2 = t² - 2q with t2² - 4q² = -3f2², and every twist class has order
// q² + 1 - s with s ∈ {t2, -t2, (±t2 ± 3f2)/2}. The correct class is
// identified by r-divisibility and verified on sample points.
func findTwistOrder(g *Group, q, t, r *big.Int) (*big.Int, error) {
	q2 := new(big.Int).Mul(q, q)
	t2 := new(big.Int).Mul(t, t)
	t2.Sub(t2, new(big.Int).Lsh(q, 1)) // t² - 2q
	// f2 = sqrt((4q² - t2²)/3)
	f2sq := new(big.Int).Lsh(q2, 2)
	f2sq.Sub(f2sq, new(big.Int).Mul(t2, t2))
	f2sq.Quo(f2sq, big.NewInt(3))
	f2 := new(big.Int).Sqrt(f2sq)
	if new(big.Int).Mul(f2, f2).Cmp(f2sq) != 0 {
		return nil, fmt.Errorf("CM equation has no integer solution; wrong trace")
	}
	mk := func(num *big.Int) *big.Int { return new(big.Int).Rsh(num, 1) }
	sum := func(a, b *big.Int) *big.Int { return new(big.Int).Add(a, b) }
	neg := func(a *big.Int) *big.Int { return new(big.Int).Neg(a) }
	three := big.NewInt(3)
	f23 := new(big.Int).Mul(f2, three)
	candidates := []*big.Int{
		t2, neg(t2),
		mk(sum(t2, f23)), mk(sum(t2, neg(f23))),
		mk(sum(neg(t2), f23)), mk(sum(neg(t2), neg(f23))),
	}
	ops := g.NewOps()
	for _, s := range candidates {
		n := new(big.Int).Add(q2, big.NewInt(1))
		n.Sub(n, s)
		if new(big.Int).Mod(n, r).Sign() != 0 {
			continue
		}
		ok := true
		for seed := uint64(1); seed <= 3; seed++ {
			p, err := g.FindPoint(seed * 7)
			if err != nil {
				return nil, err
			}
			if !ops.IsInfinity(ops.ScalarMul(p, n)) {
				ok = false
				break
			}
		}
		if ok {
			return n, nil
		}
	}
	return nil, fmt.Errorf("no twist-order candidate annihilates sample points")
}
