package r1cs

import (
	"math/big"
	mrand "math/rand"
	"testing"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
)

func field(t testing.TB) *ff.Field { return curve.Get(curve.BN254).Fr }

func TestCubicCircuit(t *testing.T) {
	// The classic: prove knowledge of x with x³ + x + 5 = out.
	f := field(t)
	b := NewBuilder(f)
	out, err := b.Public("out")
	if err != nil {
		t.Fatal(err)
	}
	x := b.Secret("x")
	x2 := b.Square(x)
	x3 := b.Mul(x2, x)
	b.AssertEqual(b.Add(b.Add(x3, x), b.ConstUint64(5)), out)
	sys := b.Build()

	if sys.NumPublic != 1 || sys.NumSecret != 1 {
		t.Fatalf("counts: %d public %d secret", sys.NumPublic, sys.NumSecret)
	}
	w, err := sys.Solve([]ff.Element{f.FromUint64(35)}, []ff.Element{f.FromUint64(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.IsSatisfied(w); err != nil {
		t.Fatal(err)
	}
	// Wrong witness must fail.
	w2, err := sys.Solve([]ff.Element{f.FromUint64(35)}, []ff.Element{f.FromUint64(4)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.IsSatisfied(w2); err == nil {
		t.Fatal("wrong witness satisfied the system")
	}
	// Public witness extraction.
	pw := sys.PublicWitness(w)
	if len(pw) != 2 || !f.IsOne(pw[0]) || !f.Equal(pw[1], f.FromUint64(35)) {
		t.Fatal("public witness wrong")
	}
}

func TestPublicAfterSecretRejected(t *testing.T) {
	b := NewBuilder(field(t))
	_ = b.Secret("w")
	if _, err := b.Public("late"); err == nil {
		t.Fatal("public input accepted after secret")
	}
}

func TestSecretAfterWireRejected(t *testing.T) {
	b := NewBuilder(field(t))
	x := b.Secret("x")
	b.Mul(x, x)
	if b.Err() != nil {
		t.Fatalf("error before the late secret: %v", b.Err())
	}
	_ = b.Secret("late")
	if b.Err() == nil {
		t.Fatal("secret input accepted after an internal wire")
	}
}

func TestSolveValidation(t *testing.T) {
	f := field(t)
	b := NewBuilder(f)
	_, _ = b.Public("x")
	_ = b.Secret("w")
	sys := b.Build()
	if _, err := sys.Solve(nil, []ff.Element{f.One()}); err == nil {
		t.Fatal("missing publics accepted")
	}
	if _, err := sys.Solve([]ff.Element{f.One()}, nil); err == nil {
		t.Fatal("missing secrets accepted")
	}
}

func TestLCAlgebra(t *testing.T) {
	f := field(t)
	b := NewBuilder(f)
	x := b.Secret("x")
	y := b.Secret("y")
	// (x+y) - y == x under evaluation.
	lc := b.Sub(b.Add(x, y), y)
	sys := b.Build()
	w, _ := sys.Solve(nil, []ff.Element{f.FromUint64(7), f.FromUint64(9)})
	got := EvalLC(f, lc, w)
	if !f.Equal(got, f.FromUint64(7)) {
		t.Fatalf("LC algebra: got %s", f.String(got))
	}
	// Scale.
	s := b.Scale(x, f.FromUint64(3))
	if got := EvalLC(f, s, w); !f.Equal(got, f.FromUint64(21)) {
		t.Fatal("Scale broken")
	}
}

func TestInverseAndDiv(t *testing.T) {
	f := field(t)
	b := NewBuilder(f)
	x := b.Secret("x")
	y := b.Secret("y")
	q := b.Div(x, y)
	b.AssertEqual(b.Mul(q, y), x)
	sys := b.Build()
	w, err := sys.Solve(nil, []ff.Element{f.FromUint64(84), f.FromUint64(12)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.IsSatisfied(w); err != nil {
		t.Fatal(err)
	}
	// Division by zero must fail at solve time.
	if _, err := sys.Solve(nil, []ff.Element{f.FromUint64(84), f.Zero()}); err == nil {
		t.Fatal("division by zero solved")
	}
}

func TestIsZero(t *testing.T) {
	f := field(t)
	for _, val := range []uint64{0, 1, 12345} {
		b := NewBuilder(f)
		x := b.Secret("x")
		z := b.IsZero(x)
		b.AssertEqual(z, b.ConstUint64(map[bool]uint64{true: 1, false: 0}[val == 0]))
		sys := b.Build()
		w, err := sys.Solve(nil, []ff.Element{f.FromUint64(val)})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.IsSatisfied(w); err != nil {
			t.Fatalf("IsZero(%d): %v", val, err)
		}
	}
}

func TestSelect(t *testing.T) {
	f := field(t)
	b := NewBuilder(f)
	c := b.Secret("c")
	b.AssertBool(c)
	out := b.Select(c, b.ConstUint64(111), b.ConstUint64(222))
	sys := b.Build()
	for cond, want := range map[uint64]uint64{1: 111, 0: 222} {
		w, err := sys.Solve(nil, []ff.Element{f.FromUint64(cond)})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.IsSatisfied(w); err != nil {
			t.Fatal(err)
		}
		if got := EvalLC(f, out, w); !f.Equal(got, f.FromUint64(want)) {
			t.Fatalf("Select(%d) = %s", cond, f.String(got))
		}
	}
}

func TestToBitsRange(t *testing.T) {
	f := field(t)
	b := NewBuilder(f)
	x := b.Secret("x")
	bits := b.ToBits(x, 8)
	recomposed := b.FromBits(bits)
	b.AssertEqual(recomposed, x)
	sys := b.Build()
	w, err := sys.Solve(nil, []ff.Element{f.FromUint64(0b10110101)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.IsSatisfied(w); err != nil {
		t.Fatal(err)
	}
	// Out-of-range value: solver produces bits of the low 8 bits, which
	// cannot recompose — constraint must fail.
	w2, err := sys.Solve(nil, []ff.Element{f.FromUint64(1 << 9)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.IsSatisfied(w2); err == nil {
		t.Fatal("range check passed for out-of-range value")
	}
}

func TestAssertLessEq(t *testing.T) {
	f := field(t)
	b := NewBuilder(f)
	x := b.Secret("x")
	y := b.Secret("y")
	b.AssertLessEq(x, y, 16)
	sys := b.Build()
	ok, _ := sys.Solve(nil, []ff.Element{f.FromUint64(100), f.FromUint64(5000)})
	if err := sys.IsSatisfied(ok); err != nil {
		t.Fatal(err)
	}
	bad, _ := sys.Solve(nil, []ff.Element{f.FromUint64(5000), f.FromUint64(100)})
	if err := sys.IsSatisfied(bad); err == nil {
		t.Fatal("x > y passed AssertLessEq")
	}
}

func TestMiMCDeterministicAndSpreading(t *testing.T) {
	f := field(t)
	m := NewMiMC(f)
	a, b := f.FromUint64(1), f.FromUint64(2)
	h1 := m.Hash2(a, b)
	h2 := m.Hash2(a, b)
	if !f.Equal(h1, h2) {
		t.Fatal("MiMC not deterministic")
	}
	if f.Equal(h1, m.Hash2(b, a)) {
		t.Fatal("MiMC symmetric (collision)")
	}
	if f.Equal(h1, a) || f.IsZero(h1) {
		t.Fatal("MiMC degenerate output")
	}
	// Cross-field instances differ in rounds.
	m753 := NewMiMC(curve.Get(curve.MNT4753Sim).Fr)
	if m753.Rounds <= m.Rounds {
		t.Fatal("753-bit MiMC should use more rounds")
	}
}

func TestMiMCGadgetMatchesNative(t *testing.T) {
	f := field(t)
	m := NewMiMC(f)
	b := NewBuilder(f)
	x := b.Secret("x")
	y := b.Secret("y")
	h := m.Hash2Gadget(b, x, y)
	sys := b.Build()
	rng := mrand.New(mrand.NewSource(5))
	for i := 0; i < 3; i++ {
		xv, yv := f.Rand(rng), f.Rand(rng)
		w, err := sys.Solve(nil, []ff.Element{xv, yv})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.IsSatisfied(w); err != nil {
			t.Fatal(err)
		}
		if got := EvalLC(f, h, w); !f.Equal(got, m.Hash2(xv, yv)) {
			t.Fatal("gadget disagrees with native MiMC")
		}
	}
}

func TestMerkleGadget(t *testing.T) {
	f := field(t)
	m := NewMiMC(f)
	rng := mrand.New(mrand.NewSource(9))
	depth := 5
	leaf := f.Rand(rng)
	siblings := make([]ff.Element, depth)
	positions := make([]int, depth)
	for i := range siblings {
		siblings[i] = f.Rand(rng)
		positions[i] = rng.Intn(2)
	}
	root := m.MerkleRoot(leaf, siblings, positions)

	b := NewBuilder(f)
	rootLC, err := b.Public("root")
	if err != nil {
		t.Fatal(err)
	}
	leafLC := b.Secret("leaf")
	sibLCs := make([]LC, depth)
	posLCs := make([]LC, depth)
	for i := 0; i < depth; i++ {
		sibLCs[i] = b.Secret("sib")
	}
	for i := 0; i < depth; i++ {
		posLCs[i] = b.Secret("pos")
	}
	m.MerkleGadget(b, leafLC, sibLCs, posLCs, rootLC)
	sys := b.Build()

	secret := []ff.Element{leaf}
	secret = append(secret, siblings...)
	for _, p := range positions {
		secret = append(secret, f.FromUint64(uint64(p)))
	}
	w, err := sys.Solve([]ff.Element{root}, secret)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.IsSatisfied(w); err != nil {
		t.Fatal(err)
	}
	// Wrong root must fail.
	w2, err := sys.Solve([]ff.Element{f.Rand(rng)}, secret)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.IsSatisfied(w2); err == nil {
		t.Fatal("wrong root accepted")
	}
}

func TestUnassignedWireDetected(t *testing.T) {
	f := field(t)
	sys := &System{F: f, NumVars: 2}
	if _, err := sys.Solve(nil, nil); err == nil {
		t.Fatal("unassigned wire not detected")
	}
}

func TestEvalLCBig(t *testing.T) {
	f := field(t)
	b := NewBuilder(f)
	x := b.Secret("x")
	big3 := b.Scale(x, f.FromBig(big.NewInt(3)))
	sys := b.Build()
	w, _ := sys.Solve(nil, []ff.Element{f.FromUint64(10)})
	if got := EvalLC(f, big3, w); !f.Equal(got, f.FromUint64(30)) {
		t.Fatal("Scale by big constant broken")
	}
}
