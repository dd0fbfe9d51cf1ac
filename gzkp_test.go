package gzkp

import (
	"bytes"
	"math/big"
	"testing"
)

func buildCubic(t testing.TB, c Curve) (*Compiled, *Witness) {
	t.Helper()
	ct := NewCircuit(c)
	out, err := ct.Public("out")
	if err != nil {
		t.Fatal(err)
	}
	x := ct.Secret("x")
	x3 := ct.Mul(ct.Square(x), x)
	ct.AssertEqual(ct.Add(ct.Add(x3, x), ct.Constant(big.NewInt(5))), out)
	cc, err := ct.Compile()
	if err != nil {
		t.Fatal(err)
	}
	w, err := cc.Solve([]*big.Int{big.NewInt(35)}, []*big.Int{big.NewInt(3)})
	if err != nil {
		t.Fatal(err)
	}
	return cc, w
}

func TestEndToEndPublicAPI(t *testing.T) {
	for _, c := range []Curve{BN254, BLS12381} {
		cc, w := buildCubic(t, c)
		pk, vk, err := Setup(cc, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []ProverOptions{FastestProver(), BaselineProver(), ReferenceProver()} {
			proof, stats, err := pk.Prove(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if stats.NTTOps != 7 || stats.MSMOps != 5 {
				t.Fatalf("stage shape: %d NTTs, %d MSMs", stats.NTTOps, stats.MSMOps)
			}
			if err := vk.Verify(proof, []*big.Int{big.NewInt(35)}); err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			if err := vk.Verify(proof, []*big.Int{big.NewInt(34)}); err == nil {
				t.Fatal("wrong public input accepted")
			}
		}
	}
}

func TestSolveRejectsBadWitness(t *testing.T) {
	cc, _ := buildCubic(t, BN254)
	if _, err := cc.Solve([]*big.Int{big.NewInt(35)}, []*big.Int{big.NewInt(4)}); err == nil {
		t.Fatal("unsatisfying witness accepted by Solve")
	}
}

func TestMNT4753CannotSetup(t *testing.T) {
	cc, _ := buildCubic(t, MNT4753)
	if _, _, err := Setup(cc, nil); err == nil {
		t.Fatal("MNT4753-sim setup must fail (no pairing)")
	}
}

func TestEmptyCircuitRejected(t *testing.T) {
	if _, err := NewCircuit(BN254).Compile(); err == nil {
		t.Fatal("empty circuit compiled")
	}
}

// A secret declared after an internal wire could never be solved (secrets
// sit before every internal wire), so Compile refuses the circuit.
func TestSecretAfterWireRejected(t *testing.T) {
	c := NewCircuit(BN254)
	x := c.Secret("x")
	y := c.Mul(x, x)
	z := c.Secret("z")
	c.AssertEqual(c.Mul(z, x), y)
	if _, err := c.Compile(); err == nil {
		t.Fatal("circuit with a secret after an internal wire compiled")
	}
}

func TestProofSerializationRoundTrip(t *testing.T) {
	cc, w := buildCubic(t, BN254)
	pk, vk, err := Setup(cc, nil)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := pk.Prove(w, FastestProver())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Proof
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if err := vk.Verify(&back, []*big.Int{big.NewInt(35)}); err != nil {
		t.Fatal(err)
	}
	if err := back.UnmarshalBinary(blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated proof accepted")
	}
	// VK round trip.
	vkb, err := vk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var vk2 VerifyingKey
	if err := vk2.UnmarshalBinary(vkb); err != nil {
		t.Fatal(err)
	}
	if err := vk2.Verify(proof, []*big.Int{big.NewInt(35)}); err != nil {
		t.Fatal(err)
	}
}

func TestGadgetsThroughFacade(t *testing.T) {
	ct := NewCircuit(BN254)
	root, err := ct.Public("root")
	if err != nil {
		t.Fatal(err)
	}
	leaf := ct.Secret("leaf")
	depth := 3
	sibs := make([]Wire, depth)
	dirs := make([]Wire, depth)
	for i := 0; i < depth; i++ {
		sibs[i] = ct.Secret("sib")
	}
	for i := 0; i < depth; i++ {
		dirs[i] = ct.Secret("dir")
	}
	if err := ct.MerkleAssert(leaf, sibs, dirs, root); err != nil {
		t.Fatal(err)
	}
	cc, err := ct.Compile()
	if err != nil {
		t.Fatal(err)
	}

	leafV := big.NewInt(42)
	sibVals := []*big.Int{big.NewInt(7), big.NewInt(8), big.NewInt(9)}
	dirVals := []int{0, 1, 0}
	rootV := ct.MerkleRootValues(leafV, sibVals, dirVals)

	secret := []*big.Int{leafV}
	secret = append(secret, sibVals...)
	for _, d := range dirVals {
		secret = append(secret, big.NewInt(int64(d)))
	}
	w, err := cc.Solve([]*big.Int{rootV}, secret)
	if err != nil {
		t.Fatal(err)
	}
	pk, vk, err := Setup(cc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pk.Preprocess(); err != nil {
		t.Fatal(err)
	}
	proof, _, err := pk.Prove(w, FastestProver())
	if err != nil {
		t.Fatal(err)
	}
	if err := vk.Verify(proof, []*big.Int{rootV}); err != nil {
		t.Fatal(err)
	}
	// Mismatched Merkle shapes rejected.
	if err := ct.MerkleAssert(leaf, sibs, dirs[:1], root); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestWireAlgebraFacade(t *testing.T) {
	ct := NewCircuit(BN254)
	a := ct.Secret("a")
	b := ct.Secret("b")
	// ((a-b)+b)·1 == a, scaled by 3, divided by 3 → a.
	sum := ct.Add(ct.Sub(a, b), b)
	tripled := ct.Scale(sum, big.NewInt(3))
	back := ct.Div(tripled, ct.Constant(big.NewInt(3)))
	ct.AssertEqual(back, a)
	// Select + IsZero + bits.
	z := ct.IsZero(ct.Sub(a, a))
	ct.AssertEqual(z, ct.One())
	bits := ct.ToBits(b, 8)
	ct.AssertBool(bits[0])
	ct.AssertLessEq(b, ct.Constant(big.NewInt(255)), 8)
	picked := ct.Select(z, a, b)
	ct.AssertEqual(picked, a)
	cc, err := ct.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Solve(nil, []*big.Int{big.NewInt(1234), big.NewInt(200)}); err != nil {
		t.Fatal(err)
	}
}

func TestCurveStrings(t *testing.T) {
	if BN254.String() != "ALT-BN128" || BLS12381.String() != "BLS12-381" || MNT4753.String() != "MNT4753-sim" {
		t.Fatal("curve names drifted from the paper's Table 1")
	}
}

func TestProofBytesDiffer(t *testing.T) {
	cc, w := buildCubic(t, BN254)
	pk, _, err := Setup(cc, nil)
	if err != nil {
		t.Fatal(err)
	}
	p1, _, _ := pk.Prove(w, FastestProver())
	p2, _, _ := pk.Prove(w, FastestProver())
	b1, _ := p1.MarshalBinary()
	b2, _ := p2.MarshalBinary()
	if bytes.Equal(b1, b2) {
		t.Fatal("proofs not blinded (identical bytes across runs)")
	}
}

func TestCompileSourceEndToEnd(t *testing.T) {
	cc, pubs, secs, err := CompileSource(BN254, `
		public out
		secret x
		assert x^3 + x + 5 == out
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(pubs) != 1 || pubs[0] != "out" || len(secs) != 1 || secs[0] != "x" {
		t.Fatalf("signature: %v %v", pubs, secs)
	}
	pk, vk, err := Setup(cc, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := cc.Solve([]*big.Int{big.NewInt(35)}, []*big.Int{big.NewInt(3)})
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := pk.Prove(w, FastestProver())
	if err != nil {
		t.Fatal(err)
	}
	if err := vk.Verify(proof, []*big.Int{big.NewInt(35)}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := CompileSource(BN254, "garbage !"); err == nil {
		t.Fatal("invalid source compiled")
	}
}
