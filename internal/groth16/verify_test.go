package groth16

import (
	"sync"
	"testing"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/pairing"
)

// unpreparedVerify is Verify as it was before keys carried a prepared
// form: one four-pair product check straight from the key's points.
func unpreparedVerify(t *testing.T, vk *VerifyingKey, proof *Proof, public []ff.Element) bool {
	t.Helper()
	c := curve.Get(vk.CurveID)
	ops1 := c.G1.NewOps()
	var acc curve.Jacobian
	ops1.FromAffine(&acc, vk.IC[0])
	for i, p := range public {
		ops1.AddAssign(&acc, ops1.ScalarMulElement(vk.IC[i+1], p))
	}
	eng, err := pairing.New(c)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := eng.PairingCheck(
		[]curve.Affine{proof.A, c.G1.NegAffine(vk.Alpha1), c.G1.NegAffine(ops1.ToAffine(&acc)), c.G1.NegAffine(proof.C)},
		[]curve.Affine{proof.B, vk.Beta2, vk.Gamma2, vk.Delta2})
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// TestPreparedVerifyMatchesUnprepared runs the valid proof and every
// negative control through Verify, BatchVerify (alone and next to a good
// proof) and the unprepared four-pairing check, on both curves: all must
// agree, and only the untouched proof may pass.
func TestPreparedVerifyMatchesUnprepared(t *testing.T) {
	for _, id := range []curve.ID{curve.BN254, curve.BLS12381} {
		c := curve.Get(id)
		t.Run(c.Name, func(t *testing.T) {
			proof, vk, public := wireFixture(t, id)
			ops1, ops2 := c.G1.NewOps(), c.G2.NewOps()
			double1 := func(p curve.Affine) curve.Affine {
				var j curve.Jacobian
				ops1.FromAffine(&j, p)
				ops1.DoubleAssign(&j)
				return ops1.ToAffine(&j)
			}
			double2 := func(p curve.Affine) curve.Affine {
				var j curve.Jacobian
				ops2.FromAffine(&j, p)
				ops2.DoubleAssign(&j)
				return ops2.ToAffine(&j)
			}
			other := curve.BN254
			if id == curve.BN254 {
				other = curve.BLS12381
			}
			for _, tc := range []struct {
				name   string
				mutate func(p *Proof)
				public []ff.Element
				valid  bool
				// otherCurve: the unprepared check cannot even be evaluated
				// (the proof claims points of another curve).
				otherCurve bool
			}{
				{"valid", func(*Proof) {}, public, true, false},
				{"tampered A", func(p *Proof) { p.A = double1(p.A) }, public, false, false},
				{"tampered B", func(p *Proof) { p.B = double2(p.B) }, public, false, false},
				{"tampered C", func(p *Proof) { p.C = c.G1.NegAffine(p.C) }, public, false, false},
				{"wrong public input", func(*Proof) {}, []ff.Element{c.Fr.FromUint64(36)}, false, false},
				{"wrong curve", func(p *Proof) { p.CurveID = other }, public, false, true},
			} {
				p := *proof
				tc.mutate(&p)
				if got := Verify(vk, &p, tc.public) == nil; got != tc.valid {
					t.Errorf("%s: Verify accepted=%v, want %v", tc.name, got, tc.valid)
				}
				if got := BatchVerify(vk, []*Proof{&p}, [][]ff.Element{tc.public}) == nil; got != tc.valid {
					t.Errorf("%s: BatchVerify accepted=%v, want %v", tc.name, got, tc.valid)
				}
				if got := BatchVerify(vk, []*Proof{proof, &p}, [][]ff.Element{public, tc.public}) == nil; got != tc.valid {
					t.Errorf("%s: BatchVerify next to a good proof accepted=%v, want %v", tc.name, got, tc.valid)
				}
				if !tc.otherCurve {
					if got := unpreparedVerify(t, vk, &p, tc.public); got != tc.valid {
						t.Errorf("%s: unprepared check accepted=%v, want %v", tc.name, got, tc.valid)
					}
				}
			}
		})
	}
}

// TestSharedKeyConcurrentVerify: eight goroutines verify singly and in
// batches against one *VerifyingKey fresh from the wire, so all of them
// race to the first use. The prepared form must be built exactly once and
// never written afterwards (run with -race).
func TestSharedKeyConcurrentVerify(t *testing.T) {
	proof, orig, public := wireFixture(t, curve.BN254)
	blob, err := orig.MarshalCompressed()
	if err != nil {
		t.Fatal(err)
	}
	vk, err := UnmarshalVerifyingKeyAuto(blob)
	if err != nil {
		t.Fatal(err)
	}
	if vk.prep.key != nil {
		t.Fatal("a key fresh from the wire is already prepared")
	}
	bad := *proof
	bad.C = curve.Get(curve.BN254).G1.NegAffine(bad.C)

	const workers = 8
	seen := make([]*preparedKey, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 3; i++ {
				if err := Verify(vk, proof, public); err != nil {
					t.Errorf("worker %d: valid proof rejected: %v", g, err)
				}
				if err := BatchVerify(vk, []*Proof{proof, proof}, [][]ff.Element{public, public}); err != nil {
					t.Errorf("worker %d: valid batch rejected: %v", g, err)
				}
				if Verify(vk, &bad, public) == nil || BatchVerify(vk, []*Proof{proof, &bad}, [][]ff.Element{public, public}) == nil {
					t.Errorf("worker %d: tampered proof accepted", g)
				}
			}
			seen[g], _ = vk.prepared()
		}(g)
	}
	close(start)
	wg.Wait()
	for g, k := range seen {
		if k == nil || k != seen[0] {
			t.Fatalf("worker %d saw prepared key %p, worker 0 saw %p", g, k, seen[0])
		}
	}
}
