package groth16

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
)

// Golden proof vectors: sha256 over the concatenated proof.MarshalBinary()
// outputs for a seeded Setup (detRand(1001)), a seeded blinding reader
// (detRand(1002)) and fixed witnesses of a one-round MiMC circuit (x = 7
// solo; x = 7, 11, 13 for k=3). A Groth16 proof is a function of (CRS,
// witness, r, s) only, so every MSM configuration below must reproduce the
// same bytes. The hashes were recorded at the commit before the solo and
// batch provers were merged into one path; they are the bit-identity oracle
// that does not depend on comparing one prover against another.
var goldenProofs = map[string]string{
	"bn254/solo":    "c8fab71d2e8353674f66ea413992c60062f109eafab416e82037dd07c3c227b0",
	"bn254/k=3":     "bd76eea526740d50b9d920ade95ff45ae14c69259bac131272659837f8f86e91",
	"bls12381/solo": "47ecf6ca47c6c37c7308ed7482019189d7731b687076f42f2c543a9df3036302",
	"bls12381/k=3":  "cb6c40c62b6d65968e1feb18317fd6bb808fb4bc7fe8c7eb1a1969848cda05ca",
}

func TestGoldenProofVectors(t *testing.T) {
	for _, cv := range []struct {
		name string
		id   curve.ID
	}{{"bn254", curve.BN254}, {"bls12381", curve.BLS12381}} {
		c := curve.Get(cv.id)
		f := c.Fr
		sys, m := mediumCircuit(f, 1)
		var wits [][]ff.Element
		for _, x := range []uint64{7, 11, 13} {
			xe := f.FromUint64(x)
			w, err := sys.Solve([]ff.Element{m.Hash2(xe, f.FromUint64(0))}, []ff.Element{xe})
			if err != nil {
				t.Fatal(err)
			}
			wits = append(wits, w)
		}
		for _, tables := range []bool{false, true} {
			for _, signed := range []bool{false, true} {
				// A fresh key per configuration: Preprocess installs tables
				// on the key, and "without tables" must mean none.
				pk, _, err := Setup(sys, c, detRand(1001))
				if err != nil {
					t.Fatal(err)
				}
				cfg := ProveConfig{
					NTT: ntt.Config{Strategy: ntt.GZKP},
					MSM: msm.Config{Strategy: msm.GZKP, SignedBuckets: signed},
				}
				if tables {
					if err := pk.Preprocess(cfg.MSM); err != nil {
						t.Fatal(err)
					}
				}
				label := fmt.Sprintf("%s tables=%v signed=%v", cv.name, tables, signed)

				solo, _, err := Prove(pk, sys, wits[0], cfg, detRand(1002))
				if err != nil {
					t.Fatalf("%s solo: %v", label, err)
				}
				if got := proofsDigest(t, solo); got != goldenProofs[cv.name+"/solo"] {
					t.Errorf("%s solo: digest %s, want %s", label, got, goldenProofs[cv.name+"/solo"])
				}
				batch, _, err := ProveBatch(pk, sys, wits, cfg, detRand(1002))
				if err != nil {
					t.Fatalf("%s k=3: %v", label, err)
				}
				if got := proofsDigest(t, batch...); got != goldenProofs[cv.name+"/k=3"] {
					t.Errorf("%s k=3: digest %s, want %s", label, got, goldenProofs[cv.name+"/k=3"])
				}
			}
		}
	}
}

func proofsDigest(t *testing.T, proofs ...*Proof) string {
	t.Helper()
	h := sha256.New()
	for _, p := range proofs {
		b, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
