package groth16

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/iotest"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
)

// TestProveBuffersReuse: one key proves batches of k = 4, 1, 3 and 1 in
// turn over its prove buffers — other witnesses each time, one-shot and
// kept tables alternately (the kept-table copy shares the key's free
// list) — and every proof is byte-identical to the one a copy of the key
// without a free list makes from the same blinding stream, and verifies.
// A reused buffer holds the last prove's rows, plans and bucket sums, so
// this fails unless every reuse resets them: the rows past the system,
// the digits past a short scalar vector, the sums at infinity.
func TestProveBuffersReuse(t *testing.T) {
	c := curve.Get(curve.BN254)
	f := c.Fr
	sys := cubic(f)
	pk, vk, err := Setup(sys, c, detRand(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProveConfig{NTT: ntt.Config{Strategy: ntt.GZKP}, MSM: msm.Config{Strategy: msm.GZKP, SignedBuckets: true}}
	kept := *pk
	if err := kept.Preprocess(cfg.MSM); err != nil {
		t.Fatal(err)
	}
	x := uint64(2)
	for si, step := range []struct {
		k   int
		key *ProvingKey
	}{{4, pk}, {1, &kept}, {3, pk}, {1, &kept}} {
		xs := make([]uint64, step.k)
		for i := range xs {
			xs[i], x = x, x+3
		}
		wits, publics := cubicWitnesses(t, f, sys, xs)
		got, _, err := ProveBatch(step.key, sys, wits, cfg, detRand(int64(100+si)))
		if err != nil {
			t.Fatal(err)
		}
		fresh := *step.key
		fresh.bufs = nil
		want, _, err := ProveBatch(&fresh, sys, wits, cfg, detRand(int64(100+si)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			g, _ := got[i].MarshalBinary()
			w, _ := want[i].MarshalBinary()
			if !bytes.Equal(g, w) {
				t.Fatalf("step %d (k=%d) proof %d differs from a fresh key's", si, step.k, i)
			}
			if err := Verify(vk, got[i], publics[i]); err != nil {
				t.Fatalf("step %d proof %d: %v", si, i, err)
			}
		}
	}
	if len(pk.bufs) != 1 {
		t.Fatalf("%d buffers kept after sequential proves, want the one sized for k = 4", len(pk.bufs))
	}
}

// TestProveBuffersBounded: three concurrent proves on one key leave at most
// two buffers on its free list, and a prove that fails after taking a
// buffer drops it.
func TestProveBuffersBounded(t *testing.T) {
	c := curve.Get(curve.BN254)
	f := c.Fr
	sys := cubic(f)
	pk, _, err := Setup(sys, c, detRand(6))
	if err != nil {
		t.Fatal(err)
	}
	wits, _ := cubicWitnesses(t, f, sys, []uint64{3})
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := ProveBatch(pk, sys, wits, ProveConfig{}, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	kept := len(pk.bufs)
	if kept < 1 || kept > maxBufs {
		t.Fatalf("%d buffers kept, want 1..%d", kept, maxBufs)
	}
	noEntropy := iotest.ErrReader(errors.New("no entropy"))
	if _, _, err := ProveBatch(pk, sys, [][]ff.Element{wits[0]}, ProveConfig{}, noEntropy); err == nil {
		t.Fatal("prove without entropy succeeded")
	}
	if len(pk.bufs) != kept-1 {
		t.Fatalf("%d buffers after a failed prove, want %d: it must drop the one it took", len(pk.bufs), kept-1)
	}
}
