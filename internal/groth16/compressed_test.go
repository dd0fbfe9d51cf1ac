package groth16

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/tower"
)

// wireFixture proves the cubic circuit once per curve, giving the tests a
// real proof + verifying key to push through both wire formats.
func wireFixture(t *testing.T, id curve.ID) (*Proof, *VerifyingKey, []ff.Element) {
	t.Helper()
	c := curve.Get(id)
	f := c.Fr
	sys := cubic(f)
	pk, vk, err := Setup(sys, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sys.Solve([]ff.Element{f.FromUint64(35)}, []ff.Element{f.FromUint64(3)})
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := Prove(pk, sys, w, ProveConfig{
		NTT: ntt.Config{Strategy: ntt.Serial},
		MSM: msm.Config{Strategy: msm.PippengerWindows, Workers: 1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return proof, vk, []ff.Element{f.FromUint64(35)}
}

// TestCompressedRoundTripBothCurves is the differential encode→decode→
// encode check of the wire formats: on BN254 and BLS12-381, both the proof
// and the verifying key must survive a compressed round trip bit-
// identically, the decoded artifacts must still verify, and the compressed
// form must actually be smaller than the uncompressed one.
func TestCompressedRoundTripBothCurves(t *testing.T) {
	for _, id := range []curve.ID{curve.BN254, curve.BLS12381} {
		t.Run(curve.Get(id).Name, func(t *testing.T) {
			proof, vk, pub := wireFixture(t, id)

			pb, err := proof.MarshalCompressed()
			if err != nil {
				t.Fatal(err)
			}
			var p2 Proof
			if err := p2.UnmarshalCompressed(pb); err != nil {
				t.Fatal(err)
			}
			pb2, err := p2.MarshalCompressed()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pb, pb2) {
				t.Fatal("proof compressed encoding not canonical: enc→dec→enc differs")
			}
			if err := Verify(vk, &p2, pub); err != nil {
				t.Fatalf("decompressed proof rejected: %v", err)
			}
			upb, _ := proof.MarshalBinary()
			if len(pb) >= len(upb) {
				t.Fatalf("compressed proof %dB not smaller than uncompressed %dB", len(pb), len(upb))
			}

			kb, err := vk.MarshalCompressed()
			if err != nil {
				t.Fatal(err)
			}
			var vk2 VerifyingKey
			if err := vk2.UnmarshalCompressed(kb); err != nil {
				t.Fatal(err)
			}
			kb2, err := vk2.MarshalCompressed()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(kb, kb2) {
				t.Fatal("vk compressed encoding not canonical: enc→dec→enc differs")
			}
			if err := Verify(&vk2, proof, pub); err != nil {
				t.Fatalf("proof rejected under decompressed vk: %v", err)
			}

			// The auto-detecting loaders must accept both formats.
			if _, err := UnmarshalProofAuto(pb); err != nil {
				t.Fatalf("auto loader rejected compressed proof: %v", err)
			}
			if _, err := UnmarshalProofAuto(upb); err != nil {
				t.Fatalf("auto loader rejected uncompressed proof: %v", err)
			}
			ukb, _ := vk.MarshalBinary()
			if _, err := UnmarshalVerifyingKeyAuto(kb); err != nil {
				t.Fatalf("auto loader rejected compressed vk: %v", err)
			}
			if _, err := UnmarshalVerifyingKeyAuto(ukb); err != nil {
				t.Fatalf("auto loader rejected uncompressed vk: %v", err)
			}
		})
	}
}

// TestCompressedIdentityPoints pins the infinity edge case: a proof whose
// points are all the identity round trips both wire formats bit-
// identically (such a proof never verifies, but serialization must not be
// the layer that rejects it).
func TestCompressedIdentityPoints(t *testing.T) {
	for _, id := range []curve.ID{curve.BN254, curve.BLS12381} {
		c := curve.Get(id)
		p := &Proof{CurveID: id, A: c.G1.Infinity(), B: c.G2.Infinity(), C: c.G1.Infinity()}
		b1, err := p.MarshalCompressed()
		if err != nil {
			t.Fatal(err)
		}
		var p2 Proof
		if err := p2.UnmarshalCompressed(b1); err != nil {
			t.Fatalf("%s: identity proof rejected: %v", c.Name, err)
		}
		b2, _ := p2.MarshalCompressed()
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: identity encoding not canonical", c.Name)
		}
		if !p2.A.Inf || !p2.B.Inf || !p2.C.Inf {
			t.Fatalf("%s: identity flags lost in round trip", c.Name)
		}
	}
}

// TestCompressedParityHeaderSelectsSign flips the parity header of a
// compressed G2 point and checks the decoder returns the negated point —
// i.e. the y-sign really is carried by the header, and re-encoding the
// negation reproduces the flipped header exactly.
func TestCompressedParityHeaderSelectsSign(t *testing.T) {
	for _, id := range []curve.ID{curve.BN254, curve.BLS12381} {
		c := curve.Get(id)
		for _, g := range []*curve.Group{c.G1, c.G2} {
			p := g.Generator()
			enc := g.Compress(p)
			if enc[0] != 2 && enc[0] != 3 {
				t.Fatalf("%s/%s: unexpected header %d", c.Name, g.Name, enc[0])
			}
			flipped := append([]byte(nil), enc...)
			flipped[0] ^= 1 // 2 <-> 3
			q, err := g.Decompress(flipped)
			if err != nil {
				t.Fatalf("%s/%s: flipped header rejected: %v", c.Name, g.Name, err)
			}
			neg := g.NegAffine(p)
			if !g.EqualAffine(q, neg) {
				t.Fatalf("%s/%s: flipped parity header did not negate the point", c.Name, g.Name)
			}
			re := g.Compress(q)
			if !bytes.Equal(re, flipped) {
				t.Fatalf("%s/%s: recompressed negation differs from flipped encoding", c.Name, g.Name)
			}
		}
	}
}

// TestCompressedYParityTieBreak exercises the y-sign tie: when the c0 limb
// of an Fq2 y-coordinate is zero, negation leaves c0 untouched and the
// parity must come from c1. No point with y.c0 = 0 lies on our G2 curves,
// so the tie path is pinned directly at the encoding layer with a
// synthetic coordinate: the headers of y and -y must still differ.
func TestCompressedYParityTieBreak(t *testing.T) {
	c := curve.Get(curve.BLS12381)
	g := c.G2
	k, ok := g.K.(*tower.Ext)
	if !ok {
		t.Fatal("G2 coordinate field is not an extension")
	}
	f := k.Base().(*tower.Prime).F

	y := k.Zero()
	k.SetCoeff(y, 0, f.FromUint64(0))
	k.SetCoeff(y, 1, f.FromUint64(7)) // odd c1, zero c0: the tie case
	yNeg := k.Neg(k.Zero(), y)

	p := curve.Affine{X: k.One(), Y: y}
	pNeg := curve.Affine{X: k.One(), Y: yNeg}
	hy := g.Compress(p)[0]
	hn := g.Compress(pNeg)[0]
	if hy == hn {
		t.Fatalf("tie-break failed: y and -y compress to the same header %d", hy)
	}
	if hy != 3 {
		t.Fatalf("odd c1 with zero c0 should read parity from c1 (header 3), got %d", hy)
	}
}

// TestCompressedRejectsCorruption feeds malformed compressed encodings to
// the decoders: bad headers, nonzero infinity payloads, off-curve x, and
// truncation must all fail cleanly.
func TestCompressedRejectsCorruption(t *testing.T) {
	proof, vk, _ := wireFixture(t, curve.BN254)
	pb, _ := proof.MarshalCompressed()
	kb, _ := vk.MarshalCompressed()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated", pb[:len(pb)/2]},
		{"bad curve id", append([]byte{200}, pb[1:]...)},
		{"bad header", func() []byte {
			b := append([]byte(nil), pb...)
			b[1] = 7 // first point's compression header
			return b
		}()},
		{"trailing bytes", append(append([]byte(nil), pb...), 0)},
		{"nonzero infinity payload", func() []byte {
			b := append([]byte(nil), pb...)
			b[1] = 0 // claim infinity but leave the x payload nonzero
			return b
		}()},
	}
	for _, tc := range cases {
		var p Proof
		if err := p.UnmarshalCompressed(tc.data); err == nil {
			t.Errorf("proof decoder accepted %s", tc.name)
		}
	}
	var v VerifyingKey
	if err := v.UnmarshalCompressed(kb[:len(kb)-3]); err == nil {
		t.Error("vk decoder accepted truncated key")
	}
}

// FuzzCompressedProofWire holds the canonicality invariant of both proof
// decoders under arbitrary input: any byte string UnmarshalCompressed or
// UnmarshalBinary accepts must re-encode bit-identically in the format that
// accepted it, and neither decoder may panic.
func FuzzCompressedProofWire(f *testing.F) {
	formats := []struct {
		name   string
		encode func(*Proof) ([]byte, error)
		decode func(*Proof, []byte) error
	}{
		{"compressed", (*Proof).MarshalCompressed, (*Proof).UnmarshalCompressed},
		{"binary", (*Proof).MarshalBinary, (*Proof).UnmarshalBinary},
	}
	for _, id := range []curve.ID{curve.BN254, curve.BLS12381} {
		c := curve.Get(id)
		gen := &Proof{CurveID: id, A: c.G1.Generator(), B: c.G2.Generator(), C: c.G1.Generator()}
		inf := &Proof{CurveID: id, A: c.G1.Infinity(), B: c.G2.Infinity(), C: c.G1.Infinity()}
		mixed := &Proof{CurveID: id, A: c.G1.Generator(), B: c.G2.Infinity(), C: c.G1.Generator()}
		for _, format := range formats {
			for _, p := range []*Proof{gen, inf, mixed} {
				b, _ := format.encode(p)
				f.Add(b)
			}
		}
	}
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range formats {
			var p Proof
			if err := format.decode(&p, data); err != nil {
				continue
			}
			re, err := format.encode(&p)
			if err != nil {
				t.Fatalf("%s: decoded proof failed to re-encode: %v", format.name, err)
			}
			if !bytes.Equal(data, re) {
				t.Fatalf("%s: accepted non-canonical encoding:\n in: %x\nout: %x", format.name, data, re)
			}
		}
	})
}

// TestDecodeResetsPreparedKey: decoding a second key's bytes, in either
// format, into a key that has already verified under the first drops the
// first key's prepared form, so the second key's proof verifies.
func TestDecodeResetsPreparedKey(t *testing.T) {
	proof1, vk1, pub := wireFixture(t, curve.BN254)
	proof2, vk2, _ := wireFixture(t, curve.BN254)
	for _, format := range []struct {
		name   string
		encode func(*VerifyingKey) ([]byte, error)
		decode func(*VerifyingKey, []byte) error
	}{
		{"binary", (*VerifyingKey).MarshalBinary, (*VerifyingKey).UnmarshalBinary},
		{"compressed", (*VerifyingKey).MarshalCompressed, (*VerifyingKey).UnmarshalCompressed},
	} {
		b1, _ := format.encode(vk1)
		b2, _ := format.encode(vk2)
		var vk VerifyingKey
		if err := format.decode(&vk, b1); err != nil {
			t.Fatal(err)
		}
		if err := Verify(&vk, proof1, pub); err != nil {
			t.Fatalf("%s: key 1 rejects its proof: %v", format.name, err)
		}
		if err := format.decode(&vk, b2); err != nil {
			t.Fatal(err)
		}
		if err := Verify(&vk, proof2, pub); err != nil {
			t.Fatalf("%s: key 2 decoded over a used key rejects its proof: %v", format.name, err)
		}
		if err := Verify(&vk, proof1, pub); err == nil {
			t.Fatalf("%s: key 2 accepts key 1's proof", format.name)
		}
	}
}

// FuzzVerifyingKeyWire: UnmarshalVerifyingKeyAuto never panics, and bytes
// it accepts re-encode identically in the format that accepted them.
func FuzzVerifyingKeyWire(f *testing.F) {
	for _, id := range []curve.ID{curve.BN254, curve.BLS12381} {
		c := curve.Get(id)
		vk := &VerifyingKey{CurveID: id, Alpha1: c.G1.Generator(), Beta2: c.G2.Generator(),
			Gamma2: c.G2.Infinity(), Delta2: c.G2.Generator(), IC: []curve.Affine{c.G1.Generator(), c.G1.Infinity()}}
		for _, enc := range []func() ([]byte, error){vk.MarshalBinary, vk.MarshalCompressed} {
			b, _ := enc()
			f.Add(b)
			for _, icLen := range []uint32{0, 1, 3, 1<<24 + 1, 1<<32 - 1} { // IC length edge cases
				e := bytes.Clone(b)
				binary.BigEndian.PutUint32(e[1:5], icLen)
				f.Add(e)
			}
			f.Add(b[:5])
		}
	}
	f.Add([]byte{byte(curve.BN254), 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		vk, err := UnmarshalVerifyingKeyAuto(data)
		if err != nil {
			return
		}
		var c VerifyingKey
		enc := vk.MarshalBinary
		if c.UnmarshalCompressed(data) == nil {
			enc = vk.MarshalCompressed
		}
		re, err := enc()
		if err != nil {
			t.Fatalf("decoded key failed to re-encode: %v", err)
		}
		if !bytes.Equal(data, re) {
			t.Fatalf("accepted non-canonical encoding:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzProvingKeyWire: ProvingKey.UnmarshalBinary never panics, bytes it
// accepts re-encode identically, and it allocates at most pkAllocPerByte ×
// the input plus pkAllocConst, the δ assembly tables it builds for any key.
// The seeds are small keys on both curves, their truncations, and domain and
// query-count claims up to 2^30 that the bytes cannot back.
func FuzzProvingKeyWire(f *testing.F) {
	// Measured: a 1-byte ∞ query point costs ≈ 110 B (its Affine and, for
	// H, two NTT-domain twiddles); building the δ tables, ≈ 1 MB kept,
	// allocates 3.2 MB on BN254 and 4.2 MB on BLS12-381 with their
	// Jacobian and batch-normalization buffers.
	const (
		pkAllocPerByte = 256
		pkAllocConst   = 8 << 20
	)
	for _, id := range []curve.ID{curve.BN254, curve.BLS12381} {
		c := curve.Get(id)
		pk, _, err := Setup(cubic(c.Fr), c, detRand(1))
		if err != nil {
			f.Fatal(err)
		}
		b, _ := pk.MarshalBinary()
		f.Add(b)
		for _, cut := range []int{1, 5, 9, len(b) / 2, len(b) - 1} {
			f.Add(b[:cut])
		}
		for _, claim := range []uint32{0, 3, 1 << 20, 1 << 30, 1<<32 - 1} {
			dom := bytes.Clone(b) // domain size
			binary.BigEndian.PutUint32(dom[1:5], claim)
			f.Add(dom)
			cnt := bytes.Clone(b) // |A|
			binary.BigEndian.PutUint32(cnt[5:9], claim)
			f.Add(cnt)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var pk ProvingKey
		err := pk.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(pkAllocPerByte*len(data)+pkAllocConst); got > limit {
			t.Fatalf("decoder allocated %d B for %d input bytes (limit %d)", got, len(data), limit)
		}
		if err != nil {
			return
		}
		re, err := pk.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded key failed to re-encode: %v", err)
		}
		if !bytes.Equal(data, re) {
			t.Fatalf("accepted non-canonical encoding:\n in: %x\nout: %x", data, re)
		}
	})
}
