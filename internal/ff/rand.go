package ff

import (
	"crypto/rand"
	"io"
	"math/big"
	mrand "math/rand"
)

// Rand returns a uniformly random element drawn from rng (deterministic
// generators make workloads reproducible; see internal/workload).
func (f *Field) Rand(rng *mrand.Rand) Element {
	v := new(big.Int).Rand(rng, f.pBig)
	return f.FromBig(v)
}

// RandReader returns a uniformly random element from a cryptographic source
// (crypto/rand by default when r is nil). Used for trusted-setup sampling.
func (f *Field) RandReader(r io.Reader) (Element, error) {
	z := f.New()
	return z, f.RandTo(z, r, make([]byte, f.ByteLen()))
}

// RandTo sets z to the element crypto/rand.Int(r, p) draws (r nil: crypto/rand),
// from the same bytes, in limbs, with buf (≥ ByteLen() bytes) to read into.
func (f *Field) RandTo(z Element, r io.Reader, buf []byte) error {
	if r == nil {
		r = rand.Reader
	}
	b := buf[:(f.bits+7)/8] // p−1 has p's bit length, as p is odd
	for {
		if _, err := io.ReadFull(r, b); err != nil {
			return err
		}
		b[0] &= uint8(1<<((f.bits-1)%8+1) - 1) // the bits p−1's top byte has
		clear(z)
		for i, by := range b {
			j := len(b) - 1 - i
			z[j/8] |= uint64(by) << (8 * (j % 8))
		}
		if f.ltP(z) {
			f.Mul(z, z, f.r2) // into Montgomery form
			return nil
		}
	}
}
