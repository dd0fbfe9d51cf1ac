package groth16

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/ntt"
	"gzkp/internal/tower"
)

// Wire format (all big-endian): a one-byte curve id, then each point as a
// one-byte infinity flag followed by its coordinates in canonical
// big-endian field encoding (G2 coordinates serialize both Fq2 limbs).
// Deserialization validates field ranges and on-curve membership, so a
// tampered or truncated proof is rejected before any pairing runs.

func writePoint(buf *bytes.Buffer, g *curve.Group, p curve.Affine) {
	if p.Inf {
		buf.WriteByte(1)
		return
	}
	buf.WriteByte(0)
	buf.Write(coordBytes(g, p.X))
	buf.Write(coordBytes(g, p.Y))
}

func coordBytes(g *curve.Group, v []uint64) []byte {
	switch k := g.K.(type) {
	case *tower.Prime:
		return k.F.Bytes(v)
	case *tower.Ext:
		f := k.Base().(*tower.Prime).F
		out := f.Bytes(k.Coeff(v, 0))
		return append(out, f.Bytes(k.Coeff(v, 1))...)
	default:
		panic("groth16: unsupported coordinate field")
	}
}

func readPoint(r *bytes.Reader, g *curve.Group) (curve.Affine, error) {
	flag, err := r.ReadByte()
	if err != nil {
		return curve.Affine{}, fmt.Errorf("groth16: truncated point: %w", err)
	}
	if flag == 1 {
		return g.Infinity(), nil
	}
	if flag != 0 {
		return curve.Affine{}, fmt.Errorf("groth16: bad point flag %d", flag)
	}
	x, err := readCoord(r, g)
	if err != nil {
		return curve.Affine{}, err
	}
	y, err := readCoord(r, g)
	if err != nil {
		return curve.Affine{}, err
	}
	p := curve.Affine{X: x, Y: y}
	if !g.IsOnCurve(p) {
		return curve.Affine{}, fmt.Errorf("groth16: deserialized point not on %s", g.Name)
	}
	return p, nil
}

func readCoord(r *bytes.Reader, g *curve.Group) ([]uint64, error) {
	readFq := func(f *ff.Field) ([]uint64, error) {
		b := make([]byte, f.ByteLen())
		if n, err := io.ReadFull(r, b); err != nil || n != len(b) {
			return nil, fmt.Errorf("groth16: truncated coordinate")
		}
		v, err := f.SetBytes(b)
		if err != nil {
			return nil, err
		}
		return v, nil
	}
	switch k := g.K.(type) {
	case *tower.Prime:
		return readFq(k.F)
	case *tower.Ext:
		f := k.Base().(*tower.Prime).F
		c0, err := readFq(f)
		if err != nil {
			return nil, err
		}
		c1, err := readFq(f)
		if err != nil {
			return nil, err
		}
		z := k.Zero()
		k.SetCoeff(z, 0, c0)
		k.SetCoeff(z, 1, c1)
		return z, nil
	default:
		panic("groth16: unsupported coordinate field")
	}
}

// MarshalBinary serializes the proof.
func (p *Proof) MarshalBinary() ([]byte, error) {
	c := curve.Get(p.CurveID)
	var buf bytes.Buffer
	buf.WriteByte(byte(p.CurveID))
	writePoint(&buf, c.G1, p.A)
	writePoint(&buf, c.G2, p.B)
	writePoint(&buf, c.G1, p.C)
	return buf.Bytes(), nil
}

// UnmarshalBinary parses and validates a proof.
func (p *Proof) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	idb, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("groth16: empty proof")
	}
	id := curve.ID(idb)
	if id != curve.BN254 && id != curve.BLS12381 {
		return fmt.Errorf("groth16: unsupported proof curve id %d", idb)
	}
	c := curve.Get(id)
	a, err := readPoint(r, c.G1)
	if err != nil {
		return err
	}
	b, err := readPoint(r, c.G2)
	if err != nil {
		return err
	}
	cc, err := readPoint(r, c.G1)
	if err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("groth16: %d trailing bytes after proof", r.Len())
	}
	p.CurveID, p.A, p.B, p.C = id, a, b, cc
	return nil
}

// MarshalBinary serializes the verifying key.
func (vk *VerifyingKey) MarshalBinary() ([]byte, error) {
	c := curve.Get(vk.CurveID)
	var buf bytes.Buffer
	buf.WriteByte(byte(vk.CurveID))
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(vk.IC)))
	buf.Write(n[:])
	writePoint(&buf, c.G1, vk.Alpha1)
	writePoint(&buf, c.G2, vk.Beta2)
	writePoint(&buf, c.G2, vk.Gamma2)
	writePoint(&buf, c.G2, vk.Delta2)
	for _, p := range vk.IC {
		writePoint(&buf, c.G1, p)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary parses and validates a verifying key.
func (vk *VerifyingKey) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	idb, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("groth16: empty key")
	}
	id := curve.ID(idb)
	if id != curve.BN254 && id != curve.BLS12381 {
		return fmt.Errorf("groth16: unsupported key curve id %d", idb)
	}
	c := curve.Get(id)
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return fmt.Errorf("groth16: truncated key")
	}
	icLen := binary.BigEndian.Uint32(n[:])
	// An IC point takes at least its one-byte flag.
	if icLen == 0 || icLen > 1<<24 || int(icLen) > r.Len() {
		return fmt.Errorf("groth16: implausible IC length %d", icLen)
	}
	out := &VerifyingKey{CurveID: id}
	if out.Alpha1, err = readPoint(r, c.G1); err != nil {
		return err
	}
	if out.Beta2, err = readPoint(r, c.G2); err != nil {
		return err
	}
	if out.Gamma2, err = readPoint(r, c.G2); err != nil {
		return err
	}
	if out.Delta2, err = readPoint(r, c.G2); err != nil {
		return err
	}
	out.IC = make([]curve.Affine, icLen)
	for i := range out.IC {
		if out.IC[i], err = readPoint(r, c.G1); err != nil {
			return err
		}
	}
	if r.Len() != 0 {
		return fmt.Errorf("groth16: %d trailing bytes after key", r.Len())
	}
	// A fresh value: the prepared form of a key decoded over is dropped.
	*vk = VerifyingKey{CurveID: out.CurveID, Alpha1: out.Alpha1, Beta2: out.Beta2, Gamma2: out.Gamma2, Delta2: out.Delta2, IC: out.IC}
	return nil
}

// MarshalBinary serializes the proving key (large: dominated by the
// per-wire query points). Cached GZKP tables are not serialized; rebuild
// them with Preprocess after loading.
func (pk *ProvingKey) MarshalBinary() ([]byte, error) {
	c := curve.Get(pk.CurveID)
	var buf bytes.Buffer
	buf.WriteByte(byte(pk.CurveID))
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(pk.DomainN))
	buf.Write(n[:])
	writeSlice := func(g *curve.Group, pts []curve.Affine) {
		binary.BigEndian.PutUint32(n[:], uint32(len(pts)))
		buf.Write(n[:])
		for _, p := range pts {
			writePoint(&buf, g, p)
		}
	}
	writeSlice(c.G1, pk.A)
	writeSlice(c.G1, pk.B1)
	writeSlice(c.G2, pk.B2)
	writeSlice(c.G1, pk.K)
	writeSlice(c.G1, pk.H)
	writePoint(&buf, c.G1, pk.Alpha1)
	writePoint(&buf, c.G1, pk.Beta1)
	writePoint(&buf, c.G1, pk.Delta1)
	writePoint(&buf, c.G2, pk.Beta2)
	writePoint(&buf, c.G2, pk.Delta2)
	return buf.Bytes(), nil
}

// UnmarshalBinary parses and validates a proving key.
func (pk *ProvingKey) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	idb, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("groth16: empty proving key")
	}
	id := curve.ID(idb)
	if id != curve.BN254 && id != curve.BLS12381 {
		return fmt.Errorf("groth16: unsupported key curve id %d", idb)
	}
	c := curve.Get(id)
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return fmt.Errorf("groth16: truncated proving key")
	}
	domainN := int(binary.BigEndian.Uint32(n[:]))
	if domainN < 2 || domainN > 1<<30 || domainN&(domainN-1) != 0 {
		return fmt.Errorf("groth16: implausible domain size %d", domainN)
	}
	readSlice := func(g *curve.Group) ([]curve.Affine, error) {
		if _, err := io.ReadFull(r, n[:]); err != nil {
			return nil, fmt.Errorf("groth16: truncated proving key")
		}
		cnt := binary.BigEndian.Uint32(n[:])
		// A point takes at least its one-byte flag, so the bytes left bound
		// the count before anything is allocated.
		if cnt > 1<<28 || int(cnt) > r.Len() {
			return nil, fmt.Errorf("groth16: implausible query length %d", cnt)
		}
		pts := make([]curve.Affine, cnt)
		for i := range pts {
			var err error
			if pts[i], err = readPoint(r, g); err != nil {
				return nil, err
			}
		}
		return pts, nil
	}
	out := &ProvingKey{CurveID: id, DomainN: domainN, bufs: make(chan *proveBuf, maxBufs)}
	if out.A, err = readSlice(c.G1); err != nil {
		return err
	}
	if out.B1, err = readSlice(c.G1); err != nil {
		return err
	}
	if out.B2, err = readSlice(c.G2); err != nil {
		return err
	}
	if out.K, err = readSlice(c.G1); err != nil {
		return err
	}
	if out.H, err = readSlice(c.G1); err != nil {
		return err
	}
	if out.Alpha1, err = readPoint(r, c.G1); err != nil {
		return err
	}
	if out.Beta1, err = readPoint(r, c.G1); err != nil {
		return err
	}
	if out.Delta1, err = readPoint(r, c.G1); err != nil {
		return err
	}
	if out.Beta2, err = readPoint(r, c.G2); err != nil {
		return err
	}
	if out.Delta2, err = readPoint(r, c.G2); err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("groth16: %d trailing bytes after proving key", r.Len())
	}
	// The H query holds DomainN−1 points, so the domain built here is
	// backed by the payload's own size.
	if len(out.H) != domainN-1 {
		return fmt.Errorf("groth16: H query has %d points for domain %d", len(out.H), domainN)
	}
	if out.dom, err = ntt.NewDomain(c.Fr, domainN); err != nil {
		return err
	}
	*pk = *out
	return nil
}
