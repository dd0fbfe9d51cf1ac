package r1cs

import (
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
)

// referenceSolve interprets s's hint program the naive way — a fresh
// element per value, EvalLC for every operand, big.Int bits — as the
// closure-per-wire solver did: the oracle for the in-place Solve.
func referenceSolve(s *System, public, secret []ff.Element) ([]ff.Element, error) {
	f := s.F
	w := make([]ff.Element, s.NumVars)
	w[0] = f.One()
	for i, v := range public {
		w[1+i] = f.Copy(v)
	}
	for i, v := range secret {
		w[1+s.NumPublic+i] = f.Copy(v)
	}
	for _, o := range s.ops {
		x := EvalLC(f, o.x, w)
		switch o.code {
		case opMul:
			w[o.out] = f.Mul(f.New(), x, EvalLC(f, o.y, w))
		case opInv:
			if f.IsZero(x) {
				return nil, fmt.Errorf("r1cs: inverse of zero wire")
			}
			w[o.out] = f.Inverse(x)
		case opIsZero:
			w[o.out] = f.Inverse(x)
			w[o.out+1] = f.Zero()
			if f.IsZero(x) {
				w[o.out+1] = f.One()
			}
		case opBits:
			v := f.ToBig(x)
			for i := range o.n {
				w[int(o.out)+i] = f.FromUint64(uint64(v.Bit(i)))
			}
		}
	}
	for i := range w {
		if w[i] == nil {
			return nil, fmt.Errorf("r1cs: wire %d left unassigned", i)
		}
	}
	return w, nil
}

// fuzzProgram decodes data into a circuit built from the gadgets and the
// inputs to solve it with: a field, 0–2 public and 1–4 secret inputs drawn
// from a menu of edge values, then one gadget per byte pair over a pool of
// earlier values.
func fuzzProgram(data []byte) (*System, []ff.Element, []ff.Element) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	f := []*ff.Field{curve.Get(curve.BN254).Fr, curve.Get(curve.BLS12381).Fr, curve.Get(curve.MNT4753Sim).Fr}[next()%3]
	rng := mrand.New(mrand.NewSource(int64(next())))
	value := func() ff.Element {
		switch c := next(); c % 6 {
		case 0:
			return f.Zero()
		case 1:
			return f.FromInt64(-int64(c / 6)) // 0, -1, -2, ...
		case 2:
			return f.FromUint64(uint64(c) << (c % 64)) // small and one-hot-ish
		case 3:
			return f.FromBig(new(big.Int).Lsh(big.NewInt(1), uint(c)))
		default:
			return f.Rand(rng)
		}
	}
	b := NewBuilder(f)
	var pool []LC
	var public, secret []ff.Element
	for range next() % 3 {
		p, _ := b.Public("p")
		pool, public = append(pool, p), append(public, value())
	}
	for range 1 + next()%4 {
		pool, secret = append(pool, b.Secret("s")), append(secret, value())
	}
	pick := func() LC { return pool[next()%len(pool)] }
	widths := []int{1, 4, 8, 16, 63, 64, 65, 128, 253, 254, 300}
	mimc := 0
	for len(data) >= 2 {
		switch next() % 10 {
		case 0:
			pool = append(pool, b.Mul(pick(), pick()))
		case 1:
			pool = append(pool, b.Div(pick(), pick()))
		case 2:
			pool = append(pool, b.Inverse(pick()))
		case 3:
			pool = append(pool, b.IsZero(pick()))
		case 4:
			pool = append(pool, b.Select(pick(), pick(), pick()))
		case 5:
			bits := b.ToBits(pick(), widths[next()%len(widths)])
			pool = append(pool, bits[len(bits)-1], b.FromBits(bits[:min(len(bits), 8)]))
		case 6:
			b.AssertLessEq(pick(), pick(), widths[next()%len(widths)])
		case 7:
			if mimc++; mimc <= 1 {
				pool = append(pool, NewMiMC(f).Hash2Gadget(b, pick(), pick()))
			}
		case 8:
			pool = append(pool, b.Sub(b.Add(pick(), pick()), b.Scale(pick(), value())))
		case 9:
			pool = append(pool, b.Add(pick(), b.Constant(value())))
		}
	}
	return b.Build(), public, secret
}

// FuzzSolveVsReference: on random gadget programs the compiled Solve
// equals the reference interpreter element for element, or both fail with
// the same error; and IsSatisfied accepts a solved witness exactly when
// every bit decomposition's input fits its width (a range check is the
// only way a solvable gadget program can be unsatisfied).
func FuzzSolveVsReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 14, 5, 0, 2})
	f.Add([]byte{0, 1, 1, 2, 7, 13, 0, 0, 1, 5, 3, 2, 3, 1})
	f.Add([]byte{1, 9, 2, 1, 200, 5, 0, 6, 1, 2, 2, 0, 4, 0, 1, 2, 5, 1, 8})
	f.Add([]byte{2, 3, 0, 3, 0, 17, 255, 4, 1, 1, 0, 7, 1, 2, 5, 2, 10})
	f.Add([]byte{0, 4, 1, 0, 0, 2, 0, 2, 1, 3, 0, 0, 1})
	f.Add([]byte{1, 5, 0, 2, 44, 3, 7, 0, 1, 0, 0, 6, 0, 1, 6, 8, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		sys, public, secret := fuzzProgram(data)
		got, err := sys.Solve(public, secret)
		want, wantErr := referenceSolve(sys, public, secret)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Solve error %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		fd := sys.F
		for i := range want {
			if !fd.Equal(got[i], want[i]) || len(got[i]) != len(want[i]) {
				t.Fatalf("wire %d: Solve %s, reference %s", i, fd.String(got[i]), fd.String(want[i]))
			}
		}
		inRange := true
		for _, o := range sys.ops {
			if o.code == opBits && fd.ToBig(EvalLC(fd, o.x, got)).BitLen() > o.n {
				inRange = false
			}
		}
		if err := sys.IsSatisfied(got); (err == nil) != inRange {
			t.Fatalf("IsSatisfied: %v, with every range check in range: %v", err, inRange)
		}
	})
}
