// Package r1cs provides the rank-1 constraint systems that feed the
// Groth16 pipeline: a circuit builder with the usual gadget library
// (arithmetic, booleans, bit decomposition, comparisons, MiMC hashing), a
// witness solver driven by builder-recorded hints, and satisfaction checks.
//
// The witness vector follows the Groth16 convention z = (1, public...,
// private...): index 0 is the constant ONE wire.
package r1cs

import (
	"fmt"

	"gzkp/internal/ff"
)

// Variable is a wire index into the witness vector. Variable 0 is the
// constant 1.
type Variable int

// Term is coeff·variable inside a linear combination.
type Term struct {
	V     Variable
	Coeff ff.Element
}

// LC is a linear combination Σ coeff·var.
type LC []Term

// Constraint asserts ⟨A,z⟩ · ⟨B,z⟩ = ⟨C,z⟩.
type Constraint struct {
	A, B, C LC
}

// System is a finalized constraint system.
type System struct {
	F           *ff.Field
	NumPublic   int // declared public inputs (excludes the ONE wire)
	NumSecret   int // declared secret inputs
	NumVars     int // total wires incl. ONE and internals
	Constraints []Constraint

	hints []hint
}

type hint struct {
	out Variable
	fn  func(f *ff.Field, w []ff.Element) (ff.Element, error)
}

// Builder accumulates constraints and solver hints.
type Builder struct {
	f         *ff.Field
	numPublic int
	numSecret int
	numVars   int
	frozen    bool // true once a non-input wire exists: no more publics
	cons      []Constraint
	hints     []hint
	names     map[Variable]string
}

// NewBuilder starts a circuit over f.
func NewBuilder(f *ff.Field) *Builder {
	return &Builder{f: f, numVars: 1, names: map[Variable]string{0: "one"}}
}

// Field returns the builder's field.
func (b *Builder) Field() *ff.Field { return b.f }

// One returns the constant-1 wire as an LC.
func (b *Builder) One() LC { return LC{{V: 0, Coeff: b.f.One()}} }

// Constant returns c as an LC.
func (b *Builder) Constant(c ff.Element) LC { return LC{{V: 0, Coeff: b.f.Copy(c)}} }

// ConstUint64 returns the small constant v.
func (b *Builder) ConstUint64(v uint64) LC { return b.Constant(b.f.FromUint64(v)) }

// Public declares the next public input. All public inputs must be
// declared before any secret or internal wire is allocated (the Groth16
// witness layout requires publics to be contiguous after the ONE wire).
func (b *Builder) Public(name string) (LC, error) {
	if b.frozen || b.numSecret > 0 {
		return nil, fmt.Errorf("r1cs: public input %q declared after non-public allocation", name)
	}
	v := Variable(b.numVars)
	b.numVars++
	b.numPublic++
	b.names[v] = name
	return LC{{V: v, Coeff: b.f.One()}}, nil
}

// Secret declares the next secret (prover-supplied) input.
func (b *Builder) Secret(name string) LC {
	v := Variable(b.numVars)
	b.numVars++
	b.numSecret++
	b.names[v] = name
	return LC{{V: v, Coeff: b.f.One()}}
}

// alloc creates an internal wire computed by fn during solving.
func (b *Builder) alloc(name string, fn func(f *ff.Field, w []ff.Element) (ff.Element, error)) Variable {
	b.frozen = true
	v := Variable(b.numVars)
	b.numVars++
	b.names[v] = name
	b.hints = append(b.hints, hint{out: v, fn: fn})
	return v
}

// addConstraint appends A·B = C.
func (b *Builder) addConstraint(a, bb, c LC) {
	b.cons = append(b.cons, Constraint{A: copyLC(b.f, a), B: copyLC(b.f, bb), C: copyLC(b.f, c)})
}

// Build finalizes the system.
func (b *Builder) Build() *System {
	return &System{
		F:           b.f,
		NumPublic:   b.numPublic,
		NumSecret:   b.numSecret,
		NumVars:     b.numVars,
		Constraints: b.cons,
		hints:       b.hints,
	}
}

// --- LC algebra (constraint-free) ---

func copyLC(f *ff.Field, a LC) LC {
	out := make(LC, len(a))
	for i, t := range a {
		out[i] = Term{V: t.V, Coeff: f.Copy(t.Coeff)}
	}
	return out
}

// Add returns a+b as an LC (merging like terms).
func (b *Builder) Add(x, y LC) LC {
	merged := map[Variable]ff.Element{}
	for _, t := range x {
		merged[t.V] = b.f.Copy(t.Coeff)
	}
	for _, t := range y {
		if c, ok := merged[t.V]; ok {
			b.f.Add(c, c, t.Coeff)
		} else {
			merged[t.V] = b.f.Copy(t.Coeff)
		}
	}
	out := make(LC, 0, len(merged))
	for v := 0; v < b.numVars; v++ {
		if c, ok := merged[Variable(v)]; ok && !b.f.IsZero(c) {
			out = append(out, Term{V: Variable(v), Coeff: c})
		}
	}
	return out
}

// Sub returns x-y.
func (b *Builder) Sub(x, y LC) LC { return b.Add(x, b.Scale(y, b.f.FromInt64(-1))) }

// Scale returns c·x.
func (b *Builder) Scale(x LC, c ff.Element) LC {
	out := make(LC, 0, len(x))
	for _, t := range x {
		nc := b.f.Mul(b.f.New(), t.Coeff, c)
		if !b.f.IsZero(nc) {
			out = append(out, Term{V: t.V, Coeff: nc})
		}
	}
	return out
}

// EvalLC computes ⟨lc, w⟩.
func EvalLC(f *ff.Field, lc LC, w []ff.Element) ff.Element {
	return EvalLCTo(f, f.New(), f.New(), lc, w)
}

// EvalLCTo sets dst = ⟨lc, w⟩ with tmp as scratch and returns dst: EvalLC
// without allocating, for a prover that fills whole rows.
func EvalLCTo(f *ff.Field, dst, tmp ff.Element, lc LC, w []ff.Element) ff.Element {
	clear(dst)
	for _, term := range lc {
		f.Mul(tmp, term.Coeff, w[term.V])
		f.Add(dst, dst, tmp)
	}
	return dst
}

// --- Constraint-producing gadgets ---

// Mul allocates x·y.
func (b *Builder) Mul(x, y LC) LC {
	xc, yc := copyLC(b.f, x), copyLC(b.f, y)
	v := b.alloc("mul", func(f *ff.Field, w []ff.Element) (ff.Element, error) {
		return f.Mul(f.New(), EvalLC(f, xc, w), EvalLC(f, yc, w)), nil
	})
	out := LC{{V: v, Coeff: b.f.One()}}
	b.addConstraint(x, y, out)
	return out
}

// Square allocates x².
func (b *Builder) Square(x LC) LC { return b.Mul(x, x) }

// Inverse allocates x⁻¹ and asserts x·x⁻¹ = 1 (unsatisfiable when x = 0).
func (b *Builder) Inverse(x LC) LC {
	xc := copyLC(b.f, x)
	v := b.alloc("inv", func(f *ff.Field, w []ff.Element) (ff.Element, error) {
		val := EvalLC(f, xc, w)
		if f.IsZero(val) {
			return nil, fmt.Errorf("r1cs: inverse of zero wire")
		}
		return f.Inverse(val), nil
	})
	out := LC{{V: v, Coeff: b.f.One()}}
	b.addConstraint(x, out, b.One())
	return out
}

// Div allocates x/y (asserting y ≠ 0).
func (b *Builder) Div(x, y LC) LC { return b.Mul(x, b.Inverse(y)) }

// AssertEqual adds x = y (as x·1 = y).
func (b *Builder) AssertEqual(x, y LC) { b.addConstraint(x, b.One(), y) }

// AssertBool adds x·(x-1) = 0.
func (b *Builder) AssertBool(x LC) {
	b.addConstraint(x, b.Sub(x, b.One()), LC{})
}

// IsZero returns a boolean wire that is 1 iff x == 0 (standard m-gadget:
// r = 1 - x·m, x·r = 0, with m hinted to x⁻¹ or 0).
func (b *Builder) IsZero(x LC) LC {
	xc := copyLC(b.f, x)
	m := b.alloc("iszero.m", func(f *ff.Field, w []ff.Element) (ff.Element, error) {
		return f.Inverse(EvalLC(f, xc, w)), nil // Inverse(0) = 0 by ff convention
	})
	r := b.alloc("iszero.r", func(f *ff.Field, w []ff.Element) (ff.Element, error) {
		if f.IsZero(EvalLC(f, xc, w)) {
			return f.One(), nil
		}
		return f.Zero(), nil
	})
	mLC := LC{{V: m, Coeff: b.f.One()}}
	rLC := LC{{V: r, Coeff: b.f.One()}}
	// x·m = 1 - r
	b.addConstraint(x, mLC, b.Sub(b.One(), rLC))
	// x·r = 0
	b.addConstraint(x, rLC, LC{})
	return rLC
}

// Select returns cond ? t : e for boolean cond: e + cond·(t-e).
func (b *Builder) Select(cond, t, e LC) LC {
	d := b.Mul(cond, b.Sub(t, e))
	return b.Add(e, d)
}

// ToBits decomposes x into n boolean wires (little-endian) and asserts the
// recomposition, constraining x < 2^n.
func (b *Builder) ToBits(x LC, n int) []LC {
	xc := copyLC(b.f, x)
	bits := make([]LC, n)
	sum := LC{}
	two := b.f.FromUint64(2)
	coeff := b.f.One()
	for i := 0; i < n; i++ {
		i := i
		v := b.alloc(fmt.Sprintf("bit%d", i), func(f *ff.Field, w []ff.Element) (ff.Element, error) {
			val := f.ToBig(EvalLC(f, xc, w))
			return f.FromUint64(uint64(val.Bit(i))), nil
		})
		bits[i] = LC{{V: v, Coeff: b.f.One()}}
		b.AssertBool(bits[i])
		sum = b.Add(sum, b.Scale(bits[i], coeff))
		coeff = b.f.Mul(b.f.New(), coeff, two)
	}
	b.AssertEqual(sum, x)
	return bits
}

// FromBits recomposes little-endian boolean wires into a value (no new
// constraints).
func (b *Builder) FromBits(bits []LC) LC {
	sum := LC{}
	coeff := b.f.One()
	two := b.f.FromUint64(2)
	for _, bit := range bits {
		sum = b.Add(sum, b.Scale(bit, coeff))
		coeff = b.f.Mul(b.f.New(), coeff, two)
	}
	return sum
}

// AssertLessEq asserts x ≤ y for values known to fit n bits, by
// range-checking y - x (sound because both fit well below the modulus).
func (b *Builder) AssertLessEq(x, y LC, n int) {
	b.ToBits(b.Sub(y, x), n)
}

// --- Solving & checking ---

// Solve computes the full witness from declared inputs: publics and
// secrets in declaration order.
func (s *System) Solve(public, secret []ff.Element) ([]ff.Element, error) {
	if len(public) != s.NumPublic {
		return nil, fmt.Errorf("r1cs: want %d public inputs, got %d", s.NumPublic, len(public))
	}
	if len(secret) != s.NumSecret {
		return nil, fmt.Errorf("r1cs: want %d secret inputs, got %d", s.NumSecret, len(secret))
	}
	w := make([]ff.Element, s.NumVars)
	w[0] = s.F.One()
	for i, v := range public {
		w[1+i] = s.F.Copy(v)
	}
	for i, v := range secret {
		w[1+s.NumPublic+i] = s.F.Copy(v)
	}
	for _, h := range s.hints {
		val, err := h.fn(s.F, w)
		if err != nil {
			return nil, err
		}
		w[h.out] = val
	}
	for i := range w {
		if w[i] == nil {
			return nil, fmt.Errorf("r1cs: wire %d left unassigned", i)
		}
	}
	return w, nil
}

// IsSatisfied checks every constraint against a witness.
func (s *System) IsSatisfied(w []ff.Element) error {
	if len(w) != s.NumVars {
		return fmt.Errorf("r1cs: witness length %d != %d wires", len(w), s.NumVars)
	}
	f := s.F
	lhs := f.New()
	for i, c := range s.Constraints {
		a := EvalLC(f, c.A, w)
		bb := EvalLC(f, c.B, w)
		cc := EvalLC(f, c.C, w)
		f.Mul(lhs, a, bb)
		if !f.Equal(lhs, cc) {
			return fmt.Errorf("r1cs: constraint %d unsatisfied: %s·%s != %s",
				i, f.String(a), f.String(bb), f.String(cc))
		}
	}
	return nil
}

// PublicWitness extracts the public section (1, publics...) of a witness.
func (s *System) PublicWitness(w []ff.Element) []ff.Element {
	out := make([]ff.Element, s.NumPublic+1)
	for i := range out {
		out[i] = s.F.Copy(w[i])
	}
	return out
}
