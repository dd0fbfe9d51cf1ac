package ff

//go:generate go run ./gen -out fixedops_gen.go

// Kernels is a field's arithmetic dispatch table. At construction every
// Field points it at the variable-width generic routines of arith.go; for
// the three limb counts GZKP's curves actually use — 4 (ALT-BN128),
// 6 (BLS12-381), 12 (MNT4753-class) — it is repointed at the unrolled
// fixed-width kernels of fixedops_gen.go. The table is written once in
// NewField and never mutated, so it is safe to share across goroutines.
//
// Hot loops should hoist the table to loop entry (k := f.Kernels()) and
// call k.Mul / k.Add / ... directly: one indirect call per operation, with
// the width decision taken exactly once rather than per element.
type Kernels struct {
	// Three-operand ops: z = x op y. z may alias x or y.
	Mul, Add, Sub func(z, x, y Element)
	// Two-operand ops: z = op(x). z may alias x.
	Square, Neg, Double func(z, x Element)
}

// Kernels returns the field's dispatch table for hoisting into hot loops.
// The returned pointer is shared and read-only.
func (f *Field) Kernels() *Kernels { return &f.kern }

// FastPathWidth reports the limb count of the active fixed-width fast path,
// or 0 when the field runs on the generic variable-width routines.
func (f *Field) FastPathWidth() int { return f.fastWidth }

// WithoutFastPath returns a view of f whose dispatch table is pinned to the
// generic variable-width path. Elements are interchangeable between f and
// the view (same modulus, same Montgomery constants); benchmarks and
// differential tests use it as the reference implementation.
func (f *Field) WithoutFastPath() *Field {
	clone := *f
	clone.fastWidth = 0
	clone.installGeneric()
	return &clone
}

// installKernels selects the arithmetic implementation for f's width. The
// generic path is installed first so unsupported widths always have a
// complete table; supported widths then overwrite it wholesale.
//
// The fixed multiply kernels use the interleaved "no-carry" CIOS form,
// which is only correct when the modulus' most significant limb is below
// 2^63-1 (so per-round carries fit one word). Every modulus in the GZKP
// curve zoo satisfies this by a wide margin; a hypothetical full-width
// modulus simply stays on the generic path.
func (f *Field) installKernels() {
	f.installGeneric()
	if f.p[f.n-1] >= 1<<63-1 {
		return
	}
	switch f.n {
	case 4:
		installFixed4(f)
	case 6:
		installFixed6(f)
	case 12:
		installFixed12(f)
	}
}

func (f *Field) installGeneric() {
	f.kern = Kernels{
		Mul:    func(z, x, y Element) { f.mulGeneric(z, x, y) },
		Square: func(z, x Element) { f.squareGeneric(z, x) },
		Add:    func(z, x, y Element) { f.addGeneric(z, x, y) },
		Sub:    func(z, x, y Element) { f.subGeneric(z, x, y) },
		Neg:    func(z, x Element) { f.negGeneric(z, x) },
		Double: func(z, x Element) { f.addGeneric(z, x, x) },
	}
}

// MontParams returns the modulus limbs (shared, read-only) and -p⁻¹ mod 2⁶⁴
// that the exported fixed-width kernels of fixedops_gen.go (MulMont4,
// AddMod6, ...) take. Those kernels are ordinary functions over array
// pointers: unlike a call through Kernels' func values, a direct call does
// not send its operands to the heap, which is what lets internal/tower
// keep the Karatsuba temporaries of Fq2/Fq6/Fq12 on the stack. Callers
// must check FastPathWidth first.
func (f *Field) MontParams() (p []uint64, inv uint64) { return f.p, f.inv }
