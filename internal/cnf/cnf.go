// Package cnf provides Tseitin encodings of combinational logic into
// conjunctive normal form on top of the sat package.
//
// The dependency computation encodes a flip-flop's next-state cone twice
// (with one input pinned to 0 and to 1) and asks the solver whether the
// two copies can differ — the classic dependency miter of the SAT-based
// dependency computation (HVC 2016).
package cnf

import "repro/internal/sat"

// Builder accumulates Tseitin clauses in a sat.Solver.
type Builder struct {
	S *sat.Solver
	// cl is the scratch clause of the n-ary And/Or encodings (the
	// solver copies every clause it keeps).
	cl []sat.Lit
}

// NewBuilder returns a Builder emitting into a fresh solver.
func NewBuilder() *Builder {
	return &Builder{S: sat.New()}
}

// NewVar introduces a fresh CNF variable and returns its positive literal.
func (b *Builder) NewVar() sat.Lit {
	return sat.PosLit(b.S.NewVar())
}

// Const returns a literal fixed to the given constant value.
func (b *Builder) Const(v bool) sat.Lit {
	l := b.NewVar()
	if v {
		b.S.AddClause(l)
	} else {
		b.S.AddClause(l.Not())
	}
	return l
}

// And constrains out <-> AND(ins...). With no inputs, out is true.
func (b *Builder) And(out sat.Lit, ins ...sat.Lit) {
	// (~in -> ~out) for each in:  (in | ~out)
	for _, in := range ins {
		b.S.AddClause(in, out.Not())
	}
	// (all ins -> out): (~in1 | ~in2 | ... | out)
	cl := b.cl[:0]
	for _, in := range ins {
		cl = append(cl, in.Not())
	}
	b.cl = append(cl, out)
	b.S.AddClause(b.cl...)
}

// Or constrains out <-> OR(ins...). With no inputs, out is false.
func (b *Builder) Or(out sat.Lit, ins ...sat.Lit) {
	for _, in := range ins {
		b.S.AddClause(in.Not(), out)
	}
	b.cl = append(append(b.cl[:0], ins...), out.Not())
	b.S.AddClause(b.cl...)
}

// Nand constrains out <-> NAND(ins...).
func (b *Builder) Nand(out sat.Lit, ins ...sat.Lit) {
	b.And(out.Not(), ins...)
}

// Nor constrains out <-> NOR(ins...).
func (b *Builder) Nor(out sat.Lit, ins ...sat.Lit) {
	b.Or(out.Not(), ins...)
}

// Not constrains out <-> NOT(in).
func (b *Builder) Not(out, in sat.Lit) {
	b.Equal(out, in.Not())
}

// Buf constrains out <-> in.
func (b *Builder) Buf(out, in sat.Lit) {
	b.Equal(out, in)
}

// Equal constrains a <-> b.
func (b *Builder) Equal(a, x sat.Lit) {
	b.S.AddClause(a.Not(), x)
	b.S.AddClause(a, x.Not())
}

// Xor2 constrains out <-> a XOR x.
func (b *Builder) Xor2(out, a, x sat.Lit) {
	b.S.AddClause(out.Not(), a, x)
	b.S.AddClause(out.Not(), a.Not(), x.Not())
	b.S.AddClause(out, a.Not(), x)
	b.S.AddClause(out, a, x.Not())
}

// Xor constrains out <-> XOR of all inputs, chaining Xor2 for arity > 2.
// With no inputs, out is false; with one, out equals it.
func (b *Builder) Xor(out sat.Lit, ins ...sat.Lit) {
	switch len(ins) {
	case 0:
		b.S.AddClause(out.Not())
	case 1:
		b.Equal(out, ins[0])
	case 2:
		b.Xor2(out, ins[0], ins[1])
	default:
		acc := ins[0]
		for i := 1; i < len(ins)-1; i++ {
			next := b.NewVar()
			b.Xor2(next, acc, ins[i])
			acc = next
		}
		b.Xor2(out, acc, ins[len(ins)-1])
	}
}

// Xnor constrains out <-> XNOR of all inputs.
func (b *Builder) Xnor(out sat.Lit, ins ...sat.Lit) {
	b.Xor(out.Not(), ins...)
}

// Mux constrains out <-> (sel ? hi : lo).
func (b *Builder) Mux(out, sel, lo, hi sat.Lit) {
	b.S.AddClause(sel.Not(), hi.Not(), out)
	b.S.AddClause(sel.Not(), hi, out.Not())
	b.S.AddClause(sel, lo.Not(), out)
	b.S.AddClause(sel, lo, out.Not())
	// Redundant but propagation-strengthening clauses:
	b.S.AddClause(lo.Not(), hi.Not(), out)
	b.S.AddClause(lo, hi, out.Not())
}

// Majority3 constrains out <-> MAJ(a, b, c).
func (b *Builder) Majority3(out, x, y, z sat.Lit) {
	b.S.AddClause(x.Not(), y.Not(), out)
	b.S.AddClause(x.Not(), z.Not(), out)
	b.S.AddClause(y.Not(), z.Not(), out)
	b.S.AddClause(x, y, out.Not())
	b.S.AddClause(x, z, out.Not())
	b.S.AddClause(y, z, out.Not())
}

// Implies adds the clause a -> x.
func (b *Builder) Implies(a, x sat.Lit) {
	b.S.AddClause(a.Not(), x)
}

// Assert fixes the literal to true.
func (b *Builder) Assert(l sat.Lit) {
	b.S.AddClause(l)
}

// Different returns a fresh literal constrained to a XOR x — the core of
// a dependency miter output.
func (b *Builder) Different(a, x sat.Lit) sat.Lit {
	d := b.NewVar()
	b.Xor2(d, a, x)
	return d
}
