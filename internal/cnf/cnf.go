// Package cnf compiles expr expressions into CNF over a sat.Solver.
//
// Booleans become literals via Tseitin transformation with structural
// hashing; bounded integers and enums are bit-blasted into binary
// "offset bitvectors" (a vector of literals plus a constant offset)
// with ripple-carry arithmetic; Count comparisons against constants
// use a sequential-counter cardinality encoding; any other Count
// comparison sums the bits with an adder tree.
//
// The same expression can be instantiated at many time frames — the
// bounded model checker unrolls the transition relation by compiling
// TRANS once per step with different (current, next) frames.
package cnf

import (
	"fmt"
	"math/bits"

	"verdict/internal/expr"
	"verdict/internal/sat"
)

// CompileError reports an input expression the encoder cannot compile
// to CNF: an unsupported operator, a non-finite type reaching the
// bit-blaster, or variable*variable multiplication. The encoder panics
// with it — the recursive compilation has no error plumbing — and the
// model-checking entry points recover it into an ordinary error, so
// library callers never observe the panic. Internal-invariant
// violations still panic with plain strings and are not recovered.
type CompileError struct{ Msg string }

func (e *CompileError) Error() string { return "cnf: " + e.Msg }

// failf panics with a CompileError for an input-reachable defect.
func failf(format string, args ...any) {
	panic(&CompileError{Msg: fmt.Sprintf(format, args...)})
}

// Frame assigns SAT variables to a set of ts variables at one point in
// time. Frames are created by Encoder.NewFrame.
type Frame struct {
	id   int
	vars []*expr.Var // declaration order, for deterministic iteration
	bits map[*expr.Var]bv
}

// bv is an offset bitvector: value = off + Σ bits[i]·2^i where each
// bit is a SAT literal (possibly a constant literal).
type bv struct {
	lits []sat.Lit // LSB first
	off  int64
}

// Encoder compiles expressions to CNF incrementally.
type Encoder struct {
	S *sat.Solver

	// Params, when set, resolves variables not found in a frame —
	// parameters live in a single time-invariant frame.
	Params *Frame

	// Extern, when set, is consulted before compiling any boolean
	// node; returning ok=true short-circuits with the given literal.
	// The SMT layer uses this to claim real-valued comparisons as
	// theory atoms while the finite structure stays in CNF.
	Extern func(ex *expr.Expr, cur, next *Frame) (sat.Lit, bool)

	trueLit sat.Lit
	nextFid int

	boolMemo map[boolKey]sat.Lit
	bvMemo   map[boolKey]bv
	gateMemo map[gateKey]sat.Lit
	cardMemo map[cardKey][]sat.Lit
}

type boolKey struct {
	e        *expr.Expr
	cur, nxt int
}

type gateKey struct {
	op      byte // '&', '|', '^', 'm' (majority), 'i' (ite)
	a, b, c sat.Lit
}

type cardKey struct {
	e        *expr.Expr // the Count node
	cur, nxt int
	k        int
}

// NewEncoder returns an encoder over solver s. A fresh "constant true"
// variable is allocated immediately.
func NewEncoder(s *sat.Solver) *Encoder {
	e := &Encoder{
		S:        s,
		boolMemo: make(map[boolKey]sat.Lit),
		bvMemo:   make(map[boolKey]bv),
		gateMemo: make(map[gateKey]sat.Lit),
		cardMemo: make(map[cardKey][]sat.Lit),
	}
	e.trueLit = sat.Pos(s.NewVar())
	s.AddClause(e.trueLit)
	return e
}

// True returns the constant-true literal.
func (e *Encoder) True() sat.Lit { return e.trueLit }

// False returns the constant-false literal.
func (e *Encoder) False() sat.Lit { return e.trueLit.Not() }

// NewFrame allocates fresh SAT variables for every given ts variable
// and asserts domain (range) constraints.
func (e *Encoder) NewFrame(vars []*expr.Var) *Frame {
	e.nextFid++
	f := &Frame{
		id:   e.nextFid,
		vars: append([]*expr.Var(nil), vars...),
		bits: make(map[*expr.Var]bv, len(vars)),
	}
	for _, v := range vars {
		f.bits[v] = e.newVarBits(v.T)
	}
	return f
}

func (e *Encoder) newVarBits(t expr.Type) bv {
	switch t.Kind {
	case expr.KindBool:
		return bv{lits: []sat.Lit{sat.Pos(e.S.NewVar())}}
	case expr.KindInt, expr.KindEnum:
		lo, hi := domainBounds(t)
		span := uint64(hi - lo)
		w := bits.Len64(span)
		if w == 0 {
			return bv{off: lo} // singleton domain, no bits
		}
		ls := make([]sat.Lit, w)
		for i := range ls {
			ls[i] = sat.Pos(e.S.NewVar())
		}
		e.assertLeConst(ls, span)
		return bv{lits: ls, off: lo}
	}
	failf("cannot allocate SAT bits for %s-typed variable", t)
	panic("unreachable")
}

func domainBounds(t expr.Type) (int64, int64) {
	switch t.Kind {
	case expr.KindInt:
		return t.Lo, t.Hi
	case expr.KindEnum:
		return 0, int64(len(t.Values) - 1)
	}
	failf("domainBounds on %s", t)
	panic("unreachable")
}

// assertLeConst asserts that the unsigned value of ls is <= c.
func (e *Encoder) assertLeConst(ls []sat.Lit, c uint64) {
	if c >= (1<<uint(len(ls)))-1 {
		return
	}
	for i := len(ls) - 1; i >= 0; i-- {
		if c>>uint(i)&1 == 1 {
			continue
		}
		// If all higher bits where c has a 1 are set, bit i must be 0.
		clause := []sat.Lit{ls[i].Not()}
		for j := i + 1; j < len(ls); j++ {
			if c>>uint(j)&1 == 1 {
				clause = append(clause, ls[j].Not())
			}
		}
		e.S.AddClause(clause...)
	}
}

// Assert adds the boolean expression as a hard constraint, with cur
// and next resolving current- and next-state variables.
func (e *Encoder) Assert(ex *expr.Expr, cur, next *Frame) {
	e.S.AddClause(e.Lit(ex, cur, next))
}

// Lit compiles a boolean expression to a literal.
func (e *Encoder) Lit(ex *expr.Expr, cur, next *Frame) sat.Lit {
	if ex.Type().Kind != expr.KindBool {
		failf("Lit on %s-typed expression", ex.Type())
	}
	key := boolKey{ex, frameID(cur), frameID(next)}
	if l, ok := e.boolMemo[key]; ok {
		return l
	}
	l := e.compileBool(ex, cur, next)
	e.boolMemo[key] = l
	return l
}

func frameID(f *Frame) int {
	if f == nil {
		return 0
	}
	return f.id
}

func (e *Encoder) lookup(v *expr.Var, f *Frame) (bv, bool) {
	if f != nil {
		if b, ok := f.bits[v]; ok {
			return b, true
		}
	}
	if e.Params != nil {
		if b, ok := e.Params.bits[v]; ok {
			return b, true
		}
	}
	return bv{}, false
}

func (e *Encoder) varBits(v *expr.Var, f *Frame, what string) bv {
	b, ok := e.lookup(v, f)
	if !ok {
		panic(fmt.Sprintf("cnf: %s variable %s not bound in frame", what, v.Name))
	}
	return b
}

func (e *Encoder) compileBool(ex *expr.Expr, cur, next *Frame) sat.Lit {
	if e.Extern != nil {
		if l, ok := e.Extern(ex, cur, next); ok {
			return l
		}
	}
	switch ex.Op {
	case expr.OpConst:
		if ex.Val.B {
			return e.trueLit
		}
		return e.False()
	case expr.OpVar:
		return e.varBits(ex.V, cur, "current").lits[0]
	case expr.OpNext:
		return e.varBits(ex.V, next, "next").lits[0]
	case expr.OpNot:
		return e.Lit(ex.Args[0], cur, next).Not()
	case expr.OpAnd:
		ls := make([]sat.Lit, len(ex.Args))
		for i, a := range ex.Args {
			ls[i] = e.Lit(a, cur, next)
		}
		return e.mkAndN(ls)
	case expr.OpOr:
		ls := make([]sat.Lit, len(ex.Args))
		for i, a := range ex.Args {
			ls[i] = e.Lit(a, cur, next)
		}
		return e.mkOrN(ls)
	case expr.OpImplies:
		return e.mkOrN([]sat.Lit{e.Lit(ex.Args[0], cur, next).Not(), e.Lit(ex.Args[1], cur, next)})
	case expr.OpIff:
		return e.mkXor(e.Lit(ex.Args[0], cur, next), e.Lit(ex.Args[1], cur, next)).Not()
	case expr.OpXor:
		return e.mkXor(e.Lit(ex.Args[0], cur, next), e.Lit(ex.Args[1], cur, next))
	case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
		return e.compileCompare(ex, cur, next)
	}
	failf("cannot compile boolean op %v (expression %s)", ex.Op, ex)
	panic("unreachable")
}

func (e *Encoder) compileCompare(ex *expr.Expr, cur, next *Frame) sat.Lit {
	a, b := ex.Args[0], ex.Args[1]
	// Boolean/enum equality.
	if a.Type().Kind == expr.KindEnum {
		av := e.BV(a, cur, next)
		bvv := e.BV(b, cur, next)
		eq := e.mkEqBV(av, bvv)
		if ex.Op == expr.OpNe {
			return eq.Not()
		}
		return eq
	}
	// Cardinality special case: Count(...) ⋈ const (either side).
	if l, ok := e.tryCardinality(ex, cur, next); ok {
		return l
	}
	av := e.BV(a, cur, next)
	bvv := e.BV(b, cur, next)
	switch ex.Op {
	case expr.OpEq:
		return e.mkEqBV(av, bvv)
	case expr.OpNe:
		return e.mkEqBV(av, bvv).Not()
	case expr.OpLe:
		return e.mkLeBV(av, bvv)
	case expr.OpLt:
		return e.mkLeBV(bvv, av).Not()
	case expr.OpGe:
		return e.mkLeBV(bvv, av)
	case expr.OpGt:
		return e.mkLeBV(av, bvv).Not()
	}
	panic("cnf: bad comparison")
}

// --- integer expressions ---

// BV compiles a finite-domain expression to an offset bitvector.
func (e *Encoder) BV(ex *expr.Expr, cur, next *Frame) bv {
	key := boolKey{ex, frameID(cur), frameID(next)}
	if b, ok := e.bvMemo[key]; ok {
		return b
	}
	b := e.compileBV(ex, cur, next)
	e.bvMemo[key] = b
	return b
}

func (e *Encoder) compileBV(ex *expr.Expr, cur, next *Frame) bv {
	switch ex.Op {
	case expr.OpConst:
		switch ex.Val.Kind {
		case expr.KindInt:
			return bv{off: ex.Val.I}
		case expr.KindEnum:
			return bv{off: int64(ex.Type().EnumIndex(ex.Val.Sym))}
		case expr.KindBool:
			if ex.Val.B {
				return bv{lits: []sat.Lit{e.trueLit}}
			}
			return bv{}
		}
	case expr.OpVar:
		return e.varBits(ex.V, cur, "current")
	case expr.OpNext:
		return e.varBits(ex.V, next, "next")
	case expr.OpAdd:
		acc := e.BV(ex.Args[0], cur, next)
		for _, a := range ex.Args[1:] {
			acc = e.mkAddBV(acc, e.BV(a, cur, next))
		}
		return acc
	case expr.OpSub:
		return e.mkAddBV(e.BV(ex.Args[0], cur, next), negBV(e.BV(ex.Args[1], cur, next)))
	case expr.OpNeg:
		return negBV(e.BV(ex.Args[0], cur, next))
	case expr.OpMul:
		acc := e.BV(ex.Args[0], cur, next)
		for _, a := range ex.Args[1:] {
			acc = e.mkMulBV(acc, e.BV(a, cur, next))
		}
		return acc
	case expr.OpIte:
		c := e.Lit(ex.Args[0], cur, next)
		return e.mkIteBV(c, e.BV(ex.Args[1], cur, next), e.BV(ex.Args[2], cur, next))
	case expr.OpCount:
		ls := make([]sat.Lit, len(ex.Args))
		for i, a := range ex.Args {
			ls[i] = e.Lit(a, cur, next)
		}
		return e.mkPopcount(ls)
	}
	if ex.Type().Kind == expr.KindBool {
		// A boolean used in an integer context (e.g. via Ite branches).
		return bv{lits: []sat.Lit{e.Lit(ex, cur, next)}}
	}
	failf("cannot bit-blast op %v in %s", ex.Op, ex)
	panic("unreachable")
}

// negBV negates an offset bitvector: -(off + U) where U has width w is
// (-off - (2^w - 1)) + ~U, and ~U is just literal negation.
func negBV(a bv) bv {
	ls := make([]sat.Lit, len(a.lits))
	for i, l := range a.lits {
		ls[i] = l.Not()
	}
	var span int64
	if len(a.lits) > 0 {
		span = int64(1)<<uint(len(a.lits)) - 1
	}
	return bv{lits: ls, off: -a.off - span}
}

// mkAddBV adds two offset bitvectors with a ripple-carry adder.
func (e *Encoder) mkAddBV(a, b bv) bv {
	if len(a.lits) == 0 {
		return bv{lits: b.lits, off: a.off + b.off}
	}
	if len(b.lits) == 0 {
		return bv{lits: a.lits, off: a.off + b.off}
	}
	w := len(a.lits)
	if len(b.lits) > w {
		w = len(b.lits)
	}
	sum := make([]sat.Lit, 0, w+1)
	carry := e.False()
	for i := 0; i < w; i++ {
		ai, bi := e.bitAt(a, i), e.bitAt(b, i)
		s := e.mkXor(e.mkXor(ai, bi), carry)
		carry = e.mkMaj(ai, bi, carry)
		sum = append(sum, s)
	}
	sum = append(sum, carry)
	return bv{lits: sum, off: a.off + b.off}
}

func (e *Encoder) bitAt(a bv, i int) sat.Lit {
	if i < len(a.lits) {
		return a.lits[i]
	}
	return e.False()
}

// mkMulBV multiplies two offset bitvectors. At least one side must be
// constant (no literals); general variable×variable multiplication is
// rejected — finite-domain verdict models never need it, and the
// real-valued ones go through the SMT engine instead.
func (e *Encoder) mkMulBV(a, b bv) bv {
	if len(a.lits) > 0 && len(b.lits) > 0 {
		failf("variable*variable multiplication is not supported in the SAT encoding")
	}
	if len(a.lits) == 0 {
		a, b = b, a
	}
	// b is the constant: result = a * b.off = a.lits*b.off + a.off*b.off.
	k := b.off
	if k == 0 {
		return bv{}
	}
	neg := false
	if k < 0 {
		neg = true
		k = -k
	}
	var acc bv
	first := true
	for i := 0; i < 63; i++ {
		if k>>uint(i)&1 == 0 {
			continue
		}
		shifted := e.shiftBV(bv{lits: a.lits}, i)
		if first {
			acc = shifted
			first = false
		} else {
			acc = e.mkAddBV(acc, shifted)
		}
	}
	if neg {
		acc = negBV(acc)
	}
	acc.off += a.off * b.off
	return acc
}

func (e *Encoder) shiftBV(a bv, n int) bv {
	ls := make([]sat.Lit, n+len(a.lits))
	for i := 0; i < n; i++ {
		ls[i] = e.False()
	}
	copy(ls[n:], a.lits)
	return bv{lits: ls, off: a.off << uint(n)}
}

func (e *Encoder) mkIteBV(c sat.Lit, a, b bv) bv {
	// Align offsets so a bitwise mux is valid.
	if a.off != b.off {
		lo := a.off
		if b.off < lo {
			lo = b.off
		}
		a = e.rebase(a, lo)
		b = e.rebase(b, lo)
	}
	w := len(a.lits)
	if len(b.lits) > w {
		w = len(b.lits)
	}
	ls := make([]sat.Lit, w)
	for i := 0; i < w; i++ {
		ls[i] = e.mkIte(c, e.bitAt(a, i), e.bitAt(b, i))
	}
	return bv{lits: ls, off: a.off}
}

// rebase rewrites a to have offset newOff <= a.off by adding the
// difference into the bit part.
func (e *Encoder) rebase(a bv, newOff int64) bv {
	d := a.off - newOff
	if d == 0 {
		return a
	}
	if d < 0 {
		panic("cnf: rebase must lower the offset")
	}
	constBits := constBV(d, e)
	r := e.mkAddBV(bv{lits: a.lits}, constBits)
	r.off = newOff
	return r
}

func constBV(k int64, e *Encoder) bv {
	if k < 0 {
		panic("cnf: constBV negative")
	}
	var ls []sat.Lit
	for i := 0; i < 63; i++ {
		if k>>uint(i) == 0 {
			break
		}
		if k>>uint(i)&1 == 1 {
			ls = append(ls, e.trueLit)
		} else {
			ls = append(ls, e.False())
		}
	}
	return bv{lits: ls}
}

// mkEqBV returns a literal equivalent to value(a) == value(b).
func (e *Encoder) mkEqBV(a, b bv) sat.Lit {
	// value(a) == value(b)  <=>  U_a + ~U_b == C with
	// C = b.off - a.off + 2^wb - 1 where wb = len(b.lits).
	sum, c, ok := e.diffSum(a, b)
	if !ok {
		return e.False()
	}
	return e.mkEqConst(sum, uint64(c))
}

// mkLeBV returns a literal equivalent to value(a) <= value(b).
func (e *Encoder) mkLeBV(a, b bv) sat.Lit {
	sum, c, ok := e.diffSum(a, b)
	if !ok {
		return e.False()
	}
	return e.mkLeConst(sum, uint64(c))
}

// diffSum builds the unsigned sum U_a + ~U_b and the constant C such
// that a <= b iff sum <= C and a == b iff sum == C. ok=false means the
// comparison is statically false (C < 0).
func (e *Encoder) diffSum(a, b bv) ([]sat.Lit, int64, bool) {
	wb := len(b.lits)
	nb := negBV(b) // bits = ~U_b, off = -b.off - (2^wb - 1)
	var spanB int64
	if wb > 0 {
		spanB = int64(1)<<uint(wb) - 1
	}
	c := b.off - a.off + spanB
	if c < 0 {
		return nil, 0, false
	}
	sum := e.mkAddBV(bv{lits: a.lits}, bv{lits: nb.lits})
	return sum.lits, c, true
}

// mkLeConst returns a literal for unsigned(ls) <= c.
func (e *Encoder) mkLeConst(ls []sat.Lit, c uint64) sat.Lit {
	if len(ls) == 0 {
		return e.trueLit // unsigned value 0 <= any c
	}
	if c >= (1<<uint(len(ls)))-1 {
		return e.trueLit
	}
	acc := e.trueLit
	for i := 0; i < len(ls); i++ {
		if c>>uint(i)&1 == 1 {
			acc = e.mkOrN([]sat.Lit{ls[i].Not(), acc})
		} else {
			acc = e.mkAndN([]sat.Lit{ls[i].Not(), acc})
		}
	}
	return acc
}

// mkEqConst returns a literal for unsigned(ls) == c.
func (e *Encoder) mkEqConst(ls []sat.Lit, c uint64) sat.Lit {
	if c >= 1<<uint(len(ls)) {
		return e.False()
	}
	match := make([]sat.Lit, len(ls))
	for i, l := range ls {
		if c>>uint(i)&1 == 1 {
			match[i] = l
		} else {
			match[i] = l.Not()
		}
	}
	return e.mkAndN(match)
}

// mkPopcount sums single-bit values with a balanced adder tree.
func (e *Encoder) mkPopcount(ls []sat.Lit) bv {
	if len(ls) == 0 {
		return bv{}
	}
	vecs := make([]bv, len(ls))
	for i, l := range ls {
		vecs[i] = bv{lits: []sat.Lit{l}}
	}
	for len(vecs) > 1 {
		var nextLevel []bv
		for i := 0; i+1 < len(vecs); i += 2 {
			nextLevel = append(nextLevel, e.mkAddBV(vecs[i], vecs[i+1]))
		}
		if len(vecs)%2 == 1 {
			nextLevel = append(nextLevel, vecs[len(vecs)-1])
		}
		vecs = nextLevel
	}
	return vecs[0]
}

// --- gates ---

func (e *Encoder) mkAndN(ls []sat.Lit) sat.Lit {
	out := make([]sat.Lit, 0, len(ls))
	for _, l := range ls {
		if l == e.trueLit {
			continue
		}
		if l == e.False() {
			return e.False()
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		return e.trueLit
	case 1:
		return out[0]
	}
	acc := out[0]
	for _, l := range out[1:] {
		acc = e.gate2('&', acc, l)
	}
	return acc
}

func (e *Encoder) mkOrN(ls []sat.Lit) sat.Lit {
	neg := make([]sat.Lit, len(ls))
	for i, l := range ls {
		neg[i] = l.Not()
	}
	return e.mkAndN(neg).Not()
}

func (e *Encoder) mkXor(a, b sat.Lit) sat.Lit {
	if a == e.trueLit {
		return b.Not()
	}
	if a == e.False() {
		return b
	}
	if b == e.trueLit {
		return a.Not()
	}
	if b == e.False() {
		return a
	}
	if a == b {
		return e.False()
	}
	if a == b.Not() {
		return e.trueLit
	}
	// Canonicalize: strip signs into a parity flip.
	flip := false
	if a.Sign() {
		a = a.Not()
		flip = !flip
	}
	if b.Sign() {
		b = b.Not()
		flip = !flip
	}
	if a > b {
		a, b = b, a
	}
	key := gateKey{op: '^', a: a, b: b}
	g, ok := e.gateMemo[key]
	if !ok {
		g = sat.Pos(e.S.NewVar())
		e.S.AddClause(g.Not(), a, b)
		e.S.AddClause(g.Not(), a.Not(), b.Not())
		e.S.AddClause(g, a, b.Not())
		e.S.AddClause(g, a.Not(), b)
		e.gateMemo[key] = g
	}
	if flip {
		return g.Not()
	}
	return g
}

func (e *Encoder) mkMaj(a, b, c sat.Lit) sat.Lit {
	// Simplify constants.
	switch {
	case a == e.trueLit:
		return e.mkOrN([]sat.Lit{b, c})
	case a == e.False():
		return e.mkAndN([]sat.Lit{b, c})
	case b == e.trueLit:
		return e.mkOrN([]sat.Lit{a, c})
	case b == e.False():
		return e.mkAndN([]sat.Lit{a, c})
	case c == e.trueLit:
		return e.mkOrN([]sat.Lit{a, b})
	case c == e.False():
		return e.mkAndN([]sat.Lit{a, b})
	}
	ls := [3]sat.Lit{a, b, c}
	if ls[0] > ls[1] {
		ls[0], ls[1] = ls[1], ls[0]
	}
	if ls[1] > ls[2] {
		ls[1], ls[2] = ls[2], ls[1]
	}
	if ls[0] > ls[1] {
		ls[0], ls[1] = ls[1], ls[0]
	}
	key := gateKey{op: 'm', a: ls[0], b: ls[1], c: ls[2]}
	if g, ok := e.gateMemo[key]; ok {
		return g
	}
	g := sat.Pos(e.S.NewVar())
	a, b, c = ls[0], ls[1], ls[2]
	e.S.AddClause(g.Not(), a, b)
	e.S.AddClause(g.Not(), a, c)
	e.S.AddClause(g.Not(), b, c)
	e.S.AddClause(g, a.Not(), b.Not())
	e.S.AddClause(g, a.Not(), c.Not())
	e.S.AddClause(g, b.Not(), c.Not())
	e.gateMemo[key] = g
	return g
}

func (e *Encoder) mkIte(c, t, f sat.Lit) sat.Lit {
	if c == e.trueLit {
		return t
	}
	if c == e.False() {
		return f
	}
	if t == f {
		return t
	}
	key := gateKey{op: 'i', a: c, b: t, c: f}
	if g, ok := e.gateMemo[key]; ok {
		return g
	}
	g := sat.Pos(e.S.NewVar())
	e.S.AddClause(g.Not(), c.Not(), t)
	e.S.AddClause(g.Not(), c, f)
	e.S.AddClause(g, c.Not(), t.Not())
	e.S.AddClause(g, c, f.Not())
	// Redundant but propagation-strengthening.
	e.S.AddClause(g.Not(), t, f)
	e.S.AddClause(g, t.Not(), f.Not())
	e.gateMemo[key] = g
	return g
}

func (e *Encoder) gate2(op byte, a, b sat.Lit) sat.Lit {
	if a > b {
		a, b = b, a
	}
	key := gateKey{op: op, a: a, b: b}
	if g, ok := e.gateMemo[key]; ok {
		return g
	}
	g := sat.Pos(e.S.NewVar())
	switch op {
	case '&':
		e.S.AddClause(g.Not(), a)
		e.S.AddClause(g.Not(), b)
		e.S.AddClause(g, a.Not(), b.Not())
	default:
		panic("cnf: unknown gate")
	}
	e.gateMemo[key] = g
	return g
}

// AndLits returns a literal equivalent to the conjunction of ls.
func (e *Encoder) AndLits(ls ...sat.Lit) sat.Lit { return e.mkAndN(ls) }

// OrLits returns a literal equivalent to the disjunction of ls.
func (e *Encoder) OrLits(ls ...sat.Lit) sat.Lit { return e.mkOrN(ls) }

// --- cardinality ---

// tryCardinality recognizes Count(bits) ⋈ constant comparisons and
// compiles them with a sequential counter.
func (e *Encoder) tryCardinality(ex *expr.Expr, cur, next *Frame) (sat.Lit, bool) {
	a, b := ex.Args[0], ex.Args[1]
	op := ex.Op
	var cnt *expr.Expr
	var k int64
	switch {
	case a.Op == expr.OpCount && b.Op == expr.OpConst && b.Val.Kind == expr.KindInt:
		cnt, k = a, b.Val.I
	case b.Op == expr.OpCount && a.Op == expr.OpConst && a.Val.Kind == expr.KindInt:
		cnt, k = b, a.Val.I
		// Mirror the comparison: const ⋈ count  ==>  count ⋈' const.
		switch op {
		case expr.OpLt:
			op = expr.OpGt
		case expr.OpLe:
			op = expr.OpGe
		case expr.OpGt:
			op = expr.OpLt
		case expr.OpGe:
			op = expr.OpLe
		}
	default:
		return 0, false
	}
	n := int64(len(cnt.Args))
	// Normalize to atLeast(j) primitives.
	atLeast := func(j int64) sat.Lit {
		if j <= 0 {
			return e.trueLit
		}
		if j > n {
			return e.False()
		}
		outs := e.seqCounter(cnt, cur, next, int(j))
		return outs[j-1]
	}
	switch op {
	case expr.OpLe: // count <= k  ==  !atLeast(k+1)
		return atLeast(k + 1).Not(), true
	case expr.OpLt:
		return atLeast(k).Not(), true
	case expr.OpGe:
		return atLeast(k), true
	case expr.OpGt:
		return atLeast(k + 1), true
	case expr.OpEq:
		return e.mkAndN([]sat.Lit{atLeast(k), atLeast(k + 1).Not()}), true
	case expr.OpNe:
		return e.mkAndN([]sat.Lit{atLeast(k), atLeast(k + 1).Not()}).Not(), true
	}
	return 0, false
}

// seqCounter builds sequential-counter outputs out[j-1] ("at least j of
// the count's arguments are true") for j = 1..maxJ, memoized per
// (count node, frames, maxJ).
func (e *Encoder) seqCounter(cnt *expr.Expr, cur, next *Frame, maxJ int) []sat.Lit {
	key := cardKey{cnt, frameID(cur), frameID(next), maxJ}
	if outs, ok := e.cardMemo[key]; ok {
		return outs
	}
	n := len(cnt.Args)
	xs := make([]sat.Lit, n)
	for i, a := range cnt.Args {
		xs[i] = e.Lit(a, cur, next)
	}
	// s[j-1] after processing i bits == at least j of the first i true.
	row := make([]sat.Lit, maxJ)
	for j := range row {
		row[j] = e.False()
	}
	for i := 0; i < n; i++ {
		newRow := make([]sat.Lit, maxJ)
		for j := 0; j < maxJ; j++ {
			prev := e.trueLit
			if j > 0 {
				prev = row[j-1]
			}
			// newRow[j] = row[j] | (x_i & prev)
			newRow[j] = e.mkOrN([]sat.Lit{row[j], e.mkAndN([]sat.Lit{xs[i], prev})})
		}
		row = newRow
	}
	e.cardMemo[key] = row
	return row
}

// --- model decoding ---

// Model decodes variable v's value in frame f from the solver's model
// (after a Sat result). Unassigned bits default to 0.
func (e *Encoder) Model(f *Frame, v *expr.Var) expr.Value {
	b, ok := e.lookup(v, f)
	if !ok {
		panic(fmt.Sprintf("cnf: Model of unbound variable %s", v.Name))
	}
	var u int64
	for i, l := range b.lits {
		if e.S.ValueLit(l) == sat.TrueV {
			u |= 1 << uint(i)
		}
	}
	val := b.off + u
	switch v.T.Kind {
	case expr.KindBool:
		return expr.BoolValue(val != 0)
	case expr.KindInt:
		return expr.IntValue(val)
	case expr.KindEnum:
		return expr.EnumValue(v.T.Values[val])
	}
	panic("cnf: Model of non-finite variable " + v.Name)
}

// EqFrames returns a literal true iff every variable common to both
// frames has equal value — used for lasso loop closure in BMC.
func (e *Encoder) EqFrames(a, b *Frame) sat.Lit {
	var conj []sat.Lit
	for _, v := range a.vars {
		bb, ok := b.bits[v]
		if !ok {
			continue
		}
		conj = append(conj, e.mkEqBV(a.bits[v], bb))
	}
	return e.mkAndN(conj)
}
