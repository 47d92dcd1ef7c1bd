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
	"errors"
	"fmt"
	"math/bits"
	"slices"

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

// ErrStopped is the panic value the encoder throws when the solver's
// Stop flag is set: encoding stops at the next gate or variable
// allocation, as the solver's search stops at the next conflict or
// decision. Like a CompileError, it is recovered where the encoding
// was asked for; the solver is left with a partial encoding and is
// not used again.
var ErrStopped = errors.New("cnf: stopped")

// fresh allocates n variables for the encoding and returns the first,
// or panics with ErrStopped once the solver's Stop flag is set.
func (e *Encoder) fresh(n int) int {
	if e.S.Stop != nil && e.S.Stop.Load() {
		panic(ErrStopped)
	}
	return e.S.NewVars(n)
}

// Frame assigns SAT variables to a set of ts variables at one point in
// time. Frames are created by Encoder.NewFrame.
type Frame struct {
	id   int32
	vars []*expr.Var // declaration order, for deterministic iteration
	bits map[*expr.Var]bv
	memo memoTab // the nodes that read this frame alone
}

// bv is an offset bitvector: value = off + Σ bits[i]·2^i where each
// bit is a SAT literal (possibly a constant literal).
type bv struct {
	lits []sat.Lit // LSB first
	off  int64
}

// Encoder compiles expressions to CNF incrementally.
//
// It numbers each distinct expression node once, the first time a
// root reaching it is compiled, and memoizes a node's compilation under
// the frames the node actually reads: a node over current-state
// variables only is compiled once per current frame, whatever the next
// frame, and one reading no variable is compiled once. The memo tables
// are slices indexed by a node's slot among the nodes of its read
// class — one table per frame for single-frame nodes, one per (cur,
// next) pair for nodes reading both — so adding a frame hashes no
// expression pointer. Below the node level, gateMemo hashes the gates
// themselves, which shares structure across roots and frames.
type Encoder struct {
	S *sat.Solver

	// Params, when set, resolves variables not found in a frame —
	// parameters live in a single time-invariant frame. Set it before
	// compiling anything that reads a parameter.
	Params *Frame

	// Extern, when set, is consulted before compiling any boolean
	// node; returning ok=true short-circuits with the given literal.
	// The SMT layer uses this to claim real-valued comparisons as
	// theory atoms while the finite structure stays in CNF. Set it
	// before compiling anything: the hook may build fresh terms per
	// (cur, next) pair, so an encoder with a hook keys every node by
	// both frames.
	Extern func(ex *expr.Expr, cur, next *Frame) (sat.Lit, bool)

	trueLit sat.Lit
	nextFid int32

	index   map[*expr.Expr]int32 // node number of every numbered expression
	nodes   []node
	args    []int32  // argument node numbers, sliced by node.lo/hi
	pending []int32  // numbering scratch
	slots   [3]int32 // slots handed out per read class: none, one frame, both

	global   memoTab // nodes that read no frame
	unbound  memoTab // single-frame nodes compiled against a nil frame
	pairs    map[[2]int32]*memoTab
	pairKey  [2]int32 // the last pair looked up, and its table
	pairTab  *memoTab
	gateMemo map[gateKey]sat.Lit
	cardMemo map[cardKey][]sat.Lit

	// Literal storage. Bitvector literals are carved from slab, a chunk
	// that is replaced when full, so a bitvector costs no allocation of
	// its own; stack is LIFO scratch for argument lists and andBuf and
	// orBuf are the gate builders' operand buffers.
	slab   []sat.Lit
	stack  []sat.Lit
	andBuf []sat.Lit
	orBuf  []sat.Lit
}

// node is one numbered expression node.
type node struct {
	ex     *expr.Expr
	lo, hi int32 // argument node numbers: Encoder.args[lo:hi]
	reads  uint8 // readsCur | readsNext
	class  uint8 // 0: reads no frame, 1: one frame, 2: both
	slot   int32 // index into the memo tables of its class
}

const (
	readsCur uint8 = 1 << iota
	readsNext
)

// memoTab holds the compiled nodes of one memo key, indexed by slot.
// A literal is stored plus one, so 0 means "not compiled"; a bitvector
// is present when its lits slice is non-nil (see noLits).
type memoTab struct {
	lits []int32
	bvs  []bv
}

// noLits marks a memoized bitvector without literal bits (a constant).
var noLits = []sat.Lit{}

const slabChunk = 4096

type gateKey struct {
	op      byte // '&', '|', '^', 'm' (majority), 'i' (ite)
	a, b, c sat.Lit
}

type cardKey struct {
	node     int32 // the Count node
	cur, nxt int32 // the frames it reads, 0 for a frame it does not
	k        int
}

// NewEncoder returns an encoder over solver s. A fresh "constant true"
// variable is allocated immediately.
func NewEncoder(s *sat.Solver) *Encoder {
	e := &Encoder{
		S:        s,
		index:    make(map[*expr.Expr]int32),
		pairs:    make(map[[2]int32]*memoTab),
		pairKey:  [2]int32{-1, -1},
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
//
// The variables come in two batches of sat.Solver.NewVars rather than
// one per bit. The split falls after the first variable with a domain
// clause: adding that clause backtracks the solver to level 0, which
// returns the trail's variables to the branching heap, so allocating
// exactly the variables before it first keeps the heap — and every
// later decision — as one-at-a-time allocation leaves it.
func (e *Encoder) NewFrame(vars []*expr.Var) *Frame {
	e.nextFid++
	f := &Frame{
		id:   e.nextFid,
		vars: append([]*expr.Var(nil), vars...),
		bits: make(map[*expr.Var]bv, len(vars)),
	}
	split, head, total := len(vars), 0, 0
	for i, v := range vars {
		w := varWidth(v.T)
		total += w
		if split == len(vars) && v.T.Kind != expr.KindBool && domainClauses(v.T, w) {
			split, head = i+1, total
		}
	}
	if split == len(vars) {
		head = total
	}
	lits := e.carve(total)
	e.bind(f, vars[:split], lits[:head])
	e.bind(f, vars[split:], lits[head:])
	return f
}

// bind allocates the bits of vars, lits in all, and asserts their
// domain constraints.
func (e *Encoder) bind(f *Frame, vars []*expr.Var, lits []sat.Lit) {
	first := e.fresh(len(lits))
	for i := range lits {
		lits[i] = sat.Pos(first + i)
	}
	for _, v := range vars {
		w := varWidth(v.T)
		b := bv{lits: lits[:w:w]}
		lits = lits[w:]
		if v.T.Kind != expr.KindBool {
			lo, hi := domainBounds(v.T)
			b.off = lo
			if w == 0 {
				b.lits = nil // singleton domain, no bits
			}
			e.assertLeConst(b.lits, uint64(hi-lo))
		}
		f.bits[v] = b
	}
}

// domainClauses reports whether an integer or enum variable of type t,
// w bits wide, needs clauses to exclude values past its domain.
func domainClauses(t expr.Type, w int) bool {
	lo, hi := domainBounds(t)
	return uint64(hi-lo) < (1<<uint(w))-1
}

// varWidth is the number of SAT variables a variable of type t takes.
func varWidth(t expr.Type) int {
	switch t.Kind {
	case expr.KindBool:
		return 1
	case expr.KindInt, expr.KindEnum:
		lo, hi := domainBounds(t)
		return bits.Len64(uint64(hi - lo))
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
		base := len(e.stack)
		e.stack = append(e.stack, ls[i].Not())
		for j := i + 1; j < len(ls); j++ {
			if c>>uint(j)&1 == 1 {
				e.stack = append(e.stack, ls[j].Not())
			}
		}
		e.S.AddClause(e.stack[base:]...)
		e.stack = e.stack[:base]
	}
}

// carve returns n literals of slab storage for the caller to fill. The
// slice's capacity is n, so appending to it never reaches a neighbour.
// Chunks double from a small first one up to slabChunk, so an encoder
// of a small model holds little.
func (e *Encoder) carve(n int) []sat.Lit {
	if cap(e.slab)-len(e.slab) < n {
		e.slab = make([]sat.Lit, 0, max(min(2*cap(e.slab), slabChunk), n, 64))
	}
	l := len(e.slab)
	e.slab = e.slab[:l+n]
	return e.slab[l : l+n : l+n]
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
	return e.lit(e.number(ex), cur, next)
}

// number returns ex's node number, numbering ex and every node below
// it that has none yet. A node reads the union of what its arguments
// read; next(v) reads the next frame and nothing else.
func (e *Encoder) number(ex *expr.Expr) int32 {
	if i, ok := e.index[ex]; ok {
		return i
	}
	base := len(e.pending)
	var reads uint8
	switch ex.Op {
	case expr.OpVar:
		reads = readsCur
	case expr.OpNext:
		reads = readsNext
	default:
		for _, a := range ex.Args {
			j := e.number(a)
			e.pending = append(e.pending, j)
			reads |= e.nodes[j].reads
		}
	}
	if e.Extern != nil {
		reads = readsCur | readsNext
	}
	var class uint8
	switch reads {
	case readsCur, readsNext:
		class = 1
	case readsCur | readsNext:
		class = 2
	}
	i, lo := int32(len(e.nodes)), int32(len(e.args))
	e.args = append(e.args, e.pending[base:]...)
	e.pending = e.pending[:base]
	e.nodes = append(e.nodes, node{ex: ex, lo: lo, hi: int32(len(e.args)), reads: reads, class: class, slot: e.slots[class]})
	e.slots[class]++
	e.index[ex] = i
	return i
}

// tab returns the memo table node n's compilation under (cur, next)
// lives in.
func (e *Encoder) tab(n *node, cur, next *Frame) *memoTab {
	switch n.reads {
	case 0:
		return &e.global
	case readsCur:
		return e.frameTab(cur)
	case readsNext:
		return e.frameTab(next)
	}
	k := [2]int32{frameID(cur), frameID(next)}
	if k != e.pairKey {
		t := e.pairs[k]
		if t == nil {
			t = &memoTab{}
			e.pairs[k] = t
		}
		e.pairKey, e.pairTab = k, t
	}
	return e.pairTab
}

func (e *Encoder) frameTab(f *Frame) *memoTab {
	if f == nil {
		return &e.unbound
	}
	return &f.memo
}

func (e *Encoder) lit(i int32, cur, next *Frame) sat.Lit {
	n := e.nodes[i]
	t := e.tab(&n, cur, next)
	if int(n.slot) < len(t.lits) && t.lits[n.slot] != 0 {
		return sat.Lit(t.lits[n.slot] - 1)
	}
	l := e.compileBool(i, cur, next)
	if int(n.slot) >= len(t.lits) {
		t.lits = append(t.lits, make([]int32, int(e.slots[n.class])-len(t.lits))...)
	}
	t.lits[n.slot] = int32(l) + 1
	return l
}

func frameID(f *Frame) int32 {
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

// litArgs compiles the given argument nodes onto the scratch stack and
// returns them there with the stack's previous height; the caller
// consumes them and truncates the stack back to base.
func (e *Encoder) litArgs(args []int32, cur, next *Frame) (ls []sat.Lit, base int) {
	base = len(e.stack)
	for _, a := range args {
		l := e.lit(a, cur, next)
		e.stack = append(e.stack, l)
	}
	return e.stack[base:], base
}

func (e *Encoder) compileBool(i int32, cur, next *Frame) sat.Lit {
	n := e.nodes[i]
	ex, args := n.ex, e.args[n.lo:n.hi]
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
		return e.lit(args[0], cur, next).Not()
	case expr.OpAnd, expr.OpOr:
		ls, base := e.litArgs(args, cur, next)
		var l sat.Lit
		if ex.Op == expr.OpAnd {
			l = e.mkAndN(ls)
		} else {
			l = e.mkOrN(ls)
		}
		e.stack = e.stack[:base]
		return l
	case expr.OpImplies:
		a := e.lit(args[0], cur, next)
		return e.mkOrN([]sat.Lit{a.Not(), e.lit(args[1], cur, next)})
	case expr.OpIff:
		a := e.lit(args[0], cur, next)
		return e.mkXor(a, e.lit(args[1], cur, next)).Not()
	case expr.OpXor:
		a := e.lit(args[0], cur, next)
		return e.mkXor(a, e.lit(args[1], cur, next))
	case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
		return e.compileCompare(ex, args, cur, next)
	}
	failf("cannot compile boolean op %v (expression %s)", ex.Op, ex)
	panic("unreachable")
}

func (e *Encoder) compileCompare(ex *expr.Expr, args []int32, cur, next *Frame) sat.Lit {
	// Boolean/enum equality.
	if ex.Args[0].Type().Kind == expr.KindEnum {
		av := e.bvOf(args[0], cur, next)
		eq := e.mkEqBV(av, e.bvOf(args[1], cur, next))
		if ex.Op == expr.OpNe {
			return eq.Not()
		}
		return eq
	}
	// Cardinality special case: Count(...) ⋈ const (either side).
	if l, ok := e.tryCardinality(ex, args, cur, next); ok {
		return l
	}
	av := e.bvOf(args[0], cur, next)
	bvv := e.bvOf(args[1], cur, next)
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

// bvOf compiles a finite-domain node to an offset bitvector.
func (e *Encoder) bvOf(i int32, cur, next *Frame) bv {
	n := e.nodes[i]
	t := e.tab(&n, cur, next)
	if int(n.slot) < len(t.bvs) && t.bvs[n.slot].lits != nil {
		return t.bvs[n.slot]
	}
	b := e.compileBV(i, cur, next)
	if int(n.slot) >= len(t.bvs) {
		t.bvs = append(t.bvs, make([]bv, int(e.slots[n.class])-len(t.bvs))...)
	}
	stored := b
	if stored.lits == nil {
		stored.lits = noLits
	}
	t.bvs[n.slot] = stored
	return b
}

// one carves a one-bit literal vector holding l.
func (e *Encoder) one(l sat.Lit) []sat.Lit {
	ls := e.carve(1)
	ls[0] = l
	return ls
}

func (e *Encoder) compileBV(i int32, cur, next *Frame) bv {
	n := e.nodes[i]
	ex, args := n.ex, e.args[n.lo:n.hi]
	switch ex.Op {
	case expr.OpConst:
		switch ex.Val.Kind {
		case expr.KindInt:
			return bv{off: ex.Val.I}
		case expr.KindEnum:
			return bv{off: int64(ex.Type().EnumIndex(ex.Val.Sym))}
		case expr.KindBool:
			if ex.Val.B {
				return bv{lits: e.one(e.trueLit)}
			}
			return bv{}
		}
	case expr.OpVar:
		return e.varBits(ex.V, cur, "current")
	case expr.OpNext:
		return e.varBits(ex.V, next, "next")
	case expr.OpAdd:
		acc := e.bvOf(args[0], cur, next)
		for _, a := range args[1:] {
			acc = e.mkAddBV(acc, e.bvOf(a, cur, next))
		}
		return acc
	case expr.OpSub:
		a := e.bvOf(args[0], cur, next)
		return e.mkAddBV(a, e.negBV(e.bvOf(args[1], cur, next)))
	case expr.OpNeg:
		return e.negBV(e.bvOf(args[0], cur, next))
	case expr.OpMul:
		acc := e.bvOf(args[0], cur, next)
		for _, a := range args[1:] {
			acc = e.mkMulBV(acc, e.bvOf(a, cur, next))
		}
		return acc
	case expr.OpIte:
		c := e.lit(args[0], cur, next)
		a := e.bvOf(args[1], cur, next)
		return e.mkIteBV(c, a, e.bvOf(args[2], cur, next))
	case expr.OpCount:
		ls, base := e.litArgs(args, cur, next)
		b := e.mkPopcount(ls)
		e.stack = e.stack[:base]
		return b
	}
	if ex.Type().Kind == expr.KindBool {
		// A boolean used in an integer context (e.g. via Ite branches).
		return bv{lits: e.one(e.lit(i, cur, next))}
	}
	failf("cannot bit-blast op %v in %s", ex.Op, ex)
	panic("unreachable")
}

// negBV negates an offset bitvector: -(off + U) where U has width w is
// (-off - (2^w - 1)) + ~U, and ~U is just literal negation.
func (e *Encoder) negBV(a bv) bv {
	ls := e.carve(len(a.lits))
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
	sum := e.carve(w + 1)
	carry := e.False()
	for i := 0; i < w; i++ {
		ai, bi := e.bitAt(a, i), e.bitAt(b, i)
		sum[i] = e.mkXor(e.mkXor(ai, bi), carry)
		carry = e.mkMaj(ai, bi, carry)
	}
	sum[w] = carry
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
		acc = e.negBV(acc)
	}
	acc.off += a.off * b.off
	return acc
}

func (e *Encoder) shiftBV(a bv, n int) bv {
	ls := e.carve(n + len(a.lits))
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
	ls := e.carve(w)
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
	r := e.mkAddBV(bv{lits: a.lits}, e.constBV(d))
	r.off = newOff
	return r
}

func (e *Encoder) constBV(k int64) bv {
	if k < 0 {
		panic("cnf: constBV negative")
	}
	ls := e.carve(bits.Len64(uint64(k)))
	for i := range ls {
		if k>>uint(i)&1 == 1 {
			ls[i] = e.trueLit
		} else {
			ls[i] = e.False()
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
	nb := e.negBV(b) // bits = ~U_b, off = -b.off - (2^wb - 1)
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
	base := len(e.stack)
	for i, l := range ls {
		if c>>uint(i)&1 == 0 {
			l = l.Not()
		}
		e.stack = append(e.stack, l)
	}
	g := e.mkAndN(e.stack[base:])
	e.stack = e.stack[:base]
	return g
}

// mkPopcount sums single-bit values with a balanced adder tree.
func (e *Encoder) mkPopcount(ls []sat.Lit) bv {
	if len(ls) == 0 {
		return bv{}
	}
	vecs := make([]bv, len(ls))
	for i, l := range ls {
		vecs[i] = bv{lits: e.one(l)}
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

// mkAndN and mkOrN build their operand lists in andBuf and orBuf;
// neither reaches back into the other's buffer or into itself.
func (e *Encoder) mkAndN(ls []sat.Lit) sat.Lit {
	out := e.andBuf[:0]
	for _, l := range ls {
		if l == e.trueLit {
			continue
		}
		if l == e.False() {
			return e.False()
		}
		out = append(out, l)
	}
	e.andBuf = out
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
	neg := e.orBuf[:0]
	for _, l := range ls {
		neg = append(neg, l.Not())
	}
	e.orBuf = neg
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
		g = sat.Pos(e.fresh(1))
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
	g := sat.Pos(e.fresh(1))
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
	g := sat.Pos(e.fresh(1))
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
	g := sat.Pos(e.fresh(1))
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
func (e *Encoder) tryCardinality(ex *expr.Expr, args []int32, cur, next *Frame) (sat.Lit, bool) {
	a, b := ex.Args[0], ex.Args[1]
	op := ex.Op
	var cnt int32
	var k int64
	switch {
	case a.Op == expr.OpCount && b.Op == expr.OpConst && b.Val.Kind == expr.KindInt:
		cnt, k = args[0], b.Val.I
	case b.Op == expr.OpCount && a.Op == expr.OpConst && a.Val.Kind == expr.KindInt:
		cnt, k = args[1], a.Val.I
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
	n := int64(len(e.nodes[cnt].ex.Args))
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
// (count node, the frames it reads, maxJ).
func (e *Encoder) seqCounter(cnt int32, cur, next *Frame, maxJ int) []sat.Lit {
	nd := e.nodes[cnt]
	key := cardKey{node: cnt, k: maxJ}
	if nd.reads&readsCur != 0 {
		key.cur = frameID(cur)
	}
	if nd.reads&readsNext != 0 {
		key.nxt = frameID(next)
	}
	if outs, ok := e.cardMemo[key]; ok {
		return outs
	}
	xs, base := e.litArgs(e.args[nd.lo:nd.hi], cur, next)
	// s[j-1] after processing i bits == at least j of the first i true.
	row := e.carve(maxJ)
	for j := range row {
		row[j] = e.False()
	}
	for _, x := range xs {
		newRow := e.carve(maxJ)
		for j := 0; j < maxJ; j++ {
			prev := e.trueLit
			if j > 0 {
				prev = row[j-1]
			}
			// newRow[j] = row[j] | (x_i & prev)
			newRow[j] = e.mkOrN([]sat.Lit{row[j], e.mkAndN([]sat.Lit{x, prev})})
		}
		row = newRow
	}
	e.stack = e.stack[:base]
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

// ValueLits returns the literals that state "v has value val in frame
// f", one per bit of v, LSB first: a conjunction of them pins v to val.
// It adds nothing to the solver.
func (e *Encoder) ValueLits(f *Frame, v *expr.Var, val expr.Value) []sat.Lit {
	b := e.varBits(v, f, "ValueLits of")
	code := val.I - b.off
	switch v.T.Kind {
	case expr.KindBool:
		code = 0
		if val.B {
			code = 1
		}
	case expr.KindEnum:
		code = int64(v.T.EnumIndex(val.Sym))
	}
	out := slices.Clone(b.lits)
	for i := range out {
		if code>>uint(i)&1 == 0 {
			out[i] = out[i].Not()
		}
	}
	return out
}

// EqFrames returns a literal true iff every variable common to both
// frames has equal value — used for lasso loop closure in BMC.
func (e *Encoder) EqFrames(a, b *Frame) sat.Lit {
	base := len(e.stack)
	for _, v := range a.vars {
		bb, ok := b.bits[v]
		if !ok {
			continue
		}
		l := e.mkEqBV(a.bits[v], bb)
		e.stack = append(e.stack, l)
	}
	g := e.mkAndN(e.stack[base:])
	e.stack = e.stack[:base]
	return g
}
