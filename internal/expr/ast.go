package expr

import (
	"cmp"
	"fmt"
	"math/big"
	"strings"
)

// Op enumerates expression node operators.
type Op int

const (
	OpConst Op = iota // leaf: Val
	OpVar             // leaf: V
	OpNext            // next-state value of Args[0] (a variable)
	OpNot
	OpAnd
	OpOr
	OpImplies
	OpIff
	OpXor
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpNeg
	OpMul
	OpDiv
	OpIte   // Args[0] bool, Args[1]/Args[2] same type
	OpCount // number of true booleans among Args; int-typed
)

var opNames = map[Op]string{
	OpConst: "const", OpVar: "var", OpNext: "next", OpNot: "!",
	OpAnd: "&", OpOr: "|", OpImplies: "->", OpIff: "<->", OpXor: "xor",
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpNeg: "-", OpMul: "*", OpDiv: "/",
	OpIte: "ite", OpCount: "count",
}

func (o Op) String() string { return opNames[o] }

// Var is a state variable or parameter. Vars are created by the owning
// transition system (package ts) and compared by pointer identity.
type Var struct {
	Name string
	T    Type
	// ID is assigned by the owning system; unique within it.
	ID int
	// Param marks frozen variables (configuration parameters /
	// environment constants): the engines constrain next(v) = v.
	Param bool
}

func (v *Var) String() string { return v.Name }

// Ref returns an expression referring to the current-state value of v.
func (v *Var) Ref() *Expr { return &Expr{Op: OpVar, T: v.T, V: v} }

// Next returns an expression referring to the next-state value of v.
func (v *Var) Next() *Expr {
	return &Expr{Op: OpNext, T: v.T, V: v, Args: []*Expr{v.Ref()}}
}

// Expr is an immutable typed expression tree. Construct expressions
// with the package-level constructor functions, which type-check their
// arguments and panic on misuse (a construction-time programmer
// error, analogous to an out-of-range slice index).
type Expr struct {
	Op   Op
	T    Type
	Args []*Expr
	Val  Value // OpConst only
	V    *Var  // OpVar / OpNext only
}

// Type returns the expression's type.
func (e *Expr) Type() Type { return e.T }

// --- Constant constructors ---

var (
	trueExpr  = &Expr{Op: OpConst, T: Bool(), Val: BoolValue(true)}
	falseExpr = &Expr{Op: OpConst, T: Bool(), Val: BoolValue(false)}
)

// True is the boolean constant true.
func True() *Expr { return trueExpr }

// False is the boolean constant false.
func False() *Expr { return falseExpr }

// BoolConst returns the boolean constant b.
func BoolConst(b bool) *Expr {
	if b {
		return trueExpr
	}
	return falseExpr
}

// IntConst returns the integer constant i (typed as the singleton
// range [i, i]; numeric operators widen as needed).
func IntConst(i int64) *Expr {
	return &Expr{Op: OpConst, T: Int(i, i), Val: IntValue(i)}
}

// EnumConst returns the enum constant sym of type t. It panics if sym
// is not a value of t.
func EnumConst(t Type, sym string) *Expr {
	if t.Kind != KindEnum || t.EnumIndex(sym) < 0 {
		panic(fmt.Sprintf("expr: %q is not a value of %s", sym, t))
	}
	return &Expr{Op: OpConst, T: t, Val: EnumValue(sym)}
}

// RealConst returns the real constant r; r must not be mutated later.
func RealConst(r *big.Rat) *Expr {
	return &Expr{Op: OpConst, T: Real(), Val: RealValue(r)}
}

// RealFrac returns the real constant num/den.
func RealFrac(num, den int64) *Expr {
	return RealConst(big.NewRat(num, den))
}

// Const wraps an arbitrary value; enum values need the enum type t.
func Const(v Value, t Type) *Expr {
	switch v.Kind {
	case KindBool:
		return BoolConst(v.B)
	case KindInt:
		return IntConst(v.I)
	case KindEnum:
		return EnumConst(t, v.Sym)
	case KindReal:
		return RealConst(v.R)
	}
	panic("expr: bad value kind")
}

// IsConst reports whether e is a constant, returning its value.
func (e *Expr) IsConst() (Value, bool) {
	if e.Op == OpConst {
		return e.Val, true
	}
	return Value{}, false
}

// IsTrue reports whether e is the constant true.
func (e *Expr) IsTrue() bool { return e.Op == OpConst && e.T.Kind == KindBool && e.Val.B }

// IsFalse reports whether e is the constant false.
func (e *Expr) IsFalse() bool { return e.Op == OpConst && e.T.Kind == KindBool && !e.Val.B }

// --- Boolean connectives ---

func requireBool(op Op, es ...*Expr) {
	for _, e := range es {
		if e.T.Kind != KindBool {
			panic(fmt.Sprintf("expr: %s applied to non-boolean %s (%s)", op, e, e.T))
		}
	}
}

// Not negates a boolean expression, folding constants and double
// negation.
func Not(e *Expr) *Expr {
	requireBool(OpNot, e)
	if v, ok := e.IsConst(); ok {
		return BoolConst(!v.B)
	}
	if e.Op == OpNot {
		return e.Args[0]
	}
	return &Expr{Op: OpNot, T: Bool(), Args: []*Expr{e}}
}

// And conjoins boolean expressions; the empty conjunction is true.
// Constant arguments fold away.
func And(es ...*Expr) *Expr { return nary(OpAnd, true, es) }

// Or disjoins boolean expressions; the empty disjunction is false.
// Constant arguments fold away.
func Or(es ...*Expr) *Expr { return nary(OpOr, false, es) }

func nary(op Op, unit bool, es []*Expr) *Expr {
	requireBool(op, es...)
	args := make([]*Expr, 0, len(es))
	for _, e := range es {
		if v, ok := e.IsConst(); ok {
			if v.B == unit {
				continue // identity element
			}
			return BoolConst(!unit) // absorbing element
		}
		if e.Op == op {
			args = append(args, e.Args...)
			continue
		}
		args = append(args, e)
	}
	switch len(args) {
	case 0:
		return BoolConst(unit)
	case 1:
		return args[0]
	}
	return &Expr{Op: op, T: Bool(), Args: args}
}

// Implies returns a -> b.
func Implies(a, b *Expr) *Expr {
	requireBool(OpImplies, a, b)
	if a.IsTrue() {
		return b
	}
	if a.IsFalse() {
		return True()
	}
	if b.IsTrue() {
		return True()
	}
	if b.IsFalse() {
		return Not(a)
	}
	return &Expr{Op: OpImplies, T: Bool(), Args: []*Expr{a, b}}
}

// Iff returns a <-> b.
func Iff(a, b *Expr) *Expr {
	requireBool(OpIff, a, b)
	if a.IsTrue() {
		return b
	}
	if b.IsTrue() {
		return a
	}
	if a.IsFalse() {
		return Not(b)
	}
	if b.IsFalse() {
		return Not(a)
	}
	return &Expr{Op: OpIff, T: Bool(), Args: []*Expr{a, b}}
}

// Xor returns a xor b.
func Xor(a, b *Expr) *Expr {
	requireBool(OpXor, a, b)
	return Not(Iff(a, b))
}

// --- Numeric operators ---

func numeric(e *Expr) bool { return e.T.Kind == KindInt || e.T.Kind == KindReal }

func numKind(op Op, es ...*Expr) Kind {
	kind := KindInt
	for _, e := range es {
		if !numeric(e) {
			panic(fmt.Sprintf("expr: %s applied to non-numeric %s (%s)", op, e, e.T))
		}
		if e.T.Kind == KindReal {
			kind = KindReal
		}
	}
	return kind
}

// Add sums numeric expressions. The result is real if any argument is
// real; otherwise a bounded int with interval-derived bounds.
func Add(es ...*Expr) *Expr {
	if len(es) == 0 {
		return IntConst(0)
	}
	kind := numKind(OpAdd, es...)
	if len(es) == 1 {
		return es[0]
	}
	t := Real()
	if kind == KindInt {
		var lo, hi int64
		for _, e := range es {
			lo += e.T.Lo
			hi += e.T.Hi
		}
		t = Int(lo, hi)
	}
	if v, ok := foldNumeric(OpAdd, kind, es); ok {
		return Const(v, t)
	}
	return &Expr{Op: OpAdd, T: t, Args: es}
}

// Sub returns a - b.
func Sub(a, b *Expr) *Expr {
	kind := numKind(OpSub, a, b)
	t := Real()
	if kind == KindInt {
		t = Int(a.T.Lo-b.T.Hi, a.T.Hi-b.T.Lo)
	}
	if v, ok := foldNumeric(OpSub, kind, []*Expr{a, b}); ok {
		return Const(v, t)
	}
	return &Expr{Op: OpSub, T: t, Args: []*Expr{a, b}}
}

// Neg returns -a.
func Neg(a *Expr) *Expr {
	kind := numKind(OpNeg, a)
	t := Real()
	if kind == KindInt {
		t = Int(-a.T.Hi, -a.T.Lo)
	}
	if v, ok := foldNumeric(OpNeg, kind, []*Expr{a}); ok {
		return Const(v, t)
	}
	return &Expr{Op: OpNeg, T: t, Args: []*Expr{a}}
}

// Mul multiplies numeric expressions. For bounded ints the result
// bounds are derived by interval arithmetic.
func Mul(es ...*Expr) *Expr {
	kind := numKind(OpMul, es...)
	if len(es) == 1 {
		return es[0]
	}
	t := Real()
	if kind == KindInt {
		lo, hi := es[0].T.Lo, es[0].T.Hi
		for _, e := range es[1:] {
			lo, hi = mulRange(lo, hi, e.T.Lo, e.T.Hi)
		}
		t = Int(lo, hi)
	}
	if v, ok := foldNumeric(OpMul, kind, es); ok {
		return Const(v, t)
	}
	return &Expr{Op: OpMul, T: t, Args: es}
}

func mulRange(alo, ahi, blo, bhi int64) (int64, int64) {
	cands := [4]int64{alo * blo, alo * bhi, ahi * blo, ahi * bhi}
	lo, hi := cands[0], cands[0]
	for _, c := range cands[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	return lo, hi
}

// Div returns a / b over the reals. Integer division is not supported:
// none of the paper's models need it and the engines would disagree on
// rounding semantics.
func Div(a, b *Expr) *Expr {
	numKind(OpDiv, a, b)
	return &Expr{Op: OpDiv, T: Real(), Args: []*Expr{a, b}}
}

func foldNumeric(op Op, kind Kind, es []*Expr) (Value, bool) {
	for _, e := range es {
		if e.Op != OpConst {
			return Value{}, false
		}
	}
	if kind == KindInt {
		var acc int64
		switch op {
		case OpAdd:
			for _, e := range es {
				acc += e.Val.I
			}
		case OpSub:
			acc = es[0].Val.I - es[1].Val.I
		case OpNeg:
			acc = -es[0].Val.I
		case OpMul:
			acc = 1
			for _, e := range es {
				acc *= e.Val.I
			}
		default:
			return Value{}, false
		}
		return IntValue(acc), true
	}
	acc := new(big.Rat)
	switch op {
	case OpAdd:
		for _, e := range es {
			acc.Add(acc, e.Val.Rat())
		}
	case OpSub:
		acc.Sub(es[0].Val.Rat(), es[1].Val.Rat())
	case OpNeg:
		acc.Neg(es[0].Val.Rat())
	case OpMul:
		acc.SetInt64(1)
		for _, e := range es {
			acc.Mul(acc, e.Val.Rat())
		}
	default:
		return Value{}, false
	}
	return RealValue(acc), true
}

// --- Comparisons ---

// Eq returns a = b. Operands must be both numeric, both boolean, or
// both of the same enum type.
func Eq(a, b *Expr) *Expr { return compare(OpEq, a, b) }

// Ne returns a != b.
func Ne(a, b *Expr) *Expr { return compare(OpNe, a, b) }

// Lt returns a < b (numeric only).
func Lt(a, b *Expr) *Expr { return compare(OpLt, a, b) }

// Le returns a <= b (numeric only).
func Le(a, b *Expr) *Expr { return compare(OpLe, a, b) }

// Gt returns a > b (numeric only).
func Gt(a, b *Expr) *Expr { return compare(OpGt, a, b) }

// Ge returns a >= b (numeric only).
func Ge(a, b *Expr) *Expr { return compare(OpGe, a, b) }

func compare(op Op, a, b *Expr) *Expr {
	switch {
	case numeric(a) && numeric(b):
		// ok
	case op == OpEq || op == OpNe:
		if !a.T.Equal(b.T) {
			panic(fmt.Sprintf("expr: %s between incompatible types %s and %s", op, a.T, b.T))
		}
	default:
		panic(fmt.Sprintf("expr: ordered comparison %s on non-numeric types %s, %s", op, a.T, b.T))
	}
	if a.Op == OpConst && b.Op == OpConst {
		return BoolConst(evalCompare(op, a.Val, b.Val))
	}
	// Boolean equality is just iff.
	if a.T.Kind == KindBool {
		if op == OpEq {
			return Iff(a, b)
		}
		if op == OpNe {
			return Xor(a, b)
		}
	}
	return &Expr{Op: op, T: Bool(), Args: []*Expr{a, b}}
}

func evalCompare(op Op, a, b Value) bool {
	if a.Kind == KindEnum || a.Kind == KindBool {
		eq := a.Equal(b)
		if op == OpEq {
			return eq
		}
		return !eq
	}
	var c int
	if a.Kind == KindInt && b.Kind == KindInt {
		c = cmp.Compare(a.I, b.I)
	} else {
		c = a.Rat().Cmp(b.Rat())
	}
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	panic("expr: bad comparison op")
}

// --- Ite and Count ---

// Ite returns if cond then a else b. a and b must have compatible
// types; mixed int/real promotes to real, and mixed int ranges widen.
func Ite(cond, a, b *Expr) *Expr {
	requireBool(OpIte, cond)
	t, ok := unify(a.T, b.T)
	if !ok {
		panic(fmt.Sprintf("expr: ite branches of incompatible types %s and %s", a.T, b.T))
	}
	if cond.IsTrue() {
		return a
	}
	if cond.IsFalse() {
		return b
	}
	if t.Kind == KindBool {
		// Lower to pure boolean structure so every engine handles it.
		return Or(And(cond, a), And(Not(cond), b))
	}
	return &Expr{Op: OpIte, T: t, Args: []*Expr{cond, a, b}}
}

func unify(a, b Type) (Type, bool) {
	if a.Equal(b) {
		return a, true
	}
	if a.Kind == KindInt && b.Kind == KindInt {
		return Int(min64(a.Lo, b.Lo), max64(a.Hi, b.Hi)), true
	}
	if (a.Kind == KindInt || a.Kind == KindReal) && (b.Kind == KindInt || b.Kind == KindReal) {
		return Real(), true
	}
	return Type{}, false
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Count returns the number of true expressions among es, as a bounded
// int in [0, len(es)]. The CNF compiler lowers Count comparisons to a
// sequential-counter cardinality encoding rather than adder chains.
func Count(es ...*Expr) *Expr {
	requireBool(OpCount, es...)
	fixed := int64(0)
	args := make([]*Expr, 0, len(es))
	for _, e := range es {
		if v, ok := e.IsConst(); ok {
			if v.B {
				fixed++
			}
			continue
		}
		args = append(args, e)
	}
	if len(args) == 0 {
		return IntConst(fixed)
	}
	cnt := &Expr{Op: OpCount, T: Int(0, int64(len(args))), Args: args}
	if fixed == 0 {
		return cnt
	}
	return Add(cnt, IntConst(fixed))
}

// --- Printing ---

func (e *Expr) String() string {
	var b strings.Builder
	e.format(&b)
	return b.String()
}

func (e *Expr) format(b *strings.Builder) {
	switch e.Op {
	case OpConst:
		b.WriteString(e.Val.String())
	case OpVar:
		b.WriteString(e.V.Name)
	case OpNext:
		b.WriteString("next(")
		b.WriteString(e.V.Name)
		b.WriteString(")")
	case OpNot:
		b.WriteString("!")
		e.Args[0].formatParen(b)
	case OpNeg:
		b.WriteString("-")
		e.Args[0].formatParen(b)
	case OpIte:
		b.WriteString("ite(")
		e.Args[0].format(b)
		b.WriteString(", ")
		e.Args[1].format(b)
		b.WriteString(", ")
		e.Args[2].format(b)
		b.WriteString(")")
	case OpCount:
		b.WriteString("count(")
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			a.format(b)
		}
		b.WriteString(")")
	default:
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(" ")
				b.WriteString(e.Op.String())
				b.WriteString(" ")
			}
			a.formatParen(b)
		}
	}
}

func (e *Expr) formatParen(b *strings.Builder) {
	switch e.Op {
	case OpConst, OpVar, OpNext, OpIte, OpCount, OpNot:
		e.format(b)
	default:
		b.WriteString("(")
		e.format(b)
		b.WriteString(")")
	}
}
