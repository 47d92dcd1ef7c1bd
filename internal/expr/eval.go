package expr

import (
	"fmt"
	"math/big"
)

// Env supplies concrete values for variables during evaluation.
type Env interface {
	// Value returns the value bound to v, and whether a binding exists.
	Value(v *Var) (Value, bool)
}

// MapEnv is the map-backed Env used throughout the engines.
type MapEnv map[*Var]Value

// Value implements Env.
func (m MapEnv) Value(v *Var) (Value, bool) {
	val, ok := m[v]
	return val, ok
}

// EmptyEnv binds nothing.
var EmptyEnv Env = MapEnv(nil)

// Eval evaluates e with cur binding current-state variables and next
// binding next-state variables (next may be nil when e contains no
// OpNext nodes). It returns an error when a referenced variable is
// unbound or a division by zero occurs. Callers evaluating the same
// expression in many states should Compile it once instead.
func Eval(e *Expr, cur, next Env) (Value, error) {
	return Compile(e).Eval(cur, next)
}

// EvalBool evaluates a boolean expression, returning its truth value.
func EvalBool(e *Expr, cur, next Env) (bool, error) {
	return Compile(e).EvalBool(cur, next)
}

// Program is an expression compiled for repeated evaluation. Compile
// numbers each distinct node of the expression DAG once, and each Eval
// computes every node it needs at most once, into a slot array reused
// across calls. A shared subterm therefore costs one evaluation however
// many parents reach it, where a tree walk would pay once per path to
// it.
//
// Evaluation is lazy: And, Or, Implies and Ite evaluate only the
// operands they need, so an unbound variable or a division by zero in
// a branch that is not taken raises no error. A Program is not safe
// for concurrent use.
type Program struct {
	nodes []progNode
	args  []int32 // node argument numbers, sliced by progNode.lo/hi
	vals  []Value
	stamp []uint32 // vals[i] is current iff stamp[i] == epoch
	epoch uint32

	cur, next Env
}

type progNode struct {
	e      *Expr
	lo, hi int32
}

// Compile numbers e's nodes for evaluation with Program.Eval.
func Compile(e *Expr) *Program {
	p := &Program{}
	index := make(map[*Expr]int32)
	var pending []int32 // argument numbers of the nodes being numbered, innermost last
	var number func(*Expr) int32
	number = func(e *Expr) int32 {
		if i, ok := index[e]; ok {
			return i
		}
		base := len(pending)
		if e.Op != OpNext { // next(v) reads the env; its v argument is never evaluated
			for _, a := range e.Args {
				j := number(a)
				pending = append(pending, j)
			}
		}
		i, lo := int32(len(p.nodes)), int32(len(p.args))
		p.args = append(p.args, pending[base:]...)
		pending = pending[:base]
		p.nodes = append(p.nodes, progNode{e: e, lo: lo, hi: int32(len(p.args))})
		index[e] = i
		return i
	}
	number(e)
	p.vals = make([]Value, len(p.nodes))
	p.stamp = make([]uint32, len(p.nodes))
	return p
}

// Eval evaluates the compiled expression with cur binding current-state
// variables and next binding next-state variables (next may be nil when
// the expression contains no OpNext nodes), with the errors of the
// package-level Eval.
func (p *Program) Eval(cur, next Env) (Value, error) {
	p.epoch++
	if p.epoch == 0 { // wrapped: every old stamp could now look current
		clear(p.stamp)
		p.epoch = 1
	}
	p.cur, p.next = cur, next
	v, err := p.eval(int32(len(p.nodes) - 1))
	p.cur, p.next = nil, nil
	return v, err
}

// EvalBool evaluates a compiled boolean expression.
func (p *Program) EvalBool(cur, next Env) (bool, error) {
	if e := p.nodes[len(p.nodes)-1].e; e.T.Kind != KindBool {
		return false, fmt.Errorf("expr: EvalBool on %s-typed expression", e.T)
	}
	v, err := p.Eval(cur, next)
	if err != nil {
		return false, err
	}
	return v.B, nil
}

// eval returns node i's value, computing it on first use in this Eval.
// Errors are not memoized: every operator propagates its operands'
// errors, so the first error ends the whole evaluation.
func (p *Program) eval(i int32) (Value, error) {
	if p.stamp[i] == p.epoch {
		return p.vals[i], nil
	}
	v, err := p.compute(p.nodes[i])
	if err != nil {
		return Value{}, err
	}
	p.vals[i], p.stamp[i] = v, p.epoch
	return v, nil
}

func (p *Program) compute(n progNode) (Value, error) {
	e, args := n.e, p.args[n.lo:n.hi]
	switch e.Op {
	case OpConst:
		return e.Val, nil
	case OpVar:
		if v, ok := p.cur.Value(e.V); ok {
			return v, nil
		}
		return Value{}, fmt.Errorf("expr: unbound variable %s", e.V.Name)
	case OpNext:
		if p.next == nil {
			return Value{}, fmt.Errorf("expr: next(%s) evaluated without next-state env", e.V.Name)
		}
		if v, ok := p.next.Value(e.V); ok {
			return v, nil
		}
		return Value{}, fmt.Errorf("expr: unbound next-state variable %s", e.V.Name)
	case OpAnd, OpOr:
		// And stops at the first false operand, Or at the first true.
		stop := e.Op == OpOr
		for _, a := range args {
			v, err := p.eval(a)
			if err != nil {
				return Value{}, err
			}
			if v.B == stop {
				return BoolValue(stop), nil
			}
		}
		return BoolValue(!stop), nil
	case OpImplies:
		a, err := p.eval(args[0])
		if err != nil {
			return Value{}, err
		}
		if !a.B {
			return BoolValue(true), nil
		}
		return p.eval(args[1])
	case OpIte:
		c, err := p.eval(args[0])
		if err != nil {
			return Value{}, err
		}
		if c.B {
			return p.eval(args[1])
		}
		return p.eval(args[2])
	}
	// Every remaining operator is strict: evaluate all operands, in
	// order, into their slots.
	for _, a := range args {
		if _, err := p.eval(a); err != nil {
			return Value{}, err
		}
	}
	arg := func(k int) Value { return p.vals[args[k]] }
	switch e.Op {
	case OpNot:
		return BoolValue(!arg(0).B), nil
	case OpIff:
		return BoolValue(arg(0).B == arg(1).B), nil
	case OpXor:
		return BoolValue(arg(0).B != arg(1).B), nil
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return BoolValue(evalCompare(e.Op, arg(0), arg(1))), nil
	case OpCount:
		var n int64
		for k := range args {
			if arg(k).B {
				n++
			}
		}
		return IntValue(n), nil
	case OpDiv:
		br := arg(1).Rat()
		if br.Sign() == 0 {
			return Value{}, fmt.Errorf("expr: division by zero in %s", e)
		}
		return RealValue(new(big.Rat).Quo(arg(0).Rat(), br)), nil
	case OpAdd, OpSub, OpNeg, OpMul:
		allInt := true
		for k := range args {
			allInt = allInt && arg(k).Kind == KindInt
		}
		if allInt {
			var acc int64
			switch e.Op {
			case OpAdd:
				for k := range args {
					acc += arg(k).I
				}
			case OpSub:
				acc = arg(0).I - arg(1).I
			case OpNeg:
				acc = -arg(0).I
			case OpMul:
				acc = 1
				for k := range args {
					acc *= arg(k).I
				}
			}
			return IntValue(acc), nil
		}
		acc := new(big.Rat)
		switch e.Op {
		case OpAdd:
			for k := range args {
				acc.Add(acc, arg(k).Rat())
			}
		case OpSub:
			acc.Sub(arg(0).Rat(), arg(1).Rat())
		case OpNeg:
			acc.Neg(arg(0).Rat())
		case OpMul:
			acc.SetInt64(1)
			for k := range args {
				acc.Mul(acc, arg(k).Rat())
			}
		}
		return RealValue(acc), nil
	}
	return Value{}, fmt.Errorf("expr: cannot evaluate op %v", e.Op)
}
