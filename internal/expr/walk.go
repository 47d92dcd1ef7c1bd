package expr

// Walk calls f on e and, if f returns true, recursively on e's
// arguments (pre-order). A node with arguments that several parents
// share is visited once, at its first occurrence, so a walk is linear
// in the size of the expression DAG rather than of its unfolded tree.
// Leaves (constants and variable references) are visited once per
// parent: re-visiting one is as cheap as remembering it.
func Walk(e *Expr, f func(*Expr) bool) {
	seen := make(map[*Expr]bool)
	var walk func(*Expr)
	walk = func(e *Expr) {
		if len(e.Args) > 0 {
			if seen[e] {
				return
			}
			seen[e] = true
		}
		if !f(e) {
			return
		}
		for _, a := range e.Args {
			walk(a)
		}
	}
	walk(e)
}

// Vars returns the set of variables referenced by e (via OpVar or
// OpNext), in first-occurrence order.
func Vars(e *Expr) []*Var {
	var out []*Var
	seen := make(map[*Var]bool)
	Walk(e, func(n *Expr) bool {
		if (n.Op == OpVar || n.Op == OpNext) && !seen[n.V] {
			seen[n.V] = true
			out = append(out, n.V)
		}
		return true
	})
	return out
}

// HasNext reports whether e references any next-state variable.
func HasNext(e *Expr) bool {
	found := false
	Walk(e, func(n *Expr) bool {
		if n.Op == OpNext {
			found = true
		}
		return !found
	})
	return found
}

// Transform rebuilds e bottom-up, replacing each node n with f(n)
// after its arguments have been transformed. f returning nil keeps the
// (rebuilt) node. Shared subtrees are transformed once and reused.
func Transform(e *Expr, f func(*Expr) *Expr) *Expr {
	memo := make(map[*Expr]*Expr)
	return transform(e, f, memo)
}

func transform(e *Expr, f func(*Expr) *Expr, memo map[*Expr]*Expr) *Expr {
	if r, ok := memo[e]; ok {
		return r
	}
	n := e
	if len(e.Args) > 0 {
		changed := false
		args := make([]*Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = transform(a, f, memo)
			if args[i] != a {
				changed = true
			}
		}
		if changed {
			n = rebuild(e, args)
		}
	}
	if r := f(n); r != nil {
		n = r
	}
	memo[e] = n
	return n
}

// rebuild reconstructs a node with new arguments through the public
// constructors so type derivation and constant folding re-run.
func rebuild(e *Expr, args []*Expr) *Expr {
	switch e.Op {
	case OpNot:
		return Not(args[0])
	case OpAnd:
		return And(args...)
	case OpOr:
		return Or(args...)
	case OpImplies:
		return Implies(args[0], args[1])
	case OpIff:
		return Iff(args[0], args[1])
	case OpXor:
		return Xor(args[0], args[1])
	case OpEq:
		return Eq(args[0], args[1])
	case OpNe:
		return Ne(args[0], args[1])
	case OpLt:
		return Lt(args[0], args[1])
	case OpLe:
		return Le(args[0], args[1])
	case OpGt:
		return Gt(args[0], args[1])
	case OpGe:
		return Ge(args[0], args[1])
	case OpAdd:
		return Add(args...)
	case OpSub:
		return Sub(args[0], args[1])
	case OpNeg:
		return Neg(args[0])
	case OpMul:
		return Mul(args...)
	case OpDiv:
		return Div(args[0], args[1])
	case OpIte:
		return Ite(args[0], args[1], args[2])
	case OpCount:
		return Count(args...)
	case OpNext:
		return e // next(v) has a var arg; nothing to rebuild
	}
	return e
}

// Substitute replaces current-state references to variables per sub.
// Next-state references are left untouched.
func Substitute(e *Expr, sub map[*Var]*Expr) *Expr {
	return Transform(e, func(n *Expr) *Expr {
		if n.Op == OpVar {
			if r, ok := sub[n.V]; ok {
				return r
			}
		}
		return nil
	})
}

// Prime converts every current-state variable reference in e into the
// corresponding next-state reference. Parameters stay unprimed (they
// are frozen, so their next-state value IS their current one). e must
// not already contain next-state references to the variables primed.
func Prime(e *Expr) *Expr {
	return Transform(e, func(n *Expr) *Expr {
		if n.Op == OpVar && !n.V.Param {
			return n.V.Next()
		}
		return nil
	})
}

// Unprime converts next-state references into current-state ones.
func Unprime(e *Expr) *Expr {
	return Transform(e, func(n *Expr) *Expr {
		if n.Op == OpNext {
			return n.V.Ref()
		}
		return nil
	})
}

// ConstFold re-runs constant folding over the whole tree (useful after
// Substitute introduced constants).
func ConstFold(e *Expr) *Expr {
	return Transform(e, func(n *Expr) *Expr { return nil })
}

// IsFinite reports whether every variable and constant in e has a
// finite domain (no reals). Finite expressions are handled by the SAT
// and BDD engines; real-valued ones require the SMT engine.
func IsFinite(e *Expr) bool {
	finite := true
	Walk(e, func(n *Expr) bool {
		if n.T.Kind == KindReal {
			finite = false
		}
		return finite
	})
	return finite
}
