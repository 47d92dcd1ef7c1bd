package mc

import (
	"fmt"
	"strings"
	"time"

	"verdict/internal/expr"
	"verdict/internal/trace"
	"verdict/internal/ts"
)

// Explicit is the explicit-state engine: it enumerates the full state
// graph of a small finite system. It serves as the correctness oracle
// for the symbolic engines in tests and as the naive baseline in the
// ablation benchmarks. State counts are capped by
// Options.MaxExplicitStates.
type Explicit struct {
	sys  *ts.System
	opts Options

	vars    []*expr.Var // state vars then params
	nstate  int         // number of state vars (prefix of vars)
	states  []explState
	index   map[string]int
	inits   []int
	succs   [][]int
	preds   [][]int
	reached []bool
	order   []int // BFS order of reachable states
	parent  []int // BFS tree for trace extraction
}

type explState []expr.Value

func (e *Explicit) key(s explState) string {
	var b strings.Builder
	for _, v := range s {
		b.WriteString(v.String())
		b.WriteByte('|')
	}
	return b.String()
}

// NewExplicit enumerates the reachable state graph.
func NewExplicit(sys *ts.System, opts Options) (*Explicit, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if !sys.Finite() {
		return nil, fmt.Errorf("mc: explicit engine requires a finite system")
	}
	e := &Explicit{sys: sys, opts: opts, index: make(map[string]int)}
	e.vars = append(e.vars, sys.Vars()...)
	e.nstate = len(e.vars)
	e.vars = append(e.vars, sys.Params()...)

	// Enumerate initial states: all assignments satisfying INIT∧INVAR.
	initE := expr.Compile(sys.InitExpr())
	invarE := expr.Compile(sys.InvarExpr())
	limit := opts.maxExplicit()

	var initStates []explState
	err := e.forAllAssignments(func(env expr.MapEnv, vals explState) (bool, error) {
		ok1, err := initE.EvalBool(env, nil)
		if err != nil {
			return false, err
		}
		if !ok1 {
			return true, nil
		}
		ok2, err := invarE.EvalBool(env, nil)
		if err != nil {
			return false, err
		}
		if ok2 {
			cp := make(explState, len(vals))
			copy(cp, vals)
			initStates = append(initStates, cp)
		}
		return len(initStates) <= limit, nil
	})
	if err != nil {
		return nil, err
	}

	// BFS over successors.
	transE := expr.Compile(sys.TransExpr())
	add := func(s explState) int {
		k := e.key(s)
		if i, ok := e.index[k]; ok {
			return i
		}
		i := len(e.states)
		e.index[k] = i
		e.states = append(e.states, s)
		e.succs = append(e.succs, nil)
		e.preds = append(e.preds, nil)
		e.parent = append(e.parent, -1)
		return i
	}
	for _, s := range initStates {
		i := add(s)
		e.inits = append(e.inits, i)
	}
	queue := append([]int(nil), e.inits...)
	seen := make(map[int]bool)
	for _, i := range queue {
		seen[i] = true
	}
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		e.order = append(e.order, cur)
		curEnv := e.env(e.states[cur])
		// Enumerate candidate successors: params frozen, state vars free.
		err := e.forAllStateAssignments(e.states[cur], func(nextEnv expr.MapEnv, vals explState) (bool, error) {
			ok, err := transE.EvalBool(curEnv, nextEnv)
			if err != nil {
				return false, err
			}
			if !ok {
				return true, nil
			}
			ok, err = invarE.EvalBool(nextEnv, nil)
			if err != nil {
				return false, err
			}
			if !ok {
				return true, nil
			}
			cp := make(explState, len(vals))
			copy(cp, vals)
			j := add(cp)
			e.succs[cur] = append(e.succs[cur], j)
			e.preds[j] = append(e.preds[j], cur)
			if !seen[j] {
				seen[j] = true
				if e.parent[j] < 0 {
					e.parent[j] = cur
				}
				queue = append(queue, j)
			}
			return len(e.states) <= limit, nil
		})
		if err != nil {
			return nil, err
		}
		if len(e.states) > limit {
			return nil, fmt.Errorf("mc: explicit state limit %d exceeded", limit)
		}
	}
	return e, nil
}

// env builds an evaluation environment from a state vector.
func (e *Explicit) env(s explState) expr.MapEnv {
	env := expr.MapEnv{}
	for i, v := range e.vars {
		env[v] = s[i]
	}
	return env
}

// forAllAssignments enumerates total assignments of all vars+params.
func (e *Explicit) forAllAssignments(fn func(expr.MapEnv, explState) (bool, error)) error {
	vals := make(explState, len(e.vars))
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == len(e.vars) {
			return fn(e.env(vals), vals)
		}
		for _, v := range e.vars[i].T.Domain() {
			vals[i] = v
			cont, err := rec(i + 1)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	_, err := rec(0)
	return err
}

// forAllStateAssignments enumerates assignments where parameters stay
// as in base and only state variables range over their domains.
func (e *Explicit) forAllStateAssignments(base explState, fn func(expr.MapEnv, explState) (bool, error)) error {
	vals := make(explState, len(e.vars))
	copy(vals, base)
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == e.nstate {
			return fn(e.env(vals), vals)
		}
		for _, v := range e.vars[i].T.Domain() {
			vals[i] = v
			cont, err := rec(i + 1)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	_, err := rec(0)
	return err
}

// NumStates returns the number of reachable states.
func (e *Explicit) NumStates() int { return len(e.states) }

// evalAt evaluates a compiled predicate in state i.
func (e *Explicit) evalAt(p *expr.Program, i int) (bool, error) {
	return p.EvalBool(e.env(e.states[i]), nil)
}

// CheckInvariant decides G(p) by scanning reachable states.
func (e *Explicit) CheckInvariant(p *expr.Expr) (*Result, error) {
	start := time.Now()
	prog := expr.Compile(p)
	for _, i := range e.order {
		ok, err := e.evalAt(prog, i)
		if err != nil {
			return nil, err
		}
		if !ok {
			return &Result{
				Status:  Violated,
				Trace:   e.traceTo(i),
				Engine:  "explicit",
				Elapsed: time.Since(start),
			}, nil
		}
	}
	return &Result{Status: Holds, Engine: "explicit", Elapsed: time.Since(start)}, nil
}

// CheckFG decides the LTL property F(G(p)) over all executions: it is
// violated iff some reachable cycle contains a ¬p state (such a lasso
// visits ¬p infinitely often).
func (e *Explicit) CheckFG(p *expr.Expr) (*Result, error) {
	start := time.Now()
	prog := expr.Compile(p)
	for _, i := range e.order {
		ok, err := e.evalAt(prog, i)
		if err != nil {
			return nil, err
		}
		if ok {
			continue
		}
		if e.onCycle(i, nil) {
			return &Result{Status: Violated, Engine: "explicit", Elapsed: time.Since(start),
				Note: "reachable cycle visits a ¬p state infinitely often"}, nil
		}
	}
	return &Result{Status: Holds, Engine: "explicit", Elapsed: time.Since(start)}, nil
}

// CheckGF decides G(F(p)) over all executions: violated iff some
// reachable cycle lies entirely within ¬p states.
func (e *Explicit) CheckGF(p *expr.Expr) (*Result, error) {
	start := time.Now()
	notP := make(map[int]bool)
	prog := expr.Compile(p)
	for _, i := range e.order {
		ok, err := e.evalAt(prog, i)
		if err != nil {
			return nil, err
		}
		if !ok {
			notP[i] = true
		}
	}
	for i := range notP {
		if e.onCycle(i, notP) {
			return &Result{Status: Violated, Engine: "explicit", Elapsed: time.Since(start),
				Note: "reachable cycle avoids p entirely"}, nil
		}
	}
	return &Result{Status: Holds, Engine: "explicit", Elapsed: time.Since(start)}, nil
}

// onCycle reports whether state i can reach itself, optionally
// restricted to states in within.
func (e *Explicit) onCycle(i int, within map[int]bool) bool {
	visited := make(map[int]bool)
	stack := append([]int(nil), e.succs[i]...)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if within != nil && !within[s] {
			continue
		}
		if s == i {
			return true
		}
		if visited[s] {
			continue
		}
		visited[s] = true
		stack = append(stack, e.succs[s]...)
	}
	return false
}

// HasDeadlock reports whether some reachable state has no successor.
func (e *Explicit) HasDeadlock() bool {
	for _, i := range e.order {
		if len(e.succs[i]) == 0 {
			return true
		}
	}
	return false
}

// traceTo rebuilds the BFS path from an initial state to state i.
func (e *Explicit) traceTo(i int) *trace.Trace {
	var path []int
	for cur := i; cur >= 0; cur = e.parent[cur] {
		path = append([]int{cur}, path...)
		if e.parent[cur] < 0 {
			break
		}
	}
	t := trace.New()
	for pi, p := range e.sys.Params() {
		_ = pi
		idx := e.varIndex(p)
		t.Params[p.Name] = e.states[path[0]][idx]
	}
	for _, si := range path {
		st := trace.NewState()
		for vi, v := range e.vars {
			if v.Param {
				continue
			}
			st.Values[v.Name] = e.states[si][vi]
		}
		t.States = append(t.States, st)
	}
	return t
}

func (e *Explicit) varIndex(v *expr.Var) int {
	for i, w := range e.vars {
		if w == v {
			return i
		}
	}
	return -1
}
