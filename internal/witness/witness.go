// Package witness independently certifies model-checking verdicts.
//
// The engines in internal/mc are complex: CNF compilation, CDCL
// search, BDD fixpoints, tableau products. This package is their
// referee, and it is deliberately simple — plain expression evaluation
// over concrete states, nothing shared with the engines that produced
// the evidence. A Violated verdict is certified by replaying its
// counterexample trace against the transition-system semantics and
// re-evaluating the LTL property on it (Validate); a Holds verdict is
// certified by checking the engine-attached Certificate by direct
// enumeration (ValidateCertificate).
//
// The package must not import internal/mc (mc imports witness to
// attach and check evidence); it sees only the system, the formula,
// and the trace.
package witness

import (
	"errors"
	"fmt"

	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/trace"
	"verdict/internal/ts"
)

// Status reports the outcome of witness validation for a Result.
type Status string

// Validation outcomes. The zero value None means there was nothing to
// validate (no trace, no certificate) or validation was not requested.
const (
	None      Status = ""
	Validated Status = "validated"
	Failed    Status = "failed"
	// Skipped means the verdict carried a certificate but the state
	// space is too large to check it by direct enumeration.
	Skipped Status = "skipped"
)

// String renders the status for wire formats and CLI output; None
// prints as "none".
func (s Status) String() string {
	if s == None {
		return "none"
	}
	return string(s)
}

// Validate replays a counterexample trace against the system semantics
// and checks that it really demonstrates a violation of phi:
//
//   - state 0 satisfies INIT and INVAR,
//   - every state satisfies INVAR,
//   - every consecutive pair satisfies TRANS,
//   - for lasso traces the loop-closing step satisfies TRANS,
//   - the trace satisfies ¬phi under exact lasso semantics (lassos) or
//     the conservative informative-prefix semantics (finite prefixes).
//
// A nil error means the trace is an execution of sys that violates phi.
func Validate(sys *ts.System, phi *ltl.Formula, t *trace.Trace) error {
	envs, err := traceEnvs(sys, t)
	if err != nil {
		return err
	}
	if err := replay(sys, t, envs); err != nil {
		return err
	}
	if phi == nil {
		return nil
	}
	viol, err := holds(ltl.Not(phi).NNF(), envs, t.LoopStart)
	if err != nil {
		return fmt.Errorf("witness: evaluating property on trace: %w", err)
	}
	if !viol {
		return fmt.Errorf("witness: trace does not demonstrate a violation of %s", phi)
	}
	return nil
}

// traceEnvs binds each state's variable values (plus the shared
// parameter values) into one evaluation environment per state. States
// may carry extra entries (engines record DEFINE values for display);
// those are ignored. A missing declared variable is an error — a trace
// with holes proves nothing.
func traceEnvs(sys *ts.System, t *trace.Trace) ([]expr.MapEnv, error) {
	if t == nil || t.Len() == 0 {
		return nil, fmt.Errorf("witness: empty trace")
	}
	if t.LoopStart >= t.Len() {
		return nil, fmt.Errorf("witness: loop start %d out of range (trace has %d states)", t.LoopStart, t.Len())
	}
	envs := make([]expr.MapEnv, t.Len())
	for i, st := range t.States {
		env := expr.MapEnv{}
		for _, v := range sys.Vars() {
			val, ok := st.Get(v.Name)
			if !ok {
				return nil, fmt.Errorf("witness: state %d missing variable %s", i, v.Name)
			}
			env[v] = val
		}
		for _, p := range sys.Params() {
			val, ok := t.Params[p.Name]
			if !ok {
				return nil, fmt.Errorf("witness: trace missing parameter %s", p.Name)
			}
			env[p] = val
		}
		envs[i] = env
	}
	return envs, nil
}

// replay checks the structural conditions: init, invariants, and the
// transition relation along the trace (including the loop-closing step
// of a lasso).
func replay(sys *ts.System, t *trace.Trace, envs []expr.MapEnv) error {
	ok, err := expr.EvalBool(sys.InitExpr(), envs[0], nil)
	if err != nil {
		return fmt.Errorf("witness: evaluating INIT: %w", err)
	}
	if !ok {
		return fmt.Errorf("witness: state 0 violates INIT")
	}
	invar := expr.Compile(sys.InvarExpr())
	for i, env := range envs {
		ok, err := invar.EvalBool(env, nil)
		if err != nil {
			return fmt.Errorf("witness: evaluating INVAR at state %d: %w", i, err)
		}
		if !ok {
			return fmt.Errorf("witness: state %d violates INVAR", i)
		}
	}
	tr := expr.Compile(sys.TransExpr())
	for i := 0; i+1 < len(envs); i++ {
		ok, err := tr.EvalBool(envs[i], envs[i+1])
		if err != nil {
			return fmt.Errorf("witness: evaluating TRANS at step %d: %w", i, err)
		}
		if !ok {
			return fmt.Errorf("witness: transition %d -> %d violates TRANS", i, i+1)
		}
	}
	if t.IsLasso() {
		last := len(envs) - 1
		ok, err := tr.EvalBool(envs[last], envs[t.LoopStart])
		if err != nil {
			return fmt.Errorf("witness: evaluating loop-closing TRANS: %w", err)
		}
		if !ok {
			return fmt.Errorf("witness: loop-closing transition %d -> %d violates TRANS", last, t.LoopStart)
		}
	}
	return nil
}

// holds evaluates an NNF formula at position 0 of the trace.
//
// For a lasso (loop >= 0) the trace denotes an infinite word and the
// semantics are exact: each subformula's satisfaction per position is
// computed bottom-up, with least (U) and greatest (R) fixpoints over
// the finitely many positions.
//
// For a plain finite prefix (loop < 0) the semantics are the
// conservative no-loop bounded semantics the BMC encoder uses: X at
// the last position is false, U needs its right operand within the
// prefix, and R needs an explicit release point — so a "true" answer
// means every infinite extension of the prefix satisfies the formula
// (an informative prefix), never a guess.
func holds(f *ltl.Formula, envs []expr.MapEnv, loop int) (bool, error) {
	n := len(envs)
	succ := func(i int) int {
		if i+1 < n {
			return i + 1
		}
		return loop // -1 on finite prefixes: no successor
	}
	sat := make(map[*ltl.Formula][]bool)
	// Subformulas is post-order, so operands are computed before the
	// formulas that use them.
	for _, g := range ltl.Subformulas(f) {
		row := make([]bool, n)
		switch g.Kind {
		case ltl.KindAtom:
			atom := expr.Compile(g.Atom)
			for i := range row {
				b, err := atom.EvalBool(envs[i], nil)
				if err != nil {
					return false, err
				}
				row[i] = b
			}
		case ltl.KindNot:
			// NNF pushes negation into atoms; pointwise negation of
			// anything temporal would be unsound under the conservative
			// finite-prefix semantics, so refuse it.
			if g.L.Kind != ltl.KindAtom {
				return false, fmt.Errorf("witness: formula not in negation normal form (negated %s)", g.L)
			}
			for i := range row {
				row[i] = !sat[g.L][i]
			}
		case ltl.KindAnd:
			for i := range row {
				row[i] = sat[g.L][i] && sat[g.R][i]
			}
		case ltl.KindOr:
			for i := range row {
				row[i] = sat[g.L][i] || sat[g.R][i]
			}
		case ltl.KindX:
			for i := range row {
				j := succ(i)
				row[i] = j >= 0 && sat[g.L][j]
			}
		case ltl.KindF:
			row = fixpoint(allTrue(n), sat[g.L], n, loop, false)
		case ltl.KindG:
			row = fixpoint(sat[g.L], nil, n, loop, true)
		case ltl.KindU:
			row = fixpoint(sat[g.L], sat[g.R], n, loop, false)
		case ltl.KindR:
			row = fixpoint(sat[g.R], sat[g.L], n, loop, true)
		default:
			return false, fmt.Errorf("witness: unsupported LTL kind %v", g.Kind)
		}
		sat[g] = row
	}
	return sat[f][0], nil
}

func allTrue(n int) []bool {
	row := make([]bool, n)
	for i := range row {
		row[i] = true
	}
	return row
}

// fixpoint computes the satisfaction row of an until- or
// release-shaped formula.
//
// Until (greatest=false): u(i) = b(i) ∨ (a(i) ∧ u(succ(i))) — least
// fixpoint, so b must actually be reached. With b nil (G as "false R
// g" degenerates the other way) it is unused.
//
// Release / Globally (greatest=true): r(i) = a(i) ∧ (b(i) ∨
// r(succ(i))) — greatest fixpoint on lassos. With b nil this is
// Globally: r(i) = a(i) ∧ r(succ(i)). On finite prefixes the missing
// successor contributes false, which yields exactly the conservative
// no-loop semantics: G is never satisfied, R needs an explicit release
// point b(i) inside the prefix.
func fixpoint(a, b []bool, n, loop int, greatest bool) []bool {
	at := func(row []bool, i int) bool { return row != nil && row[i] }
	row := make([]bool, n)
	if greatest {
		for i := range row {
			row[i] = true
		}
	}
	if loop < 0 {
		// Finite prefix: one backward pass, missing successor = false.
		for i := n - 1; i >= 0; i-- {
			next := i+1 < n && row[i+1]
			if greatest {
				row[i] = a[i] && (at(b, i) || next)
			} else {
				row[i] = at(b, i) || (a[i] && next)
			}
		}
		return row
	}
	succ := func(i int) int {
		if i+1 < n {
			return i + 1
		}
		return loop
	}
	// Lasso: iterate to the fixpoint; each pass propagates information
	// at least one position, so n+1 passes always converge.
	for pass := 0; pass <= n; pass++ {
		changed := false
		for i := n - 1; i >= 0; i-- {
			var v bool
			if greatest {
				v = a[i] && (at(b, i) || row[succ(i)])
			} else {
				v = at(b, i) || (a[i] && row[succ(i)])
			}
			if v != row[i] {
				row[i] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return row
}

// ErrUncheckable is returned (wrapped) by ValidateCertificate when the
// system's state space is too large to check the certificate by direct
// enumeration. Callers should treat it as "skipped", not "failed".
var ErrUncheckable = errors.New("witness: state space too large to check certificate by direct evaluation")

// DefaultLimit is the default evaluation budget for
// ValidateCertificate: the total number of states and (state,
// successor) pairs it may evaluate.
const DefaultLimit = 1 << 21

// Certificate is the evidence an engine attaches to a Holds verdict on
// an invariant G(Property), checkable without trusting the engine.
type Certificate struct {
	// Kind names the producing argument: "k-induction", "bdd-reach".
	Kind string
	// Property is the state predicate p of the proved invariant G(p).
	Property *expr.Expr
	// Invariant, when non-nil, is an inductive strengthening Inv:
	// ValidateCertificate checks INIT∧INVAR ⟹ Inv, that Inv is closed
	// under TRANS (within INVAR), and Inv∧INVAR ⟹ p. When nil, the
	// certificate claims only "G(p) holds up to reachability" and is
	// checked by explicit breadth-first replay of the state space.
	Invariant *expr.Expr
	// Depth is the engine's concluding depth (induction depth, BFS
	// layer count) — informational.
	Depth int
}

// ValidateCertificate checks a Holds certificate by direct evaluation,
// spending at most limit expression-level state evaluations (limit <=
// 0 uses DefaultLimit). It returns nil when the certificate proves
// G(Property), an error wrapping ErrUncheckable when the state space
// exceeds the budget, and a descriptive error when the certificate
// does not check out — which means the producing engine is wrong or
// the certificate was corrupted.
func ValidateCertificate(sys *ts.System, c *Certificate, limit int) error {
	if c == nil {
		return fmt.Errorf("witness: nil certificate")
	}
	if c.Property == nil {
		return fmt.Errorf("witness: certificate has no property")
	}
	if limit <= 0 {
		limit = DefaultLimit
	}
	if size := sys.StateSpaceSize(); size == 0 || size > int64(limit) {
		return fmt.Errorf("%w (%d states, limit %d)", ErrUncheckable, sys.StateSpaceSize(), limit)
	}
	b := &budget{limit: limit}
	if c.Invariant != nil {
		return checkInductive(sys, c, b)
	}
	return checkReachable(sys, c, b)
}

// budget counts state evaluations; exhausted checks degrade to
// ErrUncheckable rather than running unbounded.
type budget struct{ spent, limit int }

func (b *budget) step() error {
	b.spent++
	if b.spent > b.limit {
		return fmt.Errorf("%w (budget of %d evaluations exhausted)", ErrUncheckable, b.limit)
	}
	return nil
}

// checkInductive verifies the three conditions of an inductive
// invariant certificate over every assignment of the (finite) state
// variables and parameters.
func checkInductive(sys *ts.System, c *Certificate, b *budget) error {
	vars := sys.AllVars()
	stateVars := sys.Vars()
	invar, trans, init := expr.Compile(sys.InvarExpr()), expr.Compile(sys.TransExpr()), expr.Compile(sys.InitExpr())
	inv, prop := expr.Compile(c.Invariant), expr.Compile(c.Property)
	return forAll(vars, expr.MapEnv{}, func(cur expr.MapEnv) error {
		if err := b.step(); err != nil {
			return err
		}
		invOK, err := evalIn(inv, cur, nil)
		if err != nil {
			return err
		}
		invarOK, err := evalIn(invar, cur, nil)
		if err != nil {
			return err
		}
		// Condition 1: every initial state is in the invariant.
		if invarOK {
			initOK, err := evalIn(init, cur, nil)
			if err != nil {
				return err
			}
			if initOK && !invOK {
				return fmt.Errorf("witness: certificate invariant excludes the initial state %s", envString(vars, cur))
			}
		}
		if !invOK || !invarOK {
			return nil
		}
		// Condition 2: the invariant implies the property.
		propOK, err := evalIn(prop, cur, nil)
		if err != nil {
			return err
		}
		if !propOK {
			return fmt.Errorf("witness: certificate invariant admits property-violating state %s", envString(vars, cur))
		}
		// Condition 3: the invariant is closed under the transition
		// relation (parameters are frozen, so only state variables step).
		return forAll(stateVars, cloneEnv(cur), func(next expr.MapEnv) error {
			if err := b.step(); err != nil {
				return err
			}
			stepOK, err := evalIn(trans, cur, next)
			if err != nil {
				return err
			}
			if !stepOK {
				return nil
			}
			nInvarOK, err := evalIn(invar, next, nil)
			if err != nil {
				return err
			}
			if !nInvarOK {
				return nil
			}
			nInvOK, err := evalIn(inv, next, nil)
			if err != nil {
				return err
			}
			if !nInvOK {
				return fmt.Errorf("witness: certificate invariant is not inductive: step %s -> %s leaves it",
					envString(vars, cur), envString(stateVars, next))
			}
			return nil
		})
	})
}

// checkReachable replays the reachable state space breadth-first and
// requires every reached state to satisfy the certified property —
// the fallback check for certificates that carry no inductive
// strengthening (k-induction at depth > 0 proves G(p) without naming
// an inductive invariant in predicate form).
func checkReachable(sys *ts.System, c *Certificate, b *budget) error {
	vars := sys.AllVars()
	stateVars := sys.Vars()
	invar, trans, init := expr.Compile(sys.InvarExpr()), expr.Compile(sys.TransExpr()), expr.Compile(sys.InitExpr())
	prop := expr.Compile(c.Property)

	type node struct{ env expr.MapEnv }
	seen := make(map[string]bool)
	var queue []node
	visit := func(env expr.MapEnv) error {
		key := envString(vars, env)
		if seen[key] {
			return nil
		}
		seen[key] = true
		ok, err := evalIn(prop, env, nil)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("witness: reachable state violates the certified property: %s", key)
		}
		queue = append(queue, node{env: cloneEnv(env)})
		return nil
	}

	// Seed: every assignment satisfying INIT ∧ INVAR.
	err := forAll(vars, expr.MapEnv{}, func(env expr.MapEnv) error {
		if err := b.step(); err != nil {
			return err
		}
		initOK, err := evalIn(init, env, nil)
		if err != nil {
			return err
		}
		if !initOK {
			return nil
		}
		invarOK, err := evalIn(invar, env, nil)
		if err != nil {
			return err
		}
		if !invarOK {
			return nil
		}
		return visit(env)
	})
	if err != nil {
		return err
	}

	for len(queue) > 0 {
		cur := queue[0].env
		queue = queue[1:]
		err := forAll(stateVars, cloneEnv(cur), func(next expr.MapEnv) error {
			if err := b.step(); err != nil {
				return err
			}
			stepOK, err := evalIn(trans, cur, next)
			if err != nil {
				return err
			}
			if !stepOK {
				return nil
			}
			invarOK, err := evalIn(invar, next, nil)
			if err != nil {
				return err
			}
			if !invarOK {
				return nil
			}
			return visit(next)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// forAll enumerates every total assignment of vars (overwriting their
// bindings in env, which may already bind other variables such as
// frozen parameters) and calls fn with the shared env. fn must not
// retain env without cloning it.
func forAll(vars []*expr.Var, env expr.MapEnv, fn func(expr.MapEnv) error) error {
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(vars) {
			return fn(env)
		}
		v := vars[i]
		vals, err := domainValues(v.T)
		if err != nil {
			return err
		}
		for _, val := range vals {
			env[v] = val
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// domainValues enumerates a finite type's values.
func domainValues(t expr.Type) ([]expr.Value, error) {
	switch t.Kind {
	case expr.KindBool:
		return []expr.Value{expr.BoolValue(false), expr.BoolValue(true)}, nil
	case expr.KindInt:
		out := make([]expr.Value, 0, t.Hi-t.Lo+1)
		for i := t.Lo; i <= t.Hi; i++ {
			out = append(out, expr.IntValue(i))
		}
		return out, nil
	case expr.KindEnum:
		out := make([]expr.Value, 0, len(t.Values))
		for _, s := range t.Values {
			out = append(out, expr.EnumValue(s))
		}
		return out, nil
	}
	return nil, fmt.Errorf("%w (infinite domain %s)", ErrUncheckable, t)
}

func evalIn(p *expr.Program, cur, next expr.MapEnv) (bool, error) {
	var n expr.Env
	if next != nil {
		n = next
	}
	return p.EvalBool(cur, n)
}

func cloneEnv(env expr.MapEnv) expr.MapEnv {
	cp := make(expr.MapEnv, len(env))
	for k, v := range env {
		cp[k] = v
	}
	return cp
}

// envString renders an assignment deterministically for error messages
// and visited-set keys.
func envString(vars []*expr.Var, env expr.MapEnv) string {
	s := ""
	for _, v := range vars {
		if s != "" {
			s += " "
		}
		s += v.Name + "=" + env[v].String()
	}
	return s
}
