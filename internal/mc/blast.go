package mc

// The incremental blast layer. An unroller owns one CNF "blast" of a
// transition system: frames 0..k of state variables, a parameter
// frame, and the solver the blasted constraints live in. It is the
// single point through which BMC and k-induction talk to the SAT/SMT
// backends, and it is built to be grown: extend adds one frame to the
// existing solver, so depth k+1 reuses depth k's clause database,
// learned clauses, and literal-activity state through
// sat.Solver.SolveAssuming instead of re-encoding the whole unrolling
// from scratch. The reuse counter feeds Stats.IncrementalReuses, and a
// cooperation bus (when the portfolio wires one in) learns about every
// reuse too.

import (
	"time"

	"verdict/internal/cnf"
	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/sat"
	"verdict/internal/smt"
	"verdict/internal/trace"
	"verdict/internal/ts"
)

// unroller owns one unrolled copy of a system at a growable depth k:
// frames 0..k, a parameter frame, and either a plain SAT solver or an
// SMT context depending on the system's domain.
type unroller struct {
	sys    *ts.System
	enc    *cnf.Encoder
	ctx    *smt.Context // nil for pure SAT
	sats   *sat.Solver
	frames []*cnf.Frame
	params *cnf.Frame
	benc   *ltl.BoundedEncoder

	finiteState  []*expr.Var
	finiteParams []*expr.Var
	realState    []*expr.Var
	realParams   []*expr.Var

	// reuses counts extend calls: each one reuses the retained solver
	// state (clause database, learnt clauses, activities) for the next
	// depth instead of re-blasting. Folded into Stats.IncrementalReuses.
	reuses int64
	coop   *coopBus
}

func newUnroller(sys *ts.System, k int, opts Options, start time.Time) (*unroller, error) {
	u := &unroller{sys: sys, coop: opts.coop}
	for _, v := range sys.Vars() {
		if v.T.Finite() {
			u.finiteState = append(u.finiteState, v)
		} else {
			u.realState = append(u.realState, v)
		}
	}
	for _, p := range sys.Params() {
		if p.T.Finite() {
			u.finiteParams = append(u.finiteParams, p)
		} else {
			u.realParams = append(u.realParams, p)
		}
	}
	if sys.Finite() {
		u.sats = sat.New()
		u.enc = cnf.NewEncoder(u.sats)
	} else {
		u.ctx = smt.NewContext()
		u.sats = u.ctx.Sat
		u.enc = u.ctx.Enc
	}
	u.sats.Interrupt = opts.interrupt(start)
	u.sats.ConflictBudget = opts.Budget.SATConflicts

	u.params = u.enc.NewFrame(u.finiteParams)
	u.enc.Params = u.params
	for i := 0; i <= k; i++ {
		u.frames = append(u.frames, u.enc.NewFrame(u.finiteState))
	}
	u.benc = ltl.NewBoundedEncoder(u.enc, u.frames)

	// INIT at frame 0, INVAR everywhere, TRANS along the chain.
	u.enc.Assert(sys.InitExpr(), u.frames[0], nil)
	invar := sys.InvarExpr()
	for i := 0; i <= k; i++ {
		u.enc.Assert(invar, u.frames[i], nil)
	}
	tr := sys.TransExpr()
	for i := 0; i < k; i++ {
		u.enc.Assert(tr, u.frames[i], u.frames[i+1])
	}
	return u, nil
}

// newStepUnroller builds an unrolled chain WITHOUT the initial-state
// constraint, for induction steps. Like newUnroller it is growable
// with extend, so the induction step at depth k+1 keeps the clause
// database of depth k.
func newStepUnroller(sys *ts.System, k int, opts Options, start time.Time) (*unroller, error) {
	u := &unroller{sys: sys, coop: opts.coop}
	for _, v := range sys.Vars() {
		if v.T.Finite() {
			u.finiteState = append(u.finiteState, v)
		}
	}
	for _, p := range sys.Params() {
		if p.T.Finite() {
			u.finiteParams = append(u.finiteParams, p)
		}
	}
	u.sats = sat.New()
	u.enc = cnf.NewEncoder(u.sats)
	u.sats.Interrupt = opts.interrupt(start)
	u.sats.ConflictBudget = opts.Budget.SATConflicts
	u.params = u.enc.NewFrame(u.finiteParams)
	u.enc.Params = u.params
	for i := 0; i <= k; i++ {
		u.frames = append(u.frames, u.enc.NewFrame(u.finiteState))
	}
	invar := sys.InvarExpr()
	for i := 0; i <= k; i++ {
		u.enc.Assert(invar, u.frames[i], nil)
	}
	tr := sys.TransExpr()
	for i := 0; i < k; i++ {
		u.enc.Assert(tr, u.frames[i], u.frames[i+1])
	}
	u.benc = ltl.NewBoundedEncoder(u.enc, u.frames)
	return u, nil
}

// extend grows the unrolling by one frame: domain constraints come
// with the fresh frame, INVAR and the transition from the previous
// frame are asserted, and the bounded-LTL encoder is rebuilt over the
// longer path (its encodings depend on the bound; the underlying gate
// and atom definitions in the solver are shared and remain valid).
// The solver itself — clause database, learnt clauses, activities,
// saved phases — carries over untouched; that carry-over is what
// Stats.IncrementalReuses counts.
func (u *unroller) extend() error {
	k := len(u.frames)
	f := u.enc.NewFrame(u.finiteState)
	u.frames = append(u.frames, f)
	u.enc.Assert(u.sys.InvarExpr(), f, nil)
	u.enc.Assert(u.sys.TransExpr(), u.frames[k-1], f)
	u.benc = ltl.NewBoundedEncoder(u.enc, u.frames)
	u.reuses++
	if u.coop != nil {
		u.coop.noteReuse()
	}
	return nil
}

// loopLit returns the literal closing the lasso: a transition from
// frame k whose successor state is frame l itself. Compiling TRANS
// with (cur = frame k, next = frame l) pins the successor to the very
// variables of position l, which is exactly the bounded loop
// semantics' requirement that position k+1 and position l coincide.
func (u *unroller) loopLit(l int) sat.Lit {
	k := len(u.frames) - 1
	return u.enc.Lit(u.sys.TransExpr(), u.frames[k], u.frames[l])
}

// solve runs one assumption query against the retained solver state.
func (u *unroller) solve(assumptions ...sat.Lit) sat.Status {
	if u.ctx != nil {
		return u.ctx.Solve(assumptions...)
	}
	return u.sats.SolveAssuming(assumptions...)
}

// extractTrace decodes the current model into a trace.
func (u *unroller) extractTrace(loop int) *trace.Trace {
	t := trace.New()
	t.LoopStart = loop
	for _, p := range u.finiteParams {
		t.Params[p.Name] = u.enc.Model(u.params, p)
	}
	for _, p := range u.realParams {
		t.Params[p.Name] = expr.RealValue(u.ctx.RealValue(p, nil))
	}
	showDefines := defineDisplay(u.sys)
	for _, f := range u.frames {
		s := trace.NewState()
		for _, v := range u.finiteState {
			s.Values[v.Name] = u.enc.Model(f, v)
		}
		for _, v := range u.realState {
			s.Values[v.Name] = expr.RealValue(u.ctx.RealValue(v, f))
		}
		// Also decode DEFINE macros for readability.
		env := expr.MapEnv{}
		for k, val := range s.Values {
			if vv, ok := u.sys.VarByName(k); ok {
				env[vv] = val
			}
		}
		for _, p := range u.finiteParams {
			env[p] = t.Params[p.Name]
		}
		showDefines(env, s)
		t.States = append(t.States, s)
	}
	return t
}

// defineDisplay compiles, once per trace extraction, the DEFINE macros
// a trace state can show (finite, current-state only). The returned
// function records their values under env into st; a macro that does
// not evaluate is left out.
func defineDisplay(sys *ts.System) func(env expr.MapEnv, st trace.State) {
	var names []string
	var progs []*expr.Program
	for _, name := range sys.DefineNames() {
		def, _ := sys.DefineByName(name)
		if expr.IsFinite(def) && !expr.HasNext(def) {
			names = append(names, name)
			progs = append(progs, expr.Compile(def))
		}
	}
	return func(env expr.MapEnv, st trace.State) {
		for i, p := range progs {
			if v, err := p.Eval(env, nil); err == nil {
				st.Values[names[i]] = v
			}
		}
	}
}
