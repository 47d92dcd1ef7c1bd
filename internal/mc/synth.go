package mc

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"verdict/internal/cnf"
	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/resilience"
	"verdict/internal/sat"
	"verdict/internal/trace"
	"verdict/internal/ts"
)

// ParamAssignment is one concrete valuation of every parameter.
type ParamAssignment map[string]expr.Value

func (a ParamAssignment) String() string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		keys[i] = k + "=" + a[k].String()
	}
	return strings.Join(keys, " ")
}

// SynthResult partitions the finite parameter space of a system by
// whether the property can be violated under each valuation.
type SynthResult struct {
	// Safe valuations guarantee the property for every execution.
	Safe []ParamAssignment
	// Unsafe valuations admit at least one violating execution.
	Unsafe []ParamAssignment
	// Witnesses maps an unsafe assignment's String() to a violating
	// trace under that assignment. An unsafe valuation has none when
	// the deciding engine found the violation without a trace (a BDD
	// liveness verdict whose lasso lies beyond MaxDepth).
	Witnesses map[string]*trace.Trace
	// Engine, Checks and Elapsed describe how the split was computed:
	// Checks counts the portfolio calls.
	Engine  string
	Checks  int
	Elapsed time.Duration
}

// SynthesizeParams computes, for every valuation of the system's
// finite parameters, whether the LTL property holds on all executions
// — the paper's "suggest safe configuration parameters" workflow (e.g.
// p ∈ {1,2} for the rollout case study).
//
// It is one loop over Portfolio, in the shape of parameter synthesis
// with IC3 (Cimatti, Griggio, Mover and Tonetta, FMCAD 2013). Each
// round checks the system with its parameters free and INIT restricted
// to the open region: a box of the domain minus the unsafe cubes
// blocked so far.
//
//   - Holds: every open valuation of the box is safe.
//   - Violated with a trace: the trace's valuation is generalized to a
//     cube of valuations that share the very same counterexample (see
//     lift), and the cube is blocked. Each member gets the trace,
//     re-pinned to it, as its witness.
//   - Violated without a trace: the box is split on its widest
//     parameter; a box with a single open valuation is unsafe without
//     a witness.
//   - Unknown: synthesis fails as undecided.
//
// Safe is every domain valuation that is not unsafe, so a valuation
// that INIT or INVAR leaves without executions is safe. The wall-clock
// limit (Options.Timeout, Budget.Time) is one deadline across all
// rounds. With Options.Checkpoint set every unsafe valuation is
// recorded under its assignment string as a Result with its verdict
// and witness; with Resume the recorded ones are blocked before the
// first round.
func SynthesizeParams(sys *ts.System, phi *ltl.Formula, opts Options) (res *SynthResult, err error) {
	defer resilience.RecoverTo("synth", &err)
	start := time.Now()
	if len(sys.Params()) == 0 {
		return nil, fmt.Errorf("mc: system %s has no parameters to synthesize", sys.Name)
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if !sys.Finite() {
		return nil, fmt.Errorf("mc: parameter synthesis requires a finite system")
	}
	s := &synth{sys: sys, neg: ltl.Counterexample(phi, sys.Fairness()), params: sys.Params(), unsafe: map[string]bool{},
		res: &SynthResult{Engine: "portfolio-synth", Witnesses: map[string]*trace.Trace{}}}
	for _, p := range s.params {
		s.dom = append(s.dom, p.T.Domain())
	}
	all := s.cube(func(int, expr.Value) bool { return true })
	if opts.Checkpoint != "" {
		ckpt, err := resilience.OpenCheckpoint(opts.Checkpoint, opts.Resume)
		if err != nil {
			return nil, err
		}
		defer ckpt.Flush()
		for _, a := range s.members(all) {
			var r Result
			if ckpt.Lookup(a.String(), &r) && r.Status == Violated {
				_ = s.block(s.point(a), r.Trace) // s.ckpt is unset yet: nothing is recorded twice, nothing can fail
			}
		}
		s.ckpt = ckpt
	}

	boxes := []cube{all}
	for len(boxes) > 0 {
		b := boxes[len(boxes)-1]
		boxes = boxes[:len(boxes)-1]
		for {
			open := s.open(b)
			if len(open) == 0 {
				break
			}
			o, ok := opts.remaining(start)
			if !ok {
				return nil, fmt.Errorf("mc: synthesis timed out")
			}
			resilience.At(opts.ctx(), fmt.Sprintf("synth/%d", s.res.Checks))
			s.res.Checks++
			r, err := Portfolio(restrictInit(sys, s.region(b)), phi, o)
			if err != nil {
				return nil, err
			}
			var c cube
			switch {
			case r.Status == Unknown:
				return nil, fmt.Errorf("mc: synthesis undecided on %d open valuations: %s", len(open), r.Note)
			case r.Status == Holds:
			case r.Trace != nil:
				if s.unsafe[ParamAssignment(r.Trace.Params).String()] {
					return nil, fmt.Errorf("mc: synthesis counterexample under blocked valuation %v", r.Trace.Params)
				}
				if c, err = s.lift(r.Trace); err != nil {
					return nil, err
				}
			case len(open) == 1:
				c = s.point(open[0])
			default:
				lo, hi := b.split()
				boxes = append(boxes, hi, lo)
			}
			if c == nil {
				break
			}
			if err := s.block(c, r.Trace); err != nil {
				return nil, err
			}
		}
	}

	res = s.res
	for _, a := range s.members(all) {
		if s.unsafe[a.String()] {
			res.Unsafe = append(res.Unsafe, a)
		} else {
			res.Safe = append(res.Safe, a)
		}
	}
	sort.Slice(res.Safe, func(i, j int) bool { return res.Safe[i].String() < res.Safe[j].String() })
	sort.Slice(res.Unsafe, func(i, j int) bool { return res.Unsafe[i].String() < res.Unsafe[j].String() })
	res.Elapsed = time.Since(start)
	return res, nil
}

// synth is the state of one synthesis run.
type synth struct {
	sys    *ts.System
	neg    *ltl.Formula // what a counterexample satisfies
	params []*expr.Var
	dom    [][]expr.Value // each parameter's domain

	// cubes are the blocked cubes; unsafe holds the assignment strings
	// of the valuations they cover.
	cubes  []cube
	unsafe map[string]bool
	res    *SynthResult
	ckpt   *resilience.Checkpoint
}

// cube is a product set of parameter valuations: c[i][j] says whether
// the j-th domain value of parameter i is in it. The boxes the loop
// splits are cubes too.
type cube [][]bool

// cube collects, per parameter i, the domain values v with in(i, v).
func (s *synth) cube(in func(i int, v expr.Value) bool) cube {
	c := make(cube, len(s.dom))
	for i, vals := range s.dom {
		c[i] = make([]bool, len(vals))
		for j, v := range vals {
			c[i][j] = in(i, v)
		}
	}
	return c
}

// point is the cube holding valuation a alone.
func (s *synth) point(a ParamAssignment) cube {
	return s.cube(func(i int, v expr.Value) bool { return v.Equal(a[s.params[i].Name]) })
}

// members enumerates the valuations in c.
func (s *synth) members(c cube) []ParamAssignment {
	out := []ParamAssignment{{}}
	for i, p := range s.params {
		var next []ParamAssignment
		for _, a := range out {
			for j, v := range s.dom[i] {
				if c[i][j] {
					b := maps.Clone(a)
					b[p.Name] = v
					next = append(next, b)
				}
			}
		}
		out = next
	}
	return out
}

// open lists the valuations in c that no blocked cube covers.
func (s *synth) open(c cube) []ParamAssignment {
	var out []ParamAssignment
	for _, a := range s.members(c) {
		if !s.unsafe[a.String()] {
			out = append(out, a)
		}
	}
	return out
}

// split halves the box c on the parameter with the most values in it.
func (c cube) split() (lo, hi cube) {
	w, n := 0, 0
	for i := range c {
		k := 0
		for _, in := range c[i] {
			if in {
				k++
			}
		}
		if k > n {
			w, n = i, k
		}
	}
	lo, hi = slices.Clone(c), slices.Clone(c)
	lo[w], hi[w] = make([]bool, len(c[w])), make([]bool, len(c[w]))
	for j, seen := 0, 0; j < len(c[w]); j++ {
		if c[w][j] {
			seen++
			lo[w][j], hi[w][j] = seen <= n/2, seen > n/2
		}
	}
	return lo, hi
}

// region restricts the parameters to the open part of the box b: b
// minus every blocked cube.
func (s *synth) region(b cube) *expr.Expr {
	conj := []*expr.Expr{s.member(b)}
	for _, c := range s.cubes {
		conj = append(conj, expr.Not(s.member(c)))
	}
	return expr.And(conj...)
}

// member says that the parameters take a valuation in c.
func (s *synth) member(c cube) *expr.Expr {
	var conj []*expr.Expr
	for i, p := range s.params {
		var alts []*expr.Expr
		for j, in := range c[i] {
			if in {
				alts = append(alts, expr.Eq(p.Ref(), expr.Const(s.dom[i][j], p.T)))
			}
		}
		if len(alts) < len(c[i]) {
			conj = append(conj, expr.Or(alts...))
		}
	}
	return expr.And(conj...)
}

// block blocks c and records each of its not yet unsafe valuations as
// unsafe, with tr re-pinned to it as its witness when tr is set.
// Overlap with earlier cubes is expected: lifted cubes are maximal.
func (s *synth) block(c cube, tr *trace.Trace) error {
	s.cubes = append(s.cubes, c)
	for _, a := range s.open(c) {
		key := a.String()
		s.unsafe[key] = true
		var w *trace.Trace
		if tr != nil {
			w = s.repin(tr, a)
			s.res.Witnesses[key] = w
		}
		if s.ckpt != nil {
			if err := s.ckpt.Mark(key, &Result{Status: Violated, Trace: w}); err != nil {
				return err
			}
		}
	}
	return nil
}

// repin copies tr's states under the parameter valuation a, with the
// DEFINE display recomputed for it.
func (s *synth) repin(tr *trace.Trace, a ParamAssignment) *trace.Trace {
	w := trace.New()
	w.LoopStart = tr.LoopStart
	show := defineDisplay(s.sys)
	env := expr.MapEnv{}
	for _, p := range s.params {
		w.Params[p.Name], env[p] = a[p.Name], a[p.Name]
	}
	for _, st := range tr.States {
		ns := trace.NewState()
		for _, v := range s.sys.Vars() {
			ns.Values[v.Name], env[v] = st.Values[v.Name], st.Values[v.Name]
		}
		show(env, ns)
		w.States = append(w.States, ns)
	}
	return w
}

// lift generalizes the parameter valuation of a counterexample trace
// to a cube of valuations under which the same states are a
// counterexample too. It blasts a fresh encoder with a free parameter
// frame and one frame per trace state, each pinned to the trace's
// values, and asserts ¬F, where F is INIT, INVAR at every frame, TRANS
// along the chain and the witness conditions BMC assumes (witnessLits).
// Assuming the trace's parameter bits makes that unsatisfiable; the
// failed-assumption core, shrunk by trying to drop each literal once,
// leaves the bits that matter, and every valuation agreeing with them
// satisfies F.
func (s *synth) lift(tr *trace.Trace) (cube, error) {
	solver := sat.New()
	enc := cnf.NewEncoder(solver)
	enc.Params = enc.NewFrame(s.params)
	frames := make([]*cnf.Frame, len(tr.States))
	vars := s.sys.Vars()
	for i, st := range tr.States {
		frames[i] = enc.NewFrame(vars)
		for _, v := range vars {
			for _, l := range enc.ValueLits(frames[i], v, st.Values[v.Name]) {
				solver.AddClause(l)
			}
		}
	}
	notF := []sat.Lit{enc.Lit(s.sys.InitExpr(), frames[0], nil).Not()}
	invar, trans := s.sys.InvarExpr(), s.sys.TransExpr()
	for i, fr := range frames {
		notF = append(notF, enc.Lit(invar, fr, nil).Not())
		if i > 0 {
			notF = append(notF, enc.Lit(trans, frames[i-1], fr).Not())
		}
	}
	for _, l := range witnessLits(ltl.NewBoundedEncoder(enc, frames), trans, s.neg, tr.LoopStart) {
		notF = append(notF, l.Not())
	}
	solver.AddClause(notF...)

	var core []sat.Lit
	for _, p := range s.params {
		core = append(core, enc.ValueLits(enc.Params, p, tr.Params[p.Name])...)
	}
	if solver.SolveAssuming(core...) != sat.Unsat {
		return nil, fmt.Errorf("mc: synthesis could not replay the counterexample under %v", tr.Params)
	}
	core = solver.Core()
	for i := 0; i < len(core); {
		if try := slices.Delete(slices.Clone(core), i, i+1); solver.SolveAssuming(try...) == sat.Unsat {
			core = try
		} else {
			i++
		}
	}
	return s.cube(func(i int, v expr.Value) bool {
		for _, l := range enc.ValueLits(enc.Params, s.params[i], v) {
			if slices.Contains(core, l.Not()) {
				return false
			}
		}
		return true
	}), nil
}

// restrictInit returns a system sharing sys's variables and
// constraints, with INIT strengthened by extra.
func restrictInit(sys *ts.System, extra *expr.Expr) *ts.System {
	w := ts.New(sys.Name)
	w.AdoptVars(sys)
	w.AddInit(sys.InitExpr())
	w.AddInit(extra)
	w.AddTrans(sys.TransExpr())
	w.AddInvar(sys.InvarExpr())
	for _, f := range sys.Fairness() {
		w.AddFairness(f)
	}
	for _, name := range sys.DefineNames() {
		d, _ := sys.DefineByName(name)
		w.Define(name, d)
	}
	return w
}
