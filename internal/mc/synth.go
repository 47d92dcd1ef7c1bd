package mc

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"verdict/internal/bdd"
	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/pool"
	"verdict/internal/resilience"
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
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%s", k, a[k]))
	}
	return strings.Join(parts, " ")
}

// SynthResult partitions the finite parameter space of a system by
// whether the property can be violated under each valuation.
type SynthResult struct {
	// Safe valuations guarantee the property for every execution.
	Safe []ParamAssignment
	// Unsafe valuations admit at least one violating execution.
	Unsafe []ParamAssignment
	// Witnesses maps an unsafe assignment's String() to a violating
	// trace, when the deciding engine produced one (enumeration
	// synthesis only; the BDD-projection path decides whole parameter
	// sets at once and records no per-valuation traces).
	Witnesses map[string]*trace.Trace
	// Engine and Elapsed describe how the split was computed.
	Engine  string
	Elapsed time.Duration
}

// SynthesizeParams computes, for every valuation of the system's
// (finite) parameters, whether the LTL property holds on all
// executions — the paper's "suggest safe configuration parameters"
// workflow (e.g. p ∈ {1,2} for the rollout case study). The result is
// exact: it uses BDD reachability for safety invariants and the
// tableau/fair-cycle product for general LTL.
func SynthesizeParams(sys *ts.System, phi *ltl.Formula, opts Options) (res *SynthResult, err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			switch r {
			case bdd.ErrInterrupted:
				res, err = nil, fmt.Errorf("mc: synthesis timed out")
			case bdd.ErrNodeBudget:
				res, err = nil, fmt.Errorf("mc: synthesis exhausted bdd node budget (%d nodes)", opts.Budget.BDDNodes)
			default:
				res, err = nil, resilience.NewEngineError("bdd-synth", r)
			}
		}
	}()
	if len(sys.Params()) == 0 {
		return nil, fmt.Errorf("mc: system %s has no parameters to synthesize", sys.Name)
	}
	s, err := NewSym(sys, opts)
	if err != nil {
		return nil, err
	}
	var unsafe bdd.Node
	if p, ok := ltl.IsSafetyInvariant(phi); ok {
		reach, err := s.Reach()
		if err != nil {
			return nil, fmt.Errorf("mc: synthesis timed out during reachability")
		}
		bad := s.m.And(reach, s.m.Not(s.compileBool(p)))
		unsafe = s.projectParams(bad)
	} else {
		u, err := s.unsafeParamsLTL(phi)
		if err != nil {
			return nil, err
		}
		unsafe = u
	}
	// Parameter domain: all valuations satisfying the domain bits and
	// any INIT constraints that mention only parameters.
	dom := s.domCur
	safe := s.m.And(dom, s.m.Not(unsafe))
	// Project both onto parameter bits before enumeration.
	safe = s.projectParams(safe)
	unsafeP := s.m.And(s.projectParams(dom), unsafe)

	res = &SynthResult{Engine: "bdd-synth", Elapsed: time.Since(start)}
	res.Safe = s.enumParams(safe)
	res.Unsafe = s.enumParams(unsafeP)
	res.Elapsed = time.Since(start)
	return res, nil
}

// projectParams existentially quantifies every non-parameter level.
func (s *Sym) projectParams(f bdd.Node) bdd.Node {
	set := bdd.VarSet{}
	for _, v := range s.sys.AllVars() {
		if v.Param {
			continue
		}
		lay := s.layout[v]
		for j := 0; j < lay.width; j++ {
			set[lay.base+2*j] = true
			set[lay.base+2*j+1] = true
		}
	}
	// Quantify any monitor bits too.
	for l := range s.cur2next {
		if !s.isParamLevel(l) {
			set[l] = true
			set[s.cur2next[l]] = true
		}
	}
	return s.m.Exists(f, set)
}

func (s *Sym) isParamLevel(l int) bool {
	for _, v := range s.sys.Params() {
		lay := s.layout[v]
		if l >= lay.base && l < lay.base+2*lay.width {
			return true
		}
	}
	return false
}

// unsafeParamsLTL computes the parameter valuations under which some
// fair path violates phi, via the tableau product.
func (s *Sym) unsafeParamsLTL(phi *ltl.Formula) (bdd.Node, error) {
	neg := ltl.Not(phi).NNF()
	tb := s.buildTableau(neg)
	savedTrans, savedCur, savedNext, savedFair := s.trans, s.curState, s.nextState, s.fairness
	defer func() {
		s.trans, s.curState, s.nextState, s.fairness = savedTrans, savedCur, savedNext, savedFair
	}()
	s.trans = s.m.And(s.trans, tb.trans)
	cs, ns := bdd.VarSet{}, bdd.VarSet{}
	for v := range savedCur {
		cs[v] = true
	}
	for v := range tb.monCur {
		cs[v] = true
	}
	for v := range savedNext {
		ns[v] = true
	}
	for v := range tb.monNext {
		ns[v] = true
	}
	s.curState, s.nextState = cs, ns
	s.fairness = append(append([]bdd.Node{}, savedFair...), tb.fairness...)

	pinit := s.m.And(s.init, tb.sat)
	reach := pinit
	frontier := pinit
	for frontier != bdd.False {
		if s.opts.expired(s.start) {
			return bdd.False, fmt.Errorf("mc: synthesis timed out during product reachability")
		}
		img := s.Image(frontier)
		frontier = s.m.And(img, s.m.Not(reach))
		reach = s.m.Or(reach, frontier)
	}
	fair, err := s.fairStates(reach)
	if err != nil {
		return bdd.False, fmt.Errorf("mc: synthesis timed out during fair-cycle search")
	}
	return s.projectParams(s.m.And(pinit, fair)), nil
}

// enumParams enumerates total parameter valuations of a BDD over
// parameter current-state bits (capped at 65536 to keep output sane).
func (s *Sym) enumParams(f bdd.Node) []ParamAssignment {
	var support []int
	for _, p := range s.sys.Params() {
		lay := s.layout[p]
		for j := 0; j < lay.width; j++ {
			support = append(support, lay.base+2*j)
		}
	}
	sort.Ints(support)
	var out []ParamAssignment
	s.m.AllSat(f, support, func(asn map[int]bool) bool {
		pa := ParamAssignment{}
		for _, p := range s.sys.Params() {
			pa[p.Name] = s.decodeVar(p, asn)
		}
		out = append(out, pa)
		return len(out) < 65536
	})
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// SynthesizeParamsEnum is the enumeration fallback (and ablation
// baseline): it checks the property separately for every parameter
// valuation with the engine portfolio, rather than projecting BDD
// sets.
//
// The finite valuation space is embarrassingly parallel, so the
// valuations fan out over Options.Workers goroutines (0 = NumCPU, 1 =
// serial), each checking its own pinned clone of the system with its
// own solvers. Results land in per-valuation slots and are merged in
// enumeration order, then sorted by assignment string, so Safe,
// Unsafe, and Witnesses are byte-identical regardless of worker count
// or goroutine scheduling. The first undecided valuation or engine
// error cancels the remaining workers.
func SynthesizeParamsEnum(sys *ts.System, phi *ltl.Formula, opts Options) (*SynthResult, error) {
	start := time.Now()
	params := sys.Params()
	if len(params) == 0 {
		return nil, fmt.Errorf("mc: system %s has no parameters to synthesize", sys.Name)
	}
	for _, p := range params {
		if !p.T.Finite() {
			return nil, fmt.Errorf("mc: enumeration synthesis requires finite parameters (%s is real)", p.Name)
		}
	}

	// Enumerate the full valuation space up front (cheap: it is the
	// product of small finite domains) so the checks can be scheduled
	// in any order while keeping a canonical index per valuation.
	type job struct {
		vals ParamAssignment
		pins []*expr.Expr
	}
	var jobs []job
	var rec func(i int, pins []*expr.Expr, vals ParamAssignment)
	rec = func(i int, pins []*expr.Expr, vals ParamAssignment) {
		if i == len(params) {
			cp := ParamAssignment{}
			for k, v := range vals {
				cp[k] = v
			}
			jobs = append(jobs, job{cp, append([]*expr.Expr(nil), pins...)})
			return
		}
		p := params[i]
		for _, val := range domainValues(p.T) {
			vals[p.Name] = val
			rec(i+1, append(pins, expr.Eq(p.Ref(), expr.Const(val, p.T))), vals)
		}
	}
	rec(0, nil, ParamAssignment{})

	// With Options.Checkpoint set, every completed valuation is
	// persisted (key = the assignment's canonical string) as a Result
	// in its JSON wire form, verdict and trace only, and with Resume the
	// recorded verdicts are replayed instead of re-checked — so a killed
	// sweep picks up where it stopped and produces the same merged
	// result. A cell that does not decode to holds or violated is
	// recomputed.
	var ckpt *resilience.Checkpoint
	if opts.Checkpoint != "" {
		var err error
		ckpt, err = resilience.OpenCheckpoint(opts.Checkpoint, opts.Resume)
		if err != nil {
			return nil, err
		}
		defer ckpt.Flush()
	}

	results := make([]*Result, len(jobs))
	err := pool.Run(opts.ctx(), opts.workers(), len(jobs), func(ctx context.Context, i int) error {
		key := jobs[i].vals.String()
		if ckpt != nil && opts.Resume {
			var r Result
			if ckpt.Lookup(key, &r) && r.Status != Unknown {
				results[i] = &r
				return nil
			}
		}
		resilience.At(ctx, fmt.Sprintf("synth/%d", i))
		inner := opts
		inner.Context = ctx
		r, err := Portfolio(clonePinned(sys, jobs[i].pins), phi, inner)
		if err != nil {
			return err
		}
		// With ValidateWitness the portfolio accepts only evidence that
		// survives independent replay, so a fictitious trace surfaces
		// here as Unknown and fails the sweep rather than being recorded.
		if r.Status == Unknown {
			if ctx.Err() != nil {
				return ctx.Err() // cancelled by a sibling's failure
			}
			return fmt.Errorf("mc: enumeration synthesis undecided for %s: %s", jobs[i].vals, r.Note)
		}
		results[i] = r
		if ckpt != nil {
			if err := ckpt.Mark(key, &Result{Status: r.Status, Trace: r.Trace}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err // deferred Flush keeps the cells finished before the failure
	}

	res := &SynthResult{Engine: "enum-synth", Witnesses: make(map[string]*trace.Trace)}
	for i, r := range results {
		switch r.Status {
		case Holds:
			res.Safe = append(res.Safe, jobs[i].vals)
		case Violated:
			res.Unsafe = append(res.Unsafe, jobs[i].vals)
			if r.Trace != nil {
				res.Witnesses[jobs[i].vals.String()] = r.Trace
			}
		}
	}
	sort.Slice(res.Safe, func(i, j int) bool { return res.Safe[i].String() < res.Safe[j].String() })
	sort.Slice(res.Unsafe, func(i, j int) bool { return res.Unsafe[i].String() < res.Unsafe[j].String() })
	res.Elapsed = time.Since(start)
	return res, nil
}

// clonePinned shallow-reuses sys but adds INIT constraints pinning the
// parameters. ts.System has no copy-on-write, so we rebuild a wrapper
// system sharing the variables.
func clonePinned(sys *ts.System, pins []*expr.Expr) *ts.System {
	w := ts.New(sys.Name + "#pinned")
	// Share variables by re-registering them (IDs preserved).
	w.AdoptVars(sys)
	w.AddInit(sys.InitExpr())
	for _, p := range pins {
		w.AddInit(p)
	}
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

// domainValues enumerates a finite type's values.
func domainValues(t expr.Type) []expr.Value {
	switch t.Kind {
	case expr.KindBool:
		return []expr.Value{expr.BoolValue(false), expr.BoolValue(true)}
	case expr.KindInt:
		out := make([]expr.Value, 0, t.Hi-t.Lo+1)
		for i := t.Lo; i <= t.Hi; i++ {
			out = append(out, expr.IntValue(i))
		}
		return out
	case expr.KindEnum:
		out := make([]expr.Value, 0, len(t.Values))
		for _, s := range t.Values {
			out = append(out, expr.EnumValue(s))
		}
		return out
	}
	panic("mc: domainValues on infinite type")
}
