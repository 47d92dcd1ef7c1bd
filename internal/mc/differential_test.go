package mc

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/trace"
	"verdict/internal/ts"
	"verdict/internal/witness"
)

// Differential testing: every engine — BMC, k-induction, explicit
// enumeration, BDD reachability, and the portfolio racer — checks the
// same randomly generated safety invariant on the same randomly
// generated transition system, and all conclusive answers must agree.
// The explicit-state engine is the referee (it evaluates the semantics
// directly, sharing no code with the symbolic engines); every
// counterexample trace is replayed through witness.Validate.
//
// The generator is seeded, so a failure reproduces by seed. Systems
// are small by construction (two ints in [0,3], one assigned bool, one
// unconstrained bool input for nondeterminism → ≤ 64 reachable
// states), which keeps BMC refutation-complete at MaxDepth =
// NumStates and k-induction conclusive well below diffMaxDepth thanks
// to the simple-path constraint.

const (
	diffSystems  = 50
	diffMaxDepth = 70 // > longest simple path through 64 states
)

// randDiffSystem builds a random finite system plus a random safety
// predicate over its variables. All integer updates are guarded to
// stay in-domain.
func randDiffSystem(r *rand.Rand, name string) (*ts.System, *expr.Expr) {
	sys := ts.New(name)
	x := sys.Int("x", 0, 3)
	y := sys.Int("y", 0, 3)
	b := sys.Bool("b")
	in := sys.Bool("in") // never Assigned: a nondeterministic input

	sys.Init(x, expr.IntConst(int64(r.Intn(4))))
	sys.Init(y, expr.IntConst(int64(r.Intn(4))))
	sys.Init(b, expr.BoolConst(r.Intn(2) == 0))

	cond := func() *expr.Expr {
		switch r.Intn(6) {
		case 0:
			return expr.Eq(x.Ref(), y.Ref())
		case 1:
			return expr.Lt(x.Ref(), expr.IntConst(int64(1+r.Intn(3))))
		case 2:
			return b.Ref()
		case 3:
			return in.Ref()
		case 4:
			return expr.Not(in.Ref())
		default:
			return expr.And(b.Ref(), expr.Lt(y.Ref(), expr.IntConst(int64(1+r.Intn(3)))))
		}
	}
	intUpd := func(v, other *expr.Var) *expr.Expr {
		base := func() *expr.Expr {
			switch r.Intn(5) {
			case 0:
				return v.Ref()
			case 1:
				return expr.IntConst(int64(r.Intn(4)))
			case 2: // increment, wrapping
				return expr.Ite(expr.Lt(v.Ref(), expr.IntConst(3)),
					expr.Add(v.Ref(), expr.IntConst(1)), expr.IntConst(0))
			case 3: // decrement, wrapping
				return expr.Ite(expr.Gt(v.Ref(), expr.IntConst(0)),
					expr.Sub(v.Ref(), expr.IntConst(1)), expr.IntConst(3))
			default:
				return other.Ref()
			}
		}
		if r.Intn(2) == 0 {
			return expr.Ite(cond(), base(), base())
		}
		return base()
	}
	boolUpd := func() *expr.Expr {
		switch r.Intn(5) {
		case 0:
			return b.Ref()
		case 1:
			return expr.Not(b.Ref())
		case 2:
			return in.Ref()
		case 3:
			return expr.Eq(x.Ref(), y.Ref())
		default:
			return expr.BoolConst(r.Intn(2) == 0)
		}
	}
	sys.Assign(x, intUpd(x, y))
	sys.Assign(y, intUpd(y, x))
	sys.Assign(b, boolUpd())

	// A random predicate — biased so both verdicts occur across seeds.
	var p *expr.Expr
	switch r.Intn(4) {
	case 0:
		p = expr.Le(x.Ref(), expr.IntConst(int64(r.Intn(4))))
	case 1:
		p = expr.Or(expr.Ne(x.Ref(), expr.IntConst(int64(r.Intn(4)))), b.Ref())
	case 2:
		p = expr.Implies(b.Ref(), expr.Le(expr.Add(x.Ref(), y.Ref()), expr.IntConst(int64(2+r.Intn(4)))))
	default:
		p = expr.Or(expr.Lt(x.Ref(), expr.IntConst(int64(1+r.Intn(3)))), expr.Eq(x.Ref(), y.Ref()))
	}
	return sys, p
}

// dumpSystem renders a system + property for failure reproduction.
func dumpSystem(sys *ts.System, p *expr.Expr) string {
	return fmt.Sprintf("INIT %s\nTRANS %s\nproperty G(%s)", sys.InitExpr(), sys.TransExpr(), p)
}

// replayCex asserts a violation trace is a real execution that really
// violates G(p).
func replayCex(t *testing.T, sys *ts.System, tr *trace.Trace, p *expr.Expr, engine string) {
	t.Helper()
	if tr == nil {
		t.Errorf("%s: violated without a counterexample trace", engine)
		return
	}
	// Validating against G(p) also requires the trace to reach a ¬p
	// state.
	if err := witness.Validate(sys, ltl.G(ltl.Atom(p)), tr); err != nil {
		t.Errorf("%s: trace failed replay: %v\ntrace:\n%s", engine, err, tr)
	}
}

func TestDifferentialEngines(t *testing.T) {
	n := int64(diffSystems)
	if testing.Short() {
		n = 15
	}
	sawHolds, sawViolated := 0, 0
	for seed := int64(1); seed <= n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			sys, p := randDiffSystem(r, fmt.Sprintf("diff%d", seed))
			phi := ltl.G(ltl.Atom(p))

			// Referee: explicit-state enumeration.
			ex, err := NewExplicit(sys, Options{})
			if err != nil {
				t.Fatalf("explicit build: %v\n%s", err, dumpSystem(sys, p))
			}
			ref, err := ex.CheckInvariant(p)
			if err != nil {
				t.Fatalf("explicit: %v\n%s", err, dumpSystem(sys, p))
			}
			if ref.Status == Unknown {
				t.Fatalf("explicit engine must be conclusive\n%s", dumpSystem(sys, p))
			}
			if ref.Status == Holds {
				sawHolds++
			} else {
				sawViolated++
			}

			type verdict struct {
				name string
				res  *Result
				err  error
			}
			sym, symErr := NewSym(sys, Options{})
			var bddRes *Result
			var bddErr error = symErr
			if symErr == nil {
				bddRes, bddErr = sym.CheckInvariant(p)
			}
			bmcRes, bmcErr := BMC(sys, phi, Options{MaxDepth: ex.NumStates()})
			kiRes, kiErr := KInduction(sys, p, Options{MaxDepth: diffMaxDepth})
			pfRes, pfErr := Portfolio(sys, phi, Options{MaxDepth: diffMaxDepth})
			for _, v := range []verdict{
				{"bdd", bddRes, bddErr},
				{"bmc", bmcRes, bmcErr},
				{"k-induction", kiRes, kiErr},
				{"portfolio", pfRes, pfErr},
			} {
				if v.err != nil {
					t.Fatalf("%s: %v\n%s", v.name, v.err, dumpSystem(sys, p))
				}
				if v.res.Status == Unknown {
					// BMC cannot prove; at MaxDepth = NumStates its
					// silence confirms Holds. Everyone else must
					// conclude on these tiny systems.
					if v.name == "bmc" && ref.Status == Holds {
						continue
					}
					t.Errorf("%s: unexpectedly unknown (%s), referee says %v\n%s",
						v.name, v.res.Note, ref.Status, dumpSystem(sys, p))
					continue
				}
				if v.res.Status != ref.Status {
					t.Errorf("%s disagrees: got %v, explicit referee says %v\n%s\n%s trace:\n%s\nreferee trace:\n%s",
						v.name, v.res.Status, ref.Status, dumpSystem(sys, p), v.name, v.res.Trace, ref.Trace)
					continue
				}
				if v.res.Status == Violated {
					replayCex(t, sys, v.res.Trace, p, v.name)
				}
			}
			if ref.Status == Violated {
				replayCex(t, sys, ref.Trace, p, "explicit")
			}
		})
	}
	// The generator should exercise both verdicts; if it stops doing
	// so the differential test silently loses half its power.
	if sawHolds == 0 || sawViolated == 0 {
		t.Errorf("degenerate generator: %d holds, %d violated across %d systems",
			sawHolds, sawViolated, n)
	}
}

// TestDifferentialSynth cross-checks parameter synthesis on random
// parametric systems against the explicit engine, run on the system
// pinned to each valuation in turn. The invariant exercises finite
// counterexamples; F(G) and G(F) exercise lifted lassos. Both must
// give identical Safe/Unsafe partitions, and every unsafe valuation's
// witness must replay under that valuation.
func TestDifferentialSynth(t *testing.T) {
	n := int64(10)
	if testing.Short() {
		n = 4
	}
	for seed := int64(1); seed <= n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(1000 + seed))
			sys, p := randDiffSystem(r, fmt.Sprintf("synthdiff%d", seed))
			c := sys.IntParam("c", 0, 3)
			// Weave the parameter into the property so the safe set
			// genuinely depends on it.
			pp := expr.Or(expr.Lt(x0(sys).Ref(), c.Ref()), p)
			for _, prop := range []struct {
				phi   *ltl.Formula
				check func(*Explicit) (*Result, error)
			}{
				{ltl.G(ltl.Atom(pp)), func(ex *Explicit) (*Result, error) { return ex.CheckInvariant(pp) }},
				{ltl.F(ltl.G(ltl.Atom(pp))), func(ex *Explicit) (*Result, error) { return ex.CheckFG(pp) }},
				{ltl.G(ltl.F(ltl.Atom(pp))), func(ex *Explicit) (*Result, error) { return ex.CheckGF(pp) }},
			} {
				res, err := SynthesizeParams(sys, prop.phi, Options{MaxDepth: diffMaxDepth})
				if err != nil {
					t.Fatalf("%s: %v\n%s", prop.phi, err, dumpSystem(sys, pp))
				}
				if got, want := partition(res), explicitPartition(t, sys, prop.check); got != want {
					t.Errorf("%s: synthesis disagrees with the explicit engine:\n got %s\nwant %s\n%s", prop.phi, got, want, dumpSystem(sys, pp))
				}
				for _, ua := range res.Unsafe {
					tr, ok := res.Witnesses[ua.String()]
					if !ok {
						t.Errorf("%s: unsafe %s has no witness trace", prop.phi, ua)
						continue
					}
					if err := witness.Validate(sys, prop.phi, tr); err != nil {
						t.Errorf("%s: witness for %s rejected: %v\n%s", prop.phi, ua, err, tr.Full())
					}
					if got := tr.Params["c"]; got.String() != ua["c"].String() {
						t.Errorf("%s: witness for %s pinned c=%s", prop.phi, ua, got)
					}
				}
			}
		})
	}
}

// explicitPartition decides every parameter valuation of sys with the
// explicit engine on the system pinned to it, rendered as partition
// renders a synthesis result.
func explicitPartition(t *testing.T, sys *ts.System, check func(*Explicit) (*Result, error)) string {
	t.Helper()
	res := &SynthResult{}
	s := &synth{params: sys.Params()}
	for _, p := range s.params {
		s.dom = append(s.dom, p.T.Domain())
	}
	for _, a := range s.members(s.cube(func(int, expr.Value) bool { return true })) {
		var pins []*expr.Expr
		for _, p := range s.params {
			pins = append(pins, expr.Eq(p.Ref(), expr.Const(a[p.Name], p.T)))
		}
		ex, err := NewExplicit(restrictInit(sys, expr.And(pins...)), Options{})
		if err != nil {
			t.Fatalf("explicit under %s: %v", a, err)
		}
		r, err := check(ex)
		if err != nil {
			t.Fatalf("explicit under %s: %v", a, err)
		}
		switch r.Status {
		case Holds:
			res.Safe = append(res.Safe, a)
		case Violated:
			res.Unsafe = append(res.Unsafe, a)
		default:
			t.Fatalf("explicit under %s: %v", a, r)
		}
	}
	sort.Slice(res.Safe, func(i, j int) bool { return res.Safe[i].String() < res.Safe[j].String() })
	sort.Slice(res.Unsafe, func(i, j int) bool { return res.Unsafe[i].String() < res.Unsafe[j].String() })
	return partition(res)
}

// x0 fetches the generator's "x" variable back out of the system.
func x0(sys *ts.System) *expr.Var {
	v, ok := sys.VarByName("x")
	if !ok {
		panic("randDiffSystem always declares x")
	}
	return v
}

// partition canonicalizes a synth result for comparison.
func partition(r *SynthResult) string {
	s := "safe:"
	for _, a := range r.Safe {
		s += " [" + a.String() + "]"
	}
	s += " unsafe:"
	for _, a := range r.Unsafe {
		s += " [" + a.String() + "]"
	}
	return s
}
