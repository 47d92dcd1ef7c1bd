// Package verdict is a verification toolkit for "self-driving"
// service-infrastructure control loops, reproducing the system of
// "Towards Verified Self-Driving Infrastructure" (HotNets '20).
//
// Orchestration controllers (schedulers, deschedulers, deployment
// controllers, autoscalers, rolling-update controllers), load
// balancers and the network environment are modeled together as one
// parametric transition system. verdict then checks LTL/CTL safety and
// liveness properties with symbolic model checking — SAT-based bounded
// model checking with lasso liveness counterexamples, k-induction,
// BDD fixpoints with fairness, and a lazy SMT(LRA) engine for models
// with real-valued traffic and latency — and can synthesize the safe
// values of configuration parameters.
//
// Everything is implemented from scratch on the Go standard library:
// the CDCL SAT solver, CNF/BDD compilers, simplex-based LRA solver,
// and the temporal-logic machinery live under internal/ and are driven
// through this package's API.
//
// # Quick start
//
//	sys := verdict.NewSystem("counter")
//	x := sys.Int("x", 0, 7)
//	sys.Init(x, verdict.IntConst(0))
//	sys.Assign(x, verdict.Ite(verdict.Lt(x.Ref(), verdict.IntConst(7)),
//	    verdict.Add(x.Ref(), verdict.IntConst(1)), verdict.IntConst(0)))
//	res, err := verdict.Check(sys, verdict.G(verdict.Atom(
//	    verdict.Le(x.Ref(), verdict.IntConst(7)))), verdict.Options{})
//
// Models can also be written in the textual language (see ParseModel)
// or taken from the built-in library reproducing the paper's case
// studies (packages internal/models/... via the cmd/verdict CLI).
package verdict

import (
	"fmt"
	"math/big"
	"os"

	"verdict/internal/ctl"
	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/mc"
	"verdict/internal/resilience"
	"verdict/internal/smvlang"
	"verdict/internal/trace"
	"verdict/internal/ts"
	"verdict/internal/witness"
)

// System is a parametric transition system under construction.
type System = ts.System

// NewSystem returns an empty system.
func NewSystem(name string) *System { return ts.New(name) }

// Expr is a typed state expression; Var is a state variable or
// parameter declared on a System.
type (
	Expr = expr.Expr
	Var  = expr.Var
	Type = expr.Type
)

// Value is a concrete value appearing in traces.
type Value = expr.Value

// --- expression constructors ---

// True returns the boolean constant true.
func True() *Expr { return expr.True() }

// False returns the boolean constant false.
func False() *Expr { return expr.False() }

// BoolConst returns a boolean constant.
func BoolConst(b bool) *Expr { return expr.BoolConst(b) }

// IntConst returns an integer constant.
func IntConst(i int64) *Expr { return expr.IntConst(i) }

// RealConst returns an exact rational constant.
func RealConst(r *big.Rat) *Expr { return expr.RealConst(r) }

// RealFrac returns the rational constant num/den.
func RealFrac(num, den int64) *Expr { return expr.RealFrac(num, den) }

// EnumConst returns a symbolic constant of enum type t.
func EnumConst(t Type, sym string) *Expr { return expr.EnumConst(t, sym) }

// Not negates a boolean expression.
func Not(e *Expr) *Expr { return expr.Not(e) }

// And conjoins boolean expressions.
func And(es ...*Expr) *Expr { return expr.And(es...) }

// Or disjoins boolean expressions.
func Or(es ...*Expr) *Expr { return expr.Or(es...) }

// Implies returns a -> b.
func Implies(a, b *Expr) *Expr { return expr.Implies(a, b) }

// Iff returns a <-> b.
func Iff(a, b *Expr) *Expr { return expr.Iff(a, b) }

// Eq returns a = b.
func Eq(a, b *Expr) *Expr { return expr.Eq(a, b) }

// Ne returns a != b.
func Ne(a, b *Expr) *Expr { return expr.Ne(a, b) }

// Lt returns a < b.
func Lt(a, b *Expr) *Expr { return expr.Lt(a, b) }

// Le returns a <= b.
func Le(a, b *Expr) *Expr { return expr.Le(a, b) }

// Gt returns a > b.
func Gt(a, b *Expr) *Expr { return expr.Gt(a, b) }

// Ge returns a >= b.
func Ge(a, b *Expr) *Expr { return expr.Ge(a, b) }

// Add sums numeric expressions.
func Add(es ...*Expr) *Expr { return expr.Add(es...) }

// Sub returns a - b.
func Sub(a, b *Expr) *Expr { return expr.Sub(a, b) }

// Mul multiplies numeric expressions (finite engines require all but
// one factor constant).
func Mul(es ...*Expr) *Expr { return expr.Mul(es...) }

// Ite returns if cond then a else b.
func Ite(cond, a, b *Expr) *Expr { return expr.Ite(cond, a, b) }

// CountTrue counts how many of the boolean expressions hold.
func CountTrue(es ...*Expr) *Expr { return expr.Count(es...) }

// --- temporal logic ---

// LTL is a linear temporal logic formula; CTL a computation tree logic
// formula.
type (
	LTL = ltl.Formula
	CTL = ctl.Formula
)

// Atom wraps a boolean state predicate as an LTL formula.
func Atom(e *Expr) *LTL { return ltl.Atom(e) }

// G is "always".
func G(f *LTL) *LTL { return ltl.G(f) }

// F is "eventually".
func F(f *LTL) *LTL { return ltl.F(f) }

// X is "next".
func X(f *LTL) *LTL { return ltl.X(f) }

// U is "until".
func U(a, b *LTL) *LTL { return ltl.U(a, b) }

// FWithin is "f within d steps" — the §5 real-time property shape
// ("converges within 5 steps").
func FWithin(d int, f *LTL) *LTL { return ltl.FWithin(d, f) }

// GWithin is "f for the next d steps".
func GWithin(d int, f *LTL) *LTL { return ltl.GWithin(d, f) }

// NotLTL negates a formula.
func NotLTL(f *LTL) *LTL { return ltl.Not(f) }

// AndLTL conjoins formulas.
func AndLTL(fs ...*LTL) *LTL { return ltl.And(fs...) }

// OrLTL disjoins formulas.
func OrLTL(fs ...*LTL) *LTL { return ltl.Or(fs...) }

// ImpliesLTL returns a -> b.
func ImpliesLTL(a, b *LTL) *LTL { return ltl.Implies(a, b) }

// CTLAtom wraps a boolean state predicate as a CTL formula.
func CTLAtom(e *Expr) *CTL { return ctl.Atom(e) }

// AG is "on all paths, always".
func AG(f *CTL) *CTL { return ctl.AG(f) }

// AF is "on all paths, eventually".
func AF(f *CTL) *CTL { return ctl.AF(f) }

// EF is "on some path, eventually".
func EF(f *CTL) *CTL { return ctl.EF(f) }

// EG is "on some path, always".
func EG(f *CTL) *CTL { return ctl.EG(f) }

// --- checking ---

// Options tunes the engines; Result reports outcomes; Stats carries
// the deciding engine's observability counters; Trace is a
// counterexample execution.
type (
	Options = mc.Options
	Result  = mc.Result
	Status  = mc.Status
	Stats   = mc.Stats
	Trace   = trace.Trace
)

// Check outcomes.
const (
	Unknown  = mc.Unknown
	Holds    = mc.Holds
	Violated = mc.Violated
)

// Budget caps the resources a single check may consume (wall clock,
// SAT conflicts, BDD arena nodes); exhaustion degrades the verdict to
// Unknown instead of running unbounded. RetryPolicy escalates budgets
// geometrically across re-runs of an Unknown check.
type (
	Budget      = mc.Budget
	RetryPolicy = resilience.RetryPolicy
)

// EngineError is the structured failure produced when an engine
// panics: the engine's name, the panic value, and the stack. Engines
// are isolated — a panic surfaces as this error (or as an entry in
// Stats.EngineErrors for portfolio survivors), never as a crash of the
// calling goroutine.
type EngineError = resilience.EngineError

// guard makes fn panic-safe: Check and its siblings are API
// boundaries, so a defect anywhere in the engine stack surfaces as an
// *EngineError instead of taking the caller down.
func guard(name string, fn func() (*Result, error)) (res *Result, err error) {
	defer resilience.RecoverTo(name, &err)
	return fn()
}

// Check decides an LTL property: safety invariants go through
// k-induction, other finite-system properties through BMC plus the
// BDD engine, and real-valued models through SMT-based BMC (which can
// refute but not prove).
func Check(sys *System, phi *LTL, opts Options) (*Result, error) {
	return guard("check", func() (*Result, error) { return mc.CheckLTL(sys, phi, opts) })
}

// CheckWithRetry is Check under an escalating budget ladder: while the
// verdict is Unknown, the check re-runs with opts.Budget scaled by
// pol's factor, up to pol.Attempts tries — spend a small budget on the
// easy cases and escalate only for the hard ones.
func CheckWithRetry(sys *System, phi *LTL, opts Options, pol RetryPolicy) (*Result, error) {
	return guard("check-retry", func() (*Result, error) { return mc.CheckLTLWithRetry(sys, phi, opts, pol) })
}

// CheckPortfolio races every applicable engine — BMC, k-induction,
// and the BDD engine — on the same instance as cancellable goroutines
// and returns the first conclusive result, cancelling the rest. Use
// it when no single engine is known to be fast for the workload; set
// opts.Context to cancel the whole race externally.
func CheckPortfolio(sys *System, phi *LTL, opts Options) (*Result, error) {
	return guard("portfolio", func() (*Result, error) { return mc.Portfolio(sys, phi, opts) })
}

// CheckPortfolioWithRetry is CheckPortfolio under the same escalating
// budget ladder as CheckWithRetry.
func CheckPortfolioWithRetry(sys *System, phi *LTL, opts Options, pol RetryPolicy) (*Result, error) {
	return guard("portfolio-retry", func() (*Result, error) { return mc.CheckPortfolioWithRetry(sys, phi, opts, pol) })
}

// FindCounterexample runs bounded model checking only: it searches for
// finite-prefix or lasso counterexamples up to opts.MaxDepth and never
// proves a property.
func FindCounterexample(sys *System, phi *LTL, opts Options) (*Result, error) {
	return guard("bmc", func() (*Result, error) {
		r, err := mc.BMC(sys, phi, opts)
		if err == nil && opts.ValidateWitness {
			mc.RecordWitness(sys, phi, r)
		}
		return r, err
	})
}

// ProveInvariant attempts a k-induction proof of G(p).
func ProveInvariant(sys *System, p *Expr, opts Options) (*Result, error) {
	return guard("k-induction", func() (*Result, error) {
		r, err := mc.KInduction(sys, p, opts)
		if err == nil && opts.ValidateWitness {
			mc.RecordWitness(sys, ltl.G(ltl.Atom(p)), r)
		}
		return r, err
	})
}

// CheckInvariantBDD decides G(p) by exhaustive symbolic reachability —
// slower than k-induction when the property is inductive, but it
// mirrors the search behavior of classic BDD model checkers (used by
// the Figure 6 harness to reproduce the paper's runtime shape).
func CheckInvariantBDD(sys *System, p *Expr, opts Options) (*Result, error) {
	return guard("bdd", func() (*Result, error) {
		sym, err := mc.NewSym(sys, opts)
		if err == mc.ErrTimeout {
			return &Result{Status: Unknown, Engine: "bdd", Note: "timeout while building the BDD transition relation"}, nil
		}
		if err == mc.ErrBudget {
			return &Result{Status: Unknown, Engine: "bdd",
				Note: fmt.Sprintf("bdd node budget exhausted (%d nodes) while building the transition relation", opts.Budget.BDDNodes)}, nil
		}
		if err != nil {
			return nil, err
		}
		r, err := sym.CheckInvariant(p)
		if err == nil && opts.ValidateWitness {
			mc.RecordWitness(sys, ltl.G(ltl.Atom(p)), r)
		}
		return r, err
	})
}

// CheckCTL decides a CTL property with the BDD engine (finite systems
// only), honoring fairness constraints.
func CheckCTL(sys *System, phi *CTL, opts Options) (*Result, error) {
	return guard("ctl", func() (*Result, error) {
		sym, err := mc.NewSym(sys, opts)
		if err != nil {
			return nil, err
		}
		return sym.CheckCTL(phi)
	})
}

// --- parameter synthesis ---

// ParamAssignment and SynthResult report parameter synthesis outcomes.
type (
	ParamAssignment = mc.ParamAssignment
	SynthResult     = mc.SynthResult
)

// SynthesizeParams partitions the finite parameter space into safe
// valuations (property holds on every execution) and unsafe ones,
// exactly, using BDD projection.
func SynthesizeParams(sys *System, phi *LTL, opts Options) (res *SynthResult, err error) {
	defer resilience.RecoverTo("synth", &err)
	return mc.SynthesizeParams(sys, phi, opts)
}

// SynthesizeParamsEnum computes the same safe/unsafe split by
// checking every parameter valuation separately, fanning the
// valuations out over opts.Workers goroutines (0 = NumCPU). Slower
// than BDD projection on large spaces but embarrassingly parallel,
// and it records a violating witness trace per unsafe valuation.
func SynthesizeParamsEnum(sys *System, phi *LTL, opts Options) (res *SynthResult, err error) {
	defer resilience.RecoverTo("synth-enum", &err)
	return mc.SynthesizeParamsEnum(sys, phi, opts)
}

// BlastRadius reports how far a metric can degrade across states
// reachable after an operational event — the paper's §5 risk
// assessment.
type BlastRadius = mc.BlastRadius

// AnalyzeBlastRadius computes the reachable range of a bounded-int
// metric, split by whether the event predicate has occurred.
func AnalyzeBlastRadius(sys *System, event, metric *Expr, opts Options) (*BlastRadius, error) {
	return mc.AnalyzeBlastRadius(sys, event, metric, opts)
}

// ValidateTrace replays a counterexample against the system semantics
// by direct evaluation — an engine-independent referee. It checks the
// trace is an execution of sys, not which property it violates.
func ValidateTrace(sys *System, t *Trace) error {
	return witness.Validate(sys, nil, t)
}

// --- textual models ---

// Model is a parsed textual model: a system plus its specs.
type Model = smvlang.Program

// ParseModel parses a model written in verdict's SMV-like language
// (see internal/smvlang for the grammar).
func ParseModel(src string) (*Model, error) { return smvlang.Parse(src) }

// LoadModel reads and parses a model file. Like ParseModel it is a
// panic-safe boundary: malformed input of any shape yields a
// positioned error, never a crash (the parser recovers internally and
// is fuzzed against arbitrary bytes).
func LoadModel(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("verdict: %w", err)
	}
	return ParseModel(string(data))
}

// RenderModel serializes a model back into the textual language; the
// output re-parses to an equivalent model (see internal/smvlang for
// the one enum-related caveat).
func RenderModel(m *Model) string { return smvlang.Render(m) }
