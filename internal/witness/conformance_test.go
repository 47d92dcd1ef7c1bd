package witness_test

// Model-based conformance harness: seeded random transition systems
// and properties are thrown at every engine, and every verdict's
// evidence must survive independent validation — counterexamples must
// replay and genuinely violate the property, certificates must check
// by direct evaluation, and no two engines may return contradictory
// conclusive verdicts on the same instance. The harness is the
// executable form of the package contract: an engine bug that
// produces a wrong verdict with evidence cannot pass.
//
// The seeds are fixed so failures reproduce exactly; CI runs the
// harness several times (-count) to shake out schedule-dependent
// behavior in the portfolio.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/mc"
	"verdict/internal/ts"
	"verdict/internal/witness"
)

// rv is a generated variable with its domain, so the generator can
// emit constants and comparisons that stay in range.
type rv struct {
	v      *expr.Var
	lo, hi int64 // int domain; unused for bool
	isBool bool
}

func (g rv) randConst(r *rand.Rand) *expr.Expr {
	if g.isBool {
		return expr.BoolConst(r.Intn(2) == 0)
	}
	return expr.IntConst(g.lo + r.Int63n(g.hi-g.lo+1))
}

// randomSystem builds a small closed finite system: 2-3 bounded ints
// plus a boolean, each with a constant initial value and a
// deterministic update that may branch on the other variables — rich
// enough to exercise lassos, inductive invariants, and reachability,
// small enough that every engine decides it in milliseconds.
func randomSystem(r *rand.Rand, name string) (*ts.System, []rv) {
	sys := ts.New(name)
	n := 2 + r.Intn(2)
	vars := make([]rv, 0, n+1)
	for i := 0; i < n; i++ {
		hi := int64(2 + r.Intn(2))
		vars = append(vars, rv{v: sys.Int(fmt.Sprintf("v%d", i), 0, hi), lo: 0, hi: hi})
	}
	vars = append(vars, rv{v: sys.Bool("flag"), isBool: true})
	for _, g := range vars {
		sys.Init(g.v, g.randConst(r))
	}
	for _, g := range vars {
		sys.Assign(g.v, randomUpdate(r, g, vars))
	}
	return sys, vars
}

// randomUpdate returns a next-state expression for g whose value is
// always inside g's domain.
func randomUpdate(r *rand.Rand, g rv, vars []rv) *expr.Expr {
	if g.isBool {
		switch r.Intn(4) {
		case 0:
			return g.v.Ref()
		case 1:
			return expr.Not(g.v.Ref())
		case 2:
			return g.randConst(r)
		default:
			return randomAtom(r, vars)
		}
	}
	wrapInc := func() *expr.Expr {
		return expr.Ite(expr.Lt(g.v.Ref(), expr.IntConst(g.hi)),
			expr.Add(g.v.Ref(), expr.IntConst(1)), expr.IntConst(g.lo))
	}
	switch r.Intn(4) {
	case 0:
		return g.v.Ref()
	case 1:
		return wrapInc()
	case 2:
		return g.randConst(r)
	default:
		arms := []func() *expr.Expr{g.v.Ref, wrapInc, func() *expr.Expr { return g.randConst(r) }}
		return expr.Ite(randomAtom(r, vars),
			arms[r.Intn(len(arms))](), arms[r.Intn(len(arms))]())
	}
}

// randomAtom returns a boolean state predicate over the variables.
func randomAtom(r *rand.Rand, vars []rv) *expr.Expr {
	g := vars[r.Intn(len(vars))]
	if g.isBool {
		if r.Intn(2) == 0 {
			return g.v.Ref()
		}
		return expr.Not(g.v.Ref())
	}
	c := g.randConst(r)
	switch r.Intn(3) {
	case 0:
		return expr.Le(g.v.Ref(), c)
	case 1:
		return expr.Eq(g.v.Ref(), c)
	default:
		return expr.Ne(g.v.Ref(), c)
	}
}

// randomProperty returns one of the paper-relevant property shapes:
// safety invariants and the liveness patterns of the case studies.
func randomProperty(r *rand.Rand, vars []rv) *ltl.Formula {
	a := ltl.Atom(randomAtom(r, vars))
	switch r.Intn(4) {
	case 0:
		return ltl.G(a)
	case 1:
		return ltl.F(ltl.G(a))
	case 2:
		return ltl.G(ltl.F(a))
	default:
		return ltl.U(a, ltl.Atom(randomAtom(r, vars)))
	}
}

// TestConformance is the harness entry point CI invokes with -run
// Conformance -count=3.
func TestConformance(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 8; i++ {
				sys, vars := randomSystem(r, fmt.Sprintf("rand-%d-%d", seed, i))
				if err := sys.Validate(); err != nil {
					t.Fatalf("generator produced an invalid system: %v", err)
				}
				for j := 0; j < 3; j++ {
					phi := randomProperty(r, vars)
					checkInstance(t, sys, phi, fmt.Sprintf("sys%d/prop%d: %s", i, j, phi))
				}
			}
		})
	}
}

// TestConformanceCooperation sweeps the cooperative portfolio over
// random instances and holds it to the standalone BDD engine as the
// reference. The bus shares only proven depth bounds between engines,
// so the portfolio must conclude with the reference's verdict, its
// evidence must survive independent validation, and no invariant
// traffic may appear. CI runs this under -race: the sweep doubles as a
// scheduler-noise audit of the bus inside the real portfolio topology.
func TestConformanceCooperation(t *testing.T) {
	for _, seed := range []int64{11, 12} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 6; i++ {
				sys, vars := randomSystem(r, fmt.Sprintf("coop-%d-%d", seed, i))
				if err := sys.Validate(); err != nil {
					t.Fatalf("generator produced an invalid system: %v", err)
				}
				for j := 0; j < 2; j++ {
					phi := randomProperty(r, vars)
					what := fmt.Sprintf("sys%d/prop%d: %s", i, j, phi)
					opts := mc.Options{MaxDepth: 12, Timeout: 10 * time.Second, ValidateWitness: true}
					coop, err := mc.Portfolio(sys, phi, opts)
					if err != nil {
						t.Fatalf("%s: cooperative portfolio failed: %v", what, err)
					}
					sym, err := mc.NewSym(sys, opts)
					if err != nil {
						t.Fatalf("%s: reference BDD engine failed: %v", what, err)
					}
					ref, err := sym.CheckLTL(phi)
					if err != nil {
						t.Fatalf("%s: reference BDD engine failed: %v", what, err)
					}
					// These instances are tiny, so both conclude; an Unknown
					// would make the agreement check vacuous.
					if coop.Status == mc.Unknown || ref.Status == mc.Unknown {
						t.Fatalf("%s: inconclusive on a toy instance: coop=%v reference=%v",
							what, coop.Status, ref.Status)
					}
					if coop.Status != ref.Status {
						t.Fatalf("%s: cooperation flipped the verdict: coop=%v reference=%v",
							what, coop.Status, ref.Status)
					}
					if coop.Witness == witness.Failed {
						t.Fatalf("%s: %s verdict failed witness validation: %s", what, coop.Engine, coop.Note)
					}
					if coop.Trace != nil {
						if err := witness.Validate(sys, phi, coop.Trace); err != nil {
							t.Fatalf("%s: %s counterexample rejected: %v", what, coop.Engine, err)
						}
					}
					if coop.Stats != nil && coop.Stats.InvariantsHandedOff != 0 {
						t.Fatalf("%s: the bus carries depth bounds only, yet reports invariant traffic: %+v",
							what, coop.Stats)
					}
				}
			}
		})
	}
}

// checkInstance runs every applicable engine on (sys, phi) and holds
// each verdict to the conformance contract.
func checkInstance(t *testing.T, sys *ts.System, phi *ltl.Formula, what string) {
	t.Helper()
	opts := mc.Options{MaxDepth: 12, Timeout: 10 * time.Second, ValidateWitness: true}
	type engine struct {
		name string
		run  func() (*mc.Result, error)
	}
	engines := []engine{
		{"bmc", func() (*mc.Result, error) { return mc.BMC(sys, phi, opts) }},
		{"portfolio", func() (*mc.Result, error) { return mc.Portfolio(sys, phi, opts) }},
		{"bdd", func() (*mc.Result, error) {
			sym, err := mc.NewSym(sys, opts)
			if err != nil {
				return nil, err
			}
			return sym.CheckLTL(phi)
		}},
	}
	if p, ok := ltl.IsSafetyInvariant(phi); ok {
		engines = append(engines,
			engine{"k-induction", func() (*mc.Result, error) { return mc.KInduction(sys, p, opts) }},
			engine{"bdd-invariant", func() (*mc.Result, error) {
				sym, err := mc.NewSym(sys, opts)
				if err != nil {
					return nil, err
				}
				return sym.CheckInvariant(p)
			}})
	}

	verdicts := map[string]mc.Status{}
	traced := map[string]bool{}
	for _, e := range engines {
		res, err := e.run()
		if err != nil {
			t.Fatalf("%s: engine %s failed: %v", what, e.name, err)
		}
		if res.Status == mc.Unknown {
			continue
		}
		verdicts[e.name] = res.Status
		if res.Witness == witness.Failed {
			t.Fatalf("%s: engine %s verdict failed witness validation: %s", what, e.name, res.Note)
		}
		if res.Stats != nil && res.Stats.WitnessFailures > 0 {
			t.Fatalf("%s: engine %s recorded %d witness failures: %v",
				what, e.name, res.Stats.WitnessFailures, res.Stats.EngineErrors)
		}
		switch res.Status {
		case mc.Violated:
			// The BDD tableau concludes liveness violations from the fair
			// fixpoint without materializing a lasso — a traceless verdict
			// carries no evidence to validate. Everything that does emit a
			// counterexample must replay.
			if res.Trace == nil {
				if res.Witness != witness.None {
					t.Fatalf("%s: engine %s has witness status %q without a trace", what, e.name, res.Witness)
				}
				break
			}
			traced[e.name] = true
			if err := witness.Validate(sys, phi, res.Trace); err != nil {
				t.Fatalf("%s: engine %s counterexample rejected by the witness validator: %v", what, e.name, err)
			}
		case mc.Holds:
			if res.Cert != nil {
				if err := witness.ValidateCertificate(sys, res.Cert, witness.DefaultLimit); err != nil &&
					!errors.Is(err, witness.ErrUncheckable) {
					t.Fatalf("%s: engine %s certificate rejected: %v", what, e.name, err)
				}
			}
		}
	}
	// Conclusive engines must agree: a Violated next to a Holds means
	// one of them is wrong about the same instance.
	var holds, violated []string
	for name, s := range verdicts {
		if s == mc.Holds {
			holds = append(holds, name)
		} else {
			violated = append(violated, name)
		}
	}
	if len(holds) > 0 && len(violated) > 0 {
		t.Fatalf("%s: engines disagree: holds=%v violated=%v", what, holds, violated)
	}
	// The portfolio races the same BMC, so whenever BMC alone finds a
	// counterexample the portfolio's violation must carry one too.
	if traced["bmc"] && !traced["portfolio"] {
		t.Fatalf("%s: BMC finds a counterexample, yet the portfolio's verdict carries none", what)
	}
}
