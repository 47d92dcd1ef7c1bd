package smvlang

import (
	"strings"
	"testing"

	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/mc"
	"verdict/internal/models/lbecmp"
	"verdict/internal/models/rollout"
	"verdict/internal/topo"
	"verdict/internal/ts"
)

func TestRenderRoundTripCounter(t *testing.T) {
	prog1, err := Parse(counterModel)
	if err != nil {
		t.Fatal(err)
	}
	text := Render(prog1)
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\nrendered:\n%s", err, text)
	}
	// Semantic equivalence: check results agree on all specs.
	for i := range prog1.LTLSpecs {
		r1, err := mc.Portfolio(prog1.Sys, prog1.LTLSpecs[i], mc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := mc.Portfolio(prog2.Sys, prog2.LTLSpecs[i], mc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Status != r2.Status {
			t.Errorf("spec %d: original %v, round-tripped %v", i, r1.Status, r2.Status)
		}
	}
}

func TestRenderRoundTripRollout(t *testing.T) {
	m, err := rollout.Build(rollout.Config{Topo: topo.Test(), P: 1, K: 2, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	text := Render(&Program{Sys: m.Sys, LTLSpecs: nil})
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse of rendered rollout model failed: %v", err)
	}
	// The round-tripped system must reproduce the Figure 5 violation.
	// Rebuild the property against the round-tripped system's macros.
	conv, ok := prog2.Sys.DefineByName("converged")
	if !ok {
		t.Fatal("round-trip lost the converged DEFINE")
	}
	avail, ok := prog2.Sys.DefineByName("available")
	if !ok {
		t.Fatal("round-trip lost the available DEFINE")
	}
	prop := expr.Implies(conv, expr.Ge(avail, expr.IntConst(1)))
	r, err := mc.KInduction(prog2.Sys, prop, mc.Options{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Violated {
		t.Fatalf("round-tripped rollout model: %v, want violated", r)
	}
}

func TestRenderRoundTripReals(t *testing.T) {
	// The LB model exercises rational constants (1/2, 3) and real
	// parameters; its render must re-parse to a model where the same
	// oscillation exists.
	m := lbecmp.Build(lbecmp.Default())
	text := Render(&Program{Sys: m.Sys})
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse of rendered LB model failed: %v\n%s", err, text)
	}
	stable, ok := prog2.Sys.DefineByName("stable")
	if !ok {
		t.Fatal("round-trip lost the stable DEFINE")
	}
	// Build F(G(stable)) directly over the re-parsed macro.
	r, err := mc.BMC(prog2.Sys, ltl.F(ltl.G(ltl.Atom(stable))), mc.Options{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Violated {
		t.Fatalf("round-tripped LB model: %v, want violated", r)
	}
}

func TestRenderSpecs(t *testing.T) {
	prog, err := Parse(`
VAR x : 0..3;
INIT x = 0;
TRANS next(x) = x;
LTLSPEC G (x <= 3);
LTLSPEC (x = 0) U (x > 0);
CTLSPEC AG (x <= 3);
CTLSPEC E[x = 0 U x = 1];
`)
	if err != nil {
		t.Fatal(err)
	}
	text := Render(prog)
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if len(prog2.LTLSpecs) != 2 || len(prog2.CTLSpecs) != 2 {
		t.Fatalf("specs lost in round trip:\n%s", text)
	}
}

// TestRenderDeterministic guards the cache-key foundation: rendering
// the same *ts.System twice yields identical bytes, and two
// structurally equal systems built with different declaration orders
// render to identical bytes (sorted var/param/define emission).
func TestRenderDeterministic(t *testing.T) {
	build := func(order []string) *ts.System {
		sys := ts.New("det")
		decls := map[string]func(){
			"zeta":  func() { sys.Int("zeta", 0, 3) },
			"alpha": func() { sys.Bool("alpha") },
			"mid":   func() { sys.Enum("mid", "a", "b") },
		}
		for _, n := range order {
			decls[n]()
		}
		sys.IntParam("pZ", 0, 2)
		sys.BoolParam("pA")
		z, _ := sys.VarByName("zeta")
		a, _ := sys.VarByName("alpha")
		sys.Define("zmacro", expr.Ge(z.Ref(), expr.IntConst(1)))
		sys.Define("amacro", a.Ref())
		sys.AddInit(expr.Eq(z.Ref(), expr.IntConst(0)))
		sys.AddTrans(expr.Eq(z.Next(), z.Ref()))
		return sys
	}
	s1 := build([]string{"zeta", "alpha", "mid"})
	s2 := build([]string{"mid", "alpha", "zeta"})
	r1a := Render(&Program{Sys: s1})
	r1b := Render(&Program{Sys: s1})
	r2 := Render(&Program{Sys: s2})
	if r1a != r1b {
		t.Fatalf("rendering the same system twice differs:\n%s\n---\n%s", r1a, r1b)
	}
	if r1a != r2 {
		t.Fatalf("declaration order leaked into the render:\n%s\n---\n%s", r1a, r2)
	}
	for _, want := range []string{"VAR\n  alpha", "DEFINE\n  amacro", "PARAM\n  pA"} {
		if !strings.Contains(r1a, want) {
			t.Errorf("emission not sorted: missing %q in\n%s", want, r1a)
		}
	}
}

// TestRenderParseRenderFixpoint: Canonical must be a render∘parse
// fixpoint, for a hand-written model and for library builders — the
// property that makes it usable as a content-address.
func TestRenderParseRenderFixpoint(t *testing.T) {
	progs := map[string]*Program{"counter": mustParse(t, counterModel)}
	m, err := rollout.Build(rollout.Config{Topo: topo.Test(), P: 1, K: 2, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	progs["rollout"] = &Program{Sys: m.Sys}
	progs["lbecmp"] = &Program{Sys: lbecmp.Build(lbecmp.Default()).Sys}
	for name, prog := range progs {
		canon, err := Canonical(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reparsed, err := Parse(canon)
		if err != nil {
			t.Fatalf("%s: canonical form does not re-parse: %v\n%s", name, err, canon)
		}
		if again := Render(reparsed); canon != again {
			t.Errorf("%s: canonical render is not a fixpoint:\n%s\n---\n%s", name, canon, again)
		}
		// For a program that came out of the parser, Render alone is
		// already canonical.
		if fromParse := Render(reparsed); fromParse != canon {
			t.Errorf("%s: Render of a parsed program differs from Canonical", name)
		}
	}
}

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestRenderSanitizesModuleName(t *testing.T) {
	sys := ts.New("rollout/test topo!")
	sys.Bool("b")
	sys.AddTrans(expr.True())
	text := Render(&Program{Sys: sys})
	if !strings.Contains(text, "MODULE rollout_test_topo_") {
		t.Errorf("module name not sanitized:\n%s", strings.SplitN(text, "\n", 2)[0])
	}
	if _, err := Parse(text); err != nil {
		t.Fatalf("sanitized render failed to parse: %v", err)
	}
}
