package smvlang

import (
	"strings"
	"testing"

	"verdict/internal/expr"
	"verdict/internal/mc"
)

const counterModel = `
MODULE counter
VAR
  x : 0..7;
INIT
  x = 0;
TRANS
  next(x) = ite(x < 7, x + 1, 0);
LTLSPEC
  G (x <= 7);
LTLSPEC
  G (x <= 5);
CTLSPEC
  AG (x <= 7);
`

func TestParseCounter(t *testing.T) {
	prog, err := Parse(counterModel)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Sys.Name != "counter" {
		t.Errorf("module name %q", prog.Sys.Name)
	}
	if len(prog.Sys.Vars()) != 1 || len(prog.LTLSpecs) != 2 || len(prog.CTLSpecs) != 1 {
		t.Fatalf("vars=%d ltl=%d ctl=%d", len(prog.Sys.Vars()), len(prog.LTLSpecs), len(prog.CTLSpecs))
	}
	// Check the parsed model end to end.
	r, err := mc.Portfolio(prog.Sys, prog.LTLSpecs[0], mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Holds {
		t.Errorf("G(x<=7): %v", r)
	}
	r, err = mc.Portfolio(prog.Sys, prog.LTLSpecs[1], mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Violated {
		t.Errorf("G(x<=5): %v", r)
	}
	sym, err := mc.NewSym(prog.Sys, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := sym.CheckCTL(prog.CTLSpecs[0])
	if err != nil {
		t.Fatal(err)
	}
	if rc.Status != mc.Holds {
		t.Errorf("AG(x<=7): %v", rc)
	}
}

func TestParseEnumsAndDefines(t *testing.T) {
	prog, err := Parse(`
VAR
  mode : {idle, busy, failed};
  n : 0..3;
DEFINE
  ok := mode != failed;
INIT
  mode = idle & n = 0;
TRANS
  (mode = idle -> next(mode) = busy) &
  (mode = busy -> next(mode) = idle | next(mode) = failed) &
  (mode = failed -> next(mode) = failed) &
  next(n) = n;
LTLSPEC
  G ok;
`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mc.Portfolio(prog.Sys, prog.LTLSpecs[0], mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Violated {
		t.Errorf("G ok should be violated (busy can fail): %v", r)
	}
	// Enum constant on the left of a comparison also resolves.
	if _, err := Parse(`
VAR m : {a, b};
INIT a = m;
TRANS next(m) = m;
`); err != nil {
		t.Errorf("left-side enum constant: %v", err)
	}
}

func TestParseParams(t *testing.T) {
	prog, err := Parse(`
VAR
  x : 0..10;
PARAM
  p : 1..4;
INIT x = 0;
TRANS next(x) = ite(x + p <= 10, x + p, 10);
LTLSPEC G (x != 7);
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Sys.Params()) != 1 {
		t.Fatalf("params = %d, want 1", len(prog.Sys.Params()))
	}
	res, err := mc.SynthesizeParams(prog.Sys, prog.LTLSpecs[0], mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Safe) != 3 || len(res.Unsafe) != 1 {
		t.Errorf("safe=%v unsafe=%v, want 3 safe / p=1 unsafe", res.Safe, res.Unsafe)
	}
}

func TestParseRealsAndDecimals(t *testing.T) {
	prog, err := Parse(`
VAR b : boolean;
PARAM t : real;
INIT t > 0.5 & !b;
TRANS next(b) = !b;
LTLSPEC F b;
`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mc.BMC(prog.Sys, prog.LTLSpecs[0], mc.Options{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	// F b holds (b flips); BMC must not find a counterexample.
	if r.Status == mc.Violated {
		t.Errorf("F b: %v", r)
	}
}

func TestParseCount(t *testing.T) {
	prog, err := Parse(`
VAR
  a : boolean;
  b : boolean;
  c : boolean;
INIT count(a, b, c) <= 1;
TRANS next(a) = a & next(b) = b & next(c) = c;
LTLSPEC G (count(a, b, c) <= 1);
`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mc.Portfolio(prog.Sys, prog.LTLSpecs[0], mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Holds {
		t.Errorf("frozen count invariant: %v", r)
	}
}

func TestParseTemporalOperators(t *testing.T) {
	prog, err := Parse(`
VAR x : 0..3;
INIT x = 0;
TRANS next(x) = ite(x < 3, x + 1, 3);
LTLSPEC F G (x = 3);
LTLSPEC (x = 0) U (x > 0);
LTLSPEC X (x = 1);
LTLSPEC G (x = 1 -> F (x = 3));
`)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range prog.LTLSpecs {
		r, err := mc.Portfolio(prog.Sys, spec, mc.Options{MaxDepth: 10})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != mc.Holds {
			t.Errorf("spec %d (%s): %v, want holds", i, spec, r)
		}
	}
}

func TestParseCTLQuantifiers(t *testing.T) {
	prog, err := Parse(`
VAR x : 0..3;
INIT x = 0;
TRANS next(x) = x + 1 | next(x) = x;
CTLSPEC EF (x = 3);
CTLSPEC AG (x <= 3);
CTLSPEC E[x < 2 U x = 2];
CTLSPEC AF (x = 3);
`)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := mc.NewSym(prog.Sys, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []mc.Status{mc.Holds, mc.Holds, mc.Holds, mc.Violated} // AF fails: may stutter at x=0 forever
	for i, spec := range prog.CTLSpecs {
		r, err := sym.CheckCTL(spec)
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != want[i] {
			t.Errorf("CTL spec %d (%s): %v, want %v", i, spec, r.Status, want[i])
		}
	}
}

func TestParseFairness(t *testing.T) {
	prog, err := Parse(`
VAR x : 0..3;
INIT x = 0;
TRANS next(x) = x + 1 | next(x) = x;
FAIRNESS x = 3;
LTLSPEC F (x = 3);
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Sys.Fairness()) != 1 {
		t.Fatalf("fairness constraints = %d", len(prog.Sys.Fairness()))
	}
	sym, err := mc.NewSym(prog.Sys, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sym.CheckLTL(prog.LTLSpecs[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Holds {
		t.Errorf("F(x=3) under fairness: %v, want holds", r)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, wantErr string
	}{
		{"VAR x : 0..7; INIT y = 0; TRANS next(x) = x;", "unknown identifier"},
		{"VAR x : 7..0;", "empty range"},
		{"VAR x : 0..7; INIT x = 0; TRANS next(z) = 0;", "unknown variable"},
		{"VAR x : 0..7 INIT x = 0;", "expected"},
		{"FOO x;", "section keyword"},
		{"VAR x : 0..7; LTLSPEC G (x @ 1);", "unexpected character"},
		{"VAR x : 0..3; INIT x; TRANS next(x)=x;", "smvlang"}, // int used as bool
		{"PARAM e : {a, b};", "enum parameters"},
		{"VAR x : 0..3; CTLSPEC A[x = 0 R x = 1];", "expected U"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("no error for %q", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("error %q does not mention %q", err, c.wantErr)
		}
	}
}

func TestParseNegativeRanges(t *testing.T) {
	prog, err := Parse(`
VAR x : -3..3;
INIT x = -3;
TRANS next(x) = ite(x < 3, x + 1, -3);
LTLSPEC G (x >= -3);
`)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := prog.Sys.VarByName("x")
	if v.T.Lo != -3 || v.T.Hi != 3 {
		t.Errorf("range %d..%d", v.T.Lo, v.T.Hi)
	}
	r, err := mc.Portfolio(prog.Sys, prog.LTLSpecs[0], mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Holds {
		t.Errorf("negative range invariant: %v", r)
	}
}

func TestCommentsIgnored(t *testing.T) {
	_, err := Parse(`
-- a full-line comment
VAR x : 0..1; -- trailing comment
INIT x = 0;
TRANS next(x) = x;
`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDefineUsedInSpec(t *testing.T) {
	prog, err := Parse(`
VAR x : 0..3;
DEFINE small := x <= 1;
INIT x = 0;
TRANS next(x) = x;
LTLSPEC G small;
`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mc.Portfolio(prog.Sys, prog.LTLSpecs[0], mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Holds {
		t.Errorf("G small: %v", r)
	}
}

func TestVarAfterConstraintSection(t *testing.T) {
	// Declarations may appear after the constraints that use them.
	_, err := Parse(`
INIT x = 0;
VAR x : 0..3;
TRANS next(x) = x;
`)
	if err != nil {
		t.Fatalf("forward reference failed: %v", err)
	}
}

func TestTypeDerivation(t *testing.T) {
	prog, err := Parse(`
VAR x : 0..3;
INIT x = 0;
TRANS next(x) = x;
`)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := prog.Sys.VarByName("x")
	if v.T.Kind != expr.KindInt {
		t.Errorf("kind %v", v.T.Kind)
	}
}
