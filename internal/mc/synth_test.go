package mc

import (
	"testing"

	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/models/k8s"
	"verdict/internal/models/rollout"
	"verdict/internal/topo"
	"verdict/internal/ts"
)

// A liveness violation whose only lasso lies beyond MaxDepth comes
// back from the portfolio without a trace, so there is nothing to lift:
// synthesis splits the box until each unsafe valuation stands alone.
// The wrap-around counter's 24-state cycle violates F(G(x=0)) unless
// c >= 2 excuses it.
func TestSynthSplitsOnTracelessViolation(t *testing.T) {
	const n = 24
	sys := ts.New("wrap-param")
	x := sys.Int("x", 0, n-1)
	c := sys.IntParam("c", 0, 3)
	sys.Init(x, expr.IntConst(0))
	sys.Assign(x, expr.Ite(expr.Lt(x.Ref(), expr.IntConst(n-1)),
		expr.Add(x.Ref(), expr.IntConst(1)), expr.IntConst(0)))
	phi := ltl.F(ltl.G(ltl.Atom(expr.Or(expr.Eq(x.Ref(), expr.IntConst(0)), expr.Ge(c.Ref(), expr.IntConst(2))))))

	res, err := SynthesizeParams(sys, phi, Options{MaxDepth: n / 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := partition(res), "safe: [c=2] [c=3] unsafe: [c=0] [c=1]"; got != want {
		t.Fatalf("partition %s, want %s", got, want)
	}
	if len(res.Witnesses) != 0 {
		t.Errorf("traceless violations got %d witnesses", len(res.Witnesses))
	}
	// [0,3] splits, [0,1] splits, c=0 and c=1 alone, [2,3] holds.
	if res.Checks != 5 {
		t.Errorf("%d checks, want 5", res.Checks)
	}
}

// Lifting keeps the number of checks at the number of unsafe cubes
// plus one: the paper's rollout needs three, and the descheduler's
// 101 thresholds a handful.
func TestSynthChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("rollout synthesis proves its safe valuations at depth 13")
	}
	d := k8s.BuildDescheduler(k8s.DeschedulerConfig{RequestCPU: 50, SynthThreshold: true})
	res, err := SynthesizeParams(d.Sys, d.Property, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checks > 6 {
		t.Errorf("descheduler synthesis made %d checks, want at most 6", res.Checks)
	}

	m, err := rollout.Build(rollout.Config{Topo: topo.Test(), SynthP: true, PMax: 4, K: 1, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err = SynthesizeParams(m.Sys, m.Property, Options{MaxDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := partition(res), "safe: [p=1] [p=2] unsafe: [p=3] [p=4]"; got != want {
		t.Fatalf("rollout partition %s, want %s", got, want)
	}
	if res.Checks != 3 {
		t.Errorf("rollout synthesis made %d checks, want 3", res.Checks)
	}
}
