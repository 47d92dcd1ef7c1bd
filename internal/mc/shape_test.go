package mc

import (
	"testing"

	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/models/rollout"
	"verdict/internal/topo"
)

// TestUnrollingCNFShape pins the CNF an unrolling of the Figure 6
// rollout models blasts, without solving: the variables and problem
// clauses after frame 0, then the increments each extension adds, with
// ¬p compiled at every new frame as BMC and k-induction query it. The
// INIT-rooted (BMC, k-induction base) and INIT-free (induction step)
// unrollings settle to the same per-frame increment, from the third
// extension and from the second respectively. The encoder shares
// structure across roots and frames through its memo tables and gate
// hash; an encoder change that loses sharing shows up here as more
// variables or clauses per frame, before it shows up as time.
func TestUnrollingCNFShape(t *testing.T) {
	type shape struct{ vars, clauses int }
	for _, c := range []struct {
		name       string
		g          *topo.Graph
		k          int
		init, step []shape // frame 0, then one increment per extension
	}{
		{"test", topo.Test(), 2,
			[]shape{{357, 119}, {689, 2113}, {693, 2507}, {693, 2531}, {693, 2531}, {693, 2531}},
			[]shape{{323, 1164}, {693, 2563}, {693, 2531}, {693, 2531}, {693, 2531}, {693, 2531}}},
		{"fattree4", topo.FatTree(4), 2,
			[]shape{{1332, 342}, {2618, 8600}, {2625, 10160}, {2625, 10224}, {2625, 10224}, {2625, 10224}},
			[]shape{{1229, 4726}, {2625, 10256}, {2625, 10224}, {2625, 10224}, {2625, 10224}, {2625, 10224}}},
		{"fattree6", topo.FatTree(6), 3,
			[]shape{{4211, 890}, {8672, 29160}, {8689, 34450}, {8689, 34672}, {8689, 34672}, {8689, 34672}},
			[]shape{{3937, 15725}, {8689, 34720}, {8689, 34672}, {8689, 34672}, {8689, 34672}, {8689, 34672}}},
	} {
		m, err := rollout.Build(rollout.Config{Topo: c.g, P: 1, K: c.k, M: 1})
		if err != nil {
			t.Fatal(err)
		}
		p, ok := ltl.IsSafetyInvariant(m.Property)
		if !ok {
			t.Fatalf("%s: property %s is not an invariant", c.name, m.Property)
		}
		notP := expr.Not(p)
		for _, init := range []bool{true, false} {
			want := c.step
			if init {
				want = c.init
			}
			u := newUnroller(m.Sys, true, Options{}, nil)
			u.blast(0, init)
			u.litAt(notP, 0)
			prev := shape{}
			for i, w := range want {
				if i > 0 {
					u.extend()
					u.litAt(notP, i)
				}
				now := shape{u.sats.NumVars(), u.sats.NumClauses()}
				if got := (shape{now.vars - prev.vars, now.clauses - prev.clauses}); got != w {
					t.Errorf("%s (init %v) frame %d: +%d vars/+%d clauses, want +%d/+%d",
						c.name, init, i, got.vars, got.clauses, w.vars, w.clauses)
				}
				prev = now
			}
		}
	}
}
