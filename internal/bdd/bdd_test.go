package bdd

import (
	"math/rand"
	"testing"
)

func TestTerminals(t *testing.T) {
	m := New(2)
	if m.And() != True || m.Or() != False {
		t.Fatal("empty and/or wrong")
	}
	if m.Not(True) != False || m.Not(False) != True {
		t.Fatal("not on terminals wrong")
	}
}

func TestBasicOps(t *testing.T) {
	m := New(3)
	a, b := m.Var(0), m.Var(1)
	if m.And(a, m.Not(a)) != False {
		t.Error("a & !a != false")
	}
	if m.Or(a, m.Not(a)) != True {
		t.Error("a | !a != true")
	}
	if m.And(a, b) != m.And(b, a) {
		t.Error("and not canonical")
	}
	if m.Iff(a, a) != True {
		t.Error("a <-> a != true")
	}
	if m.Xor(a, a) != False {
		t.Error("a xor a != false")
	}
	if m.Implies(False, a) != True {
		t.Error("false -> a != true")
	}
	if m.NVar(0) != m.Not(m.Var(0)) {
		t.Error("NVar != Not(Var)")
	}
}

// evalNode evaluates a BDD under an assignment, by walking it.
func evalNode(m *Manager, f Node, asn []bool) bool {
	for f != True && f != False {
		d := m.nodes[f]
		if asn[d.level] {
			f = d.hi
		} else {
			f = d.lo
		}
	}
	return f == True
}

// TestRandomFormulasTruthTable builds random formulas both as BDDs and
// as evaluator closures, then compares on all assignments.
func TestRandomFormulasTruthTable(t *testing.T) {
	const nv = 6
	rng := rand.New(rand.NewSource(5))
	m := New(nv)

	type form struct {
		node Node
		eval func([]bool) bool
	}
	var gen func(depth int) form
	gen = func(depth int) form {
		if depth == 0 {
			v := rng.Intn(nv)
			if rng.Intn(2) == 0 {
				return form{m.Var(v), func(a []bool) bool { return a[v] }}
			}
			return form{m.NVar(v), func(a []bool) bool { return !a[v] }}
		}
		x := gen(depth - 1)
		y := gen(depth - 1)
		switch rng.Intn(5) {
		case 0:
			return form{m.And(x.node, y.node), func(a []bool) bool { return x.eval(a) && y.eval(a) }}
		case 1:
			return form{m.Or(x.node, y.node), func(a []bool) bool { return x.eval(a) || y.eval(a) }}
		case 2:
			return form{m.Xor(x.node, y.node), func(a []bool) bool { return x.eval(a) != y.eval(a) }}
		case 3:
			return form{m.Not(x.node), func(a []bool) bool { return !x.eval(a) }}
		default:
			z := gen(depth - 1)
			return form{m.Ite(x.node, y.node, z.node), func(a []bool) bool {
				if x.eval(a) {
					return y.eval(a)
				}
				return z.eval(a)
			}}
		}
	}

	for trial := 0; trial < 50; trial++ {
		f := gen(4)
		for mask := 0; mask < 1<<nv; mask++ {
			asn := make([]bool, nv)
			for i := range asn {
				asn[i] = mask>>i&1 == 1
			}
			if evalNode(m, f.node, asn) != f.eval(asn) {
				t.Fatalf("trial %d: mismatch at %v", trial, asn)
			}
		}
	}
}

func TestExists(t *testing.T) {
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f := m.And(a, m.Or(b, c))
	// Exists b: a & (true | c) = a... more precisely a & (exists b: b|c) = a.
	g := m.Exists(f, VarSet{1: true})
	if g != a {
		t.Errorf("exists b (a & (b|c)) != a")
	}
	// Exists a: (b|c).
	g = m.Exists(f, VarSet{0: true})
	if g != m.Or(b, c) {
		t.Errorf("exists a (a & (b|c)) != b|c")
	}
	// ForAll b: a & (b|c) == a & c.
	g = m.ForAll(f, VarSet{1: true})
	if g != m.And(a, c) {
		t.Errorf("forall b (a & (b|c)) != a & c")
	}
}

func TestAndExistsMatchesComposition(t *testing.T) {
	const nv = 8
	rng := rand.New(rand.NewSource(17))
	m := New(nv)
	randBdd := func() Node {
		f := False
		for i := 0; i < 6; i++ {
			cube := True
			for v := 0; v < nv; v++ {
				switch rng.Intn(3) {
				case 0:
					cube = m.And(cube, m.Var(v))
				case 1:
					cube = m.And(cube, m.NVar(v))
				}
			}
			f = m.Or(f, cube)
		}
		return f
	}
	for trial := 0; trial < 40; trial++ {
		f, g := randBdd(), randBdd()
		set := VarSet{}
		for v := 0; v < nv; v++ {
			if rng.Intn(2) == 0 {
				set[v] = true
			}
		}
		want := m.Exists(m.And(f, g), set)
		got := m.AndExists(f, g, set)
		if got != want {
			t.Fatalf("trial %d: AndExists != Exists(And)", trial)
		}
	}
}

func TestReplaceShift(t *testing.T) {
	// Interleaved order: cur bits at even levels, next at odd.
	m := New(6)
	cur0, cur1 := m.Var(0), m.Var(2)
	f := m.And(cur0, m.Not(cur1))
	shifted := m.Replace(f, map[int]int{0: 1, 2: 3})
	want := m.And(m.Var(1), m.Not(m.Var(3)))
	if shifted != want {
		t.Error("Replace shift mismatch")
	}
	// Shift back.
	back := m.Replace(shifted, map[int]int{1: 0, 3: 2})
	if back != f {
		t.Error("Replace round-trip mismatch")
	}
}

func TestReplaceRejectsNonMonotone(t *testing.T) {
	m := New(4)
	f := m.And(m.Var(0), m.Var(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for order-violating permutation")
		}
	}()
	m.Replace(f, map[int]int{0: 3}) // 0→3 crosses level 1
}

func TestRestrict(t *testing.T) {
	m := New(3)
	a, b := m.Var(0), m.Var(1)
	f := m.Ite(a, b, m.Not(b))
	if m.Restrict(f, 0, true) != b {
		t.Error("restrict a=1 should give b")
	}
	if m.Restrict(f, 0, false) != m.Not(b) {
		t.Error("restrict a=0 should give !b")
	}
}

func TestSatCount(t *testing.T) {
	m := New(4)
	a, b := m.Var(0), m.Var(1)
	cases := []struct {
		f    Node
		want float64
	}{
		{True, 16},
		{False, 0},
		{a, 8},
		{m.And(a, b), 4},
		{m.Or(a, b), 12},
		{m.Xor(a, b), 8},
	}
	for _, c := range cases {
		if got := m.SatCount(c.f, 4); got != c.want {
			t.Errorf("SatCount = %v, want %v", got, c.want)
		}
	}
}

func TestPickOne(t *testing.T) {
	m := New(3)
	f := m.And(m.Var(0), m.NVar(2))
	asn := m.PickOne(f)
	if asn == nil {
		t.Fatal("PickOne returned nil on satisfiable f")
	}
	if !asn[0] || asn[2] {
		t.Errorf("PickOne = %v, want 0:true 2:false", asn)
	}
	if m.PickOne(False) != nil {
		t.Error("PickOne(False) should be nil")
	}
}

func TestSupport(t *testing.T) {
	m := New(5)
	f := m.And(m.Var(1), m.Or(m.Var(3), m.NVar(4)))
	sup := m.Support(f)
	want := []int{1, 3, 4}
	if len(sup) != len(want) {
		t.Fatalf("Support = %v, want %v", sup, want)
	}
	for i := range want {
		if sup[i] != want[i] {
			t.Fatalf("Support = %v, want %v", sup, want)
		}
	}
}

func TestCanonicity(t *testing.T) {
	// Build the same function two ways; handles must be equal.
	m := New(4)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f1 := m.Or(m.And(a, b), m.And(a, c))
	f2 := m.And(a, m.Or(b, c))
	if f1 != f2 {
		t.Error("distribution law broke canonicity")
	}
	g1 := m.Not(m.And(a, b))
	g2 := m.Or(m.Not(a), m.Not(b))
	if g1 != g2 {
		t.Error("de Morgan broke canonicity")
	}
}
