// Package bdd implements reduced ordered binary decision diagrams.
//
// The BDD engine backs verdict's fixpoint-based model checking: CTL
// evaluation, LTL fair-cycle detection via the tableau construction,
// symbolic reachability, and parameter synthesis by projecting
// reachable-bad sets onto parameter bits.
//
// Nodes live in an append-only arena and are identified by dense
// int32 handles; hash consing guarantees canonicity, so semantic
// equality is pointer equality. There is no garbage collection — the
// checking runs verdict performs are bounded and the arena is simply
// dropped afterwards.
package bdd

import (
	"fmt"
	"sync/atomic"
)

// Node is a BDD handle. False and True are the terminals.
type Node int32

// Terminal nodes.
const (
	False Node = 0
	True  Node = 1
)

const terminalLevel = int32(1) << 30

type nodeData struct {
	level  int32
	lo, hi Node
}

type triple struct {
	level  int32
	lo, hi Node
}

type opKey struct {
	op      byte
	a, b, c Node
}

// Manager owns a BDD arena with a fixed variable order: variable i has
// level i (smaller level = closer to the root).
type Manager struct {
	nodes   []nodeData
	unique  map[triple]Node
	opCache map[opKey]Node
	numVars int

	// Stop, when non-nil, is read at every node construction; once it
	// is set the in-flight operation aborts by panicking with
	// ErrInterrupted. Another goroutine sets it to cancel the
	// computation (a deadline, a lost race); callers must recover the
	// panic.
	Stop *atomic.Bool
	// NodeBudget, when positive, bounds the arena size (mirroring
	// sat.Solver.ConflictBudget): allocating a node past the budget
	// aborts the in-flight operation by panicking with ErrNodeBudget,
	// which callers recover into an Unknown verdict instead of letting
	// the arena blow up the process.
	NodeBudget int
}

// ErrInterrupted is the panic value thrown once Stop is set.
var ErrInterrupted = fmt.Errorf("bdd: interrupted")

// ErrNodeBudget is the panic value thrown when NodeBudget is exceeded.
var ErrNodeBudget = fmt.Errorf("bdd: node budget exhausted")

// New returns a manager with n variables.
func New(n int) *Manager {
	m := &Manager{
		unique:  make(map[triple]Node),
		opCache: make(map[opKey]Node),
		numVars: n,
	}
	// Terminals.
	m.nodes = append(m.nodes,
		nodeData{level: terminalLevel},
		nodeData{level: terminalLevel},
	)
	return m
}

// NumVars returns the number of variables.
func (m *Manager) NumVars() int { return m.numVars }

// Size returns the number of live nodes (including terminals).
func (m *Manager) Size() int { return len(m.nodes) }

// AddVars grows the variable count by n, returning the first new
// variable's level.
func (m *Manager) AddVars(n int) int {
	first := m.numVars
	m.numVars += n
	return first
}

func (m *Manager) mk(level int32, lo, hi Node) Node {
	if m.Stop != nil && m.Stop.Load() {
		panic(ErrInterrupted)
	}
	if lo == hi {
		return lo
	}
	key := triple{level, lo, hi}
	if n, ok := m.unique[key]; ok {
		return n
	}
	if m.NodeBudget > 0 && len(m.nodes) >= m.NodeBudget {
		panic(ErrNodeBudget)
	}
	n := Node(len(m.nodes))
	m.nodes = append(m.nodes, nodeData{level, lo, hi})
	m.unique[key] = n
	return n
}

// Var returns the BDD for variable v (true branch when v is true).
func (m *Manager) Var(v int) Node {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.numVars))
	}
	return m.mk(int32(v), False, True)
}

// NVar returns the BDD for the negation of variable v.
func (m *Manager) NVar(v int) Node {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.numVars))
	}
	return m.mk(int32(v), True, False)
}

func (m *Manager) level(n Node) int32 { return m.nodes[n].level }

// Level returns the variable level of an internal node.
func (m *Manager) Level(n Node) int {
	return int(m.nodes[n].level)
}

func (m *Manager) cofactor(n Node, level int32) (lo, hi Node) {
	d := m.nodes[n]
	if d.level != level {
		return n, n
	}
	return d.lo, d.hi
}

// Ite computes if-then-else(f, g, h).
func (m *Manager) Ite(f, g, h Node) Node {
	// Terminal shortcuts.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	key := opKey{op: 'i', a: f, b: g, c: h}
	if r, ok := m.opCache[key]; ok {
		return r
	}
	level := m.level(f)
	if l := m.level(g); l < level {
		level = l
	}
	if l := m.level(h); l < level {
		level = l
	}
	f0, f1 := m.cofactor(f, level)
	g0, g1 := m.cofactor(g, level)
	h0, h1 := m.cofactor(h, level)
	r := m.mk(level, m.Ite(f0, g0, h0), m.Ite(f1, g1, h1))
	m.opCache[key] = r
	return r
}

// Not negates f.
func (m *Manager) Not(f Node) Node { return m.Ite(f, False, True) }

// And conjoins nodes.
func (m *Manager) And(fs ...Node) Node {
	r := True
	for _, f := range fs {
		r = m.Ite(r, f, False)
		if r == False {
			return False
		}
	}
	return r
}

// Or disjoins nodes.
func (m *Manager) Or(fs ...Node) Node {
	r := False
	for _, f := range fs {
		r = m.Ite(r, True, f)
		if r == True {
			return True
		}
	}
	return r
}

// Xor computes exclusive or.
func (m *Manager) Xor(f, g Node) Node { return m.Ite(f, m.Not(g), g) }

// Iff computes equivalence.
func (m *Manager) Iff(f, g Node) Node { return m.Ite(f, g, m.Not(g)) }

// Implies computes f -> g.
func (m *Manager) Implies(f, g Node) Node { return m.Ite(f, g, True) }

// VarSet is a set of variable levels used for quantification; it must
// be queried via the contains method for clarity.
type VarSet map[int]bool

// Exists existentially quantifies the variables in set out of f.
func (m *Manager) Exists(f Node, set VarSet) Node {
	return m.exists(f, set, make(map[Node]Node))
}

func (m *Manager) exists(f Node, set VarSet, memo map[Node]Node) Node {
	if f == True || f == False {
		return f
	}
	if r, ok := memo[f]; ok {
		return r
	}
	d := m.nodes[f]
	lo := m.exists(d.lo, set, memo)
	hi := m.exists(d.hi, set, memo)
	var r Node
	if set[int(d.level)] {
		r = m.Or(lo, hi)
	} else {
		r = m.mk(d.level, lo, hi)
	}
	memo[f] = r
	return r
}

// ForAll universally quantifies the variables in set out of f.
func (m *Manager) ForAll(f Node, set VarSet) Node {
	return m.Not(m.Exists(m.Not(f), set))
}

// AndExists computes Exists(set, f & g) without materializing f & g —
// the relational-product operation at the heart of symbolic image
// computation.
func (m *Manager) AndExists(f, g Node, set VarSet) Node {
	type aeKey struct{ f, g Node }
	memo := make(map[aeKey]Node)
	var rec func(f, g Node) Node
	rec = func(f, g Node) Node {
		if f == False || g == False {
			return False
		}
		if f == True && g == True {
			return True
		}
		if f == True || g == True {
			// Degenerates to plain quantification.
			other := f
			if f == True {
				other = g
			}
			return m.Exists(other, set)
		}
		if f > g {
			f, g = g, f
		}
		key := aeKey{f, g}
		if r, ok := memo[key]; ok {
			return r
		}
		level := m.level(f)
		if l := m.level(g); l < level {
			level = l
		}
		f0, f1 := m.cofactor(f, level)
		g0, g1 := m.cofactor(g, level)
		var r Node
		if set[int(level)] {
			r = m.Or(rec(f0, g0), rec(f1, g1))
		} else {
			r = m.mk(level, rec(f0, g0), rec(f1, g1))
		}
		memo[key] = r
		return r
	}
	return rec(f, g)
}

// Replace renames variables: each level l becomes perm[l] (identity
// where absent). The permutation must be order-preserving on the
// support of f — verdict uses interleaved current/next bit orders so
// the prime/unprime shifts (level ±1) always qualify.
func (m *Manager) Replace(f Node, perm map[int]int) Node {
	memo := make(map[Node]Node)
	var rec func(Node) Node
	rec = func(n Node) Node {
		if n == True || n == False {
			return n
		}
		if r, ok := memo[n]; ok {
			return r
		}
		d := m.nodes[n]
		level := int(d.level)
		if p, ok := perm[level]; ok {
			level = p
		}
		lo, hi := rec(d.lo), rec(d.hi)
		// Verify order preservation: children roots must stay below.
		if lo > True && int(m.nodes[lo].level) <= level {
			panic("bdd: Replace permutation is not order-preserving")
		}
		if hi > True && int(m.nodes[hi].level) <= level {
			panic("bdd: Replace permutation is not order-preserving")
		}
		r := m.mk(int32(level), lo, hi)
		memo[n] = r
		return r
	}
	return rec(f)
}

// Restrict cofactors f with variable v set to val.
func (m *Manager) Restrict(f Node, v int, val bool) Node {
	memo := make(map[Node]Node)
	var rec func(Node) Node
	rec = func(n Node) Node {
		if n == True || n == False {
			return n
		}
		d := m.nodes[n]
		if int(d.level) > v {
			return n
		}
		if r, ok := memo[n]; ok {
			return r
		}
		var r Node
		if int(d.level) == v {
			if val {
				r = d.hi
			} else {
				r = d.lo
			}
		} else {
			r = m.mk(d.level, rec(d.lo), rec(d.hi))
		}
		memo[n] = r
		return r
	}
	return rec(f)
}

// SatCount returns the number of satisfying assignments of f over the
// given support size (number of variables considered), as float64 —
// large counts lose precision but verdict only displays them.
func (m *Manager) SatCount(f Node, supportVars int) float64 {
	return pow2Missing(m, f, supportVars)
}

func pow2(n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= 2
	}
	return r
}

// pow2Missing computes the correction factor accounting for variables
// skipped along every path: 2^(support - pathLength) aggregated
// recursively.
func pow2Missing(m *Manager, f Node, support int) float64 {
	memo := make(map[Node]float64)
	var rec func(n Node, fromLevel int) float64
	rec = func(n Node, fromLevel int) float64 {
		if n == False {
			return 0
		}
		if n == True {
			return pow2(support - fromLevel)
		}
		d := m.nodes[n]
		skipped := pow2(int(d.level) - fromLevel)
		if r, ok := memo[n]; ok {
			return skipped * r
		}
		r := rec(d.lo, int(d.level)+1) + rec(d.hi, int(d.level)+1)
		memo[n] = r
		return skipped * r
	}
	return rec(f, 0)
}

// PickOne returns one satisfying assignment of f as level→bool.
// Levels outside f's support are absent. Returns nil if f is False.
func (m *Manager) PickOne(f Node) map[int]bool {
	if f == False {
		return nil
	}
	out := make(map[int]bool)
	for f != True {
		d := m.nodes[f]
		if d.lo != False {
			out[int(d.level)] = false
			f = d.lo
		} else {
			out[int(d.level)] = true
			f = d.hi
		}
	}
	return out
}

// Support returns the sorted set of levels appearing in f.
func (m *Manager) Support(f Node) []int {
	seen := make(map[Node]bool)
	levels := make(map[int]bool)
	var rec func(Node)
	rec = func(n Node) {
		if n == True || n == False || seen[n] {
			return
		}
		seen[n] = true
		d := m.nodes[n]
		levels[int(d.level)] = true
		rec(d.lo)
		rec(d.hi)
	}
	rec(f)
	out := make([]int, 0, len(levels))
	for l := range levels {
		out = append(out, l)
	}
	sortInts(out)
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}
