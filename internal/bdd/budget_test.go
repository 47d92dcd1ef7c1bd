package bdd

import (
	"sync/atomic"
	"testing"
)

// Exceeding the node budget must abort with ErrNodeBudget instead of
// growing the arena without bound.
func TestNodeBudget(t *testing.T) {
	m := New(64)
	m.NodeBudget = 16
	defer func() {
		if r := recover(); r != ErrNodeBudget {
			t.Fatalf("recover() = %v, want ErrNodeBudget", r)
		}
		if m.Size() > 16 {
			t.Errorf("arena grew to %d nodes past the budget of 16", m.Size())
		}
	}()
	// A parity chain blows past any small budget (BDD for XOR of n
	// variables has 2n+2 nodes, plus intermediate results).
	acc := m.Var(0)
	for v := 1; v < 64; v++ {
		acc = m.Xor(acc, m.Var(v))
	}
	t.Fatal("unreachable: parity over 64 vars fits no 16-node budget")
}

// A budget large enough for the computation must not interfere.
func TestNodeBudgetNotHit(t *testing.T) {
	m := New(8)
	m.NodeBudget = 1 << 20
	acc := m.Var(0)
	for v := 1; v < 8; v++ {
		acc = m.Xor(acc, m.Var(v))
	}
	if acc == False || acc == True {
		t.Fatal("parity collapsed to a terminal")
	}
}

// A set Stop flag aborts the next node construction with
// ErrInterrupted, before the arena grows.
func TestStop(t *testing.T) {
	m := New(8)
	var stop atomic.Bool
	m.Stop = &stop
	m.And(m.Var(0), m.Var(1))
	size := m.Size()
	stop.Store(true)
	defer func() {
		if r := recover(); r != ErrInterrupted {
			t.Fatalf("recover() = %v, want ErrInterrupted", r)
		}
		if m.Size() != size {
			t.Errorf("arena grew from %d to %d nodes after the stop", size, m.Size())
		}
	}()
	m.Var(2)
	t.Fatal("unreachable: node construction ignored the stop flag")
}
