package incident

import (
	"testing"

	"verdict/internal/expr"
	"verdict/internal/mc"
	"verdict/internal/witness"
)

// TestIncidentHappensAtLowThreshold: with the abuse threshold at 1,
// ordinary bounded bursts drive the GC to a CPU level the LB
// misclassifies, and repeated capacity cuts reach rejection — the
// #18037 spiral.
func TestIncidentHappensAtLowThreshold(t *testing.T) {
	m, err := Build18037(Config18037{AbuseThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := mc.Portfolio(m.Sys, m.Property, mc.Options{MaxDepth: 30})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Violated {
		t.Fatalf("threshold 1: %v, want violated", r)
	}
	if r.Trace != nil {
		if err := witness.Validate(m.Sys, m.Property, r.Trace); err != nil {
			t.Fatalf("trace replay: %v", err)
		}
		// The final state must be rejecting with capacity 0, and the
		// path must include a large-request burst (the trigger).
		last := r.Trace.States[r.Trace.Len()-1]
		if v, _ := last.Get("capacity"); v.I != 0 {
			t.Errorf("final capacity %v, want 0", v)
		}
		sawBurst := false
		for _, st := range r.Trace.States {
			if v, ok := st.Get("large_requests"); ok && v.B {
				sawBurst = true
			}
		}
		if !sawBurst {
			t.Error("counterexample never shows the large-request trigger")
		}
	}
}

// TestSafeThresholdHolds: a threshold above what bounded bursts can
// drive the GC to never misclassifies, so capacity stays up.
func TestSafeThresholdHolds(t *testing.T) {
	m, err := Build18037(Config18037{AbuseThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := mc.Portfolio(m.Sys, m.Property, mc.Options{MaxDepth: 30})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Holds {
		t.Fatalf("threshold 2: %v, want holds", r)
	}
}

// TestThresholdSynthesis: synthesis separates the misconfiguration
// from the safe settings exactly.
func TestThresholdSynthesis(t *testing.T) {
	m, err := Build18037(Config18037{SynthThreshold: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.SynthesizeParams(m.Sys, m.Property, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unsafe) != 1 || res.Unsafe[0].String() != "abuse_threshold=1" {
		t.Errorf("unsafe = %v, want exactly threshold 1", res.Unsafe)
	}
	if len(res.Safe) != 3 {
		t.Errorf("safe = %v, want thresholds 2..4", res.Safe)
	}
}

// TestBurstBoundEnforced: the environment can never run more than
// BurstLen consecutive large-request steps (the burst counter's
// domain excludes longer runs).
func TestBurstBoundEnforced(t *testing.T) {
	m, err := Build18037(Config18037{AbuseThreshold: 4, BurstLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	// "Eventually 3 consecutive large steps" must be unreachable:
	// check G !(large ∧ X large ∧ X X large) ... expressed via BMC on
	// the negation through the burst counter: burst_len = 2 ∧ next
	// large is excluded by construction, so G(burst_len <= 2) holds
	// trivially by domain; instead check the stronger semantic fact
	// that memory never exceeds BurstLen.
	memVar, _ := m.Sys.VarByName("memory")
	r, err := mc.KInduction(m.Sys,
		leInt(memVar, 2),
		mc.Options{MaxDepth: 15})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Holds {
		t.Fatalf("memory bound under 2-step bursts: %v, want holds", r)
	}
}

// TestConfigValidation rejects nonsense.
func TestConfigValidation(t *testing.T) {
	if _, err := Build18037(Config18037{Max: 1}); err == nil {
		t.Error("Max=1 accepted")
	}
	if _, err := Build18037(Config18037{AbuseThreshold: 9}); err == nil {
		t.Error("threshold above Max accepted")
	}
}

// leInt builds memory <= k without importing expr in every call site.
func leInt(v *expr.Var, k int64) *expr.Expr {
	return expr.Le(v.Ref(), expr.IntConst(k))
}
