package k8s

import (
	"testing"

	"verdict/internal/ltl"
	"verdict/internal/mc"
	"verdict/internal/witness"
)

func TestTaintLoopOscillates(t *testing.T) {
	// Issue #75913: a scheduler that ignores taints lets the loop spin.
	m := BuildTaintLoop(TaintLoopConfig{RespectTaints: false})
	r, err := mc.CheckLTL(m.Sys, m.Property, mc.Options{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Violated {
		t.Fatalf("taint loop F(G(stable)): %v, want violated", r)
	}
	// BMC produces the create→bind-to-tainted→evict lasso.
	rb, err := mc.BMC(m.Sys, m.Property, mc.Options{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Status != mc.Violated || rb.Trace == nil || !rb.Trace.IsLasso() {
		t.Fatalf("expected lasso counterexample, got %v", rb)
	}
	if err := witness.Validate(m.Sys, m.Property, rb.Trace); err != nil {
		t.Fatalf("trace replay: %v", err)
	}
}

func TestTaintLoopFixedByRespectingTaints(t *testing.T) {
	m := BuildTaintLoop(TaintLoopConfig{RespectTaints: true})
	r, err := mc.CheckLTL(m.Sys, m.Property, mc.Options{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Holds {
		t.Fatalf("taint loop with taint-aware scheduler: %v, want holds", r)
	}
}

func TestTaintLoopSynthesis(t *testing.T) {
	m := BuildTaintLoop(TaintLoopConfig{SynthRespect: true})
	res, err := mc.SynthesizeParams(m.Sys, m.Property, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Safe) != 1 || res.Safe[0].String() != "scheduler_respects_taints=TRUE" {
		t.Errorf("safe = %v, want scheduler_respects_taints=TRUE", res.Safe)
	}
	if len(res.Unsafe) != 1 {
		t.Errorf("unsafe = %v, want the taint-ignoring configuration", res.Unsafe)
	}
}

func TestHPASurgeRunaway(t *testing.T) {
	// Issue #90461: the defective HPA ratchets the expected count up.
	m, err := BuildHPASurge(HPASurgeConfig{
		MaxReplicas: 8, InitialDesired: 2, MaxSurge: 1, HPABug: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := mc.KInduction(m.Sys, m.Bound, mc.Options{MaxDepth: 15})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Violated {
		t.Fatalf("HPA runaway: %v, want violated", r)
	}
	// The trace shows desired creeping up one surge at a time.
	last := r.Trace.States[r.Trace.Len()-1]
	if v, _ := last.Get("desired"); v.I <= 2 {
		t.Errorf("final desired = %v, want > 2", v)
	}
	if err := witness.Validate(m.Sys, ltl.G(ltl.Atom(m.Bound)), r.Trace); err != nil {
		t.Fatalf("trace replay: %v", err)
	}
}

func TestHPASurgeCorrectHPAHolds(t *testing.T) {
	m, err := BuildHPASurge(HPASurgeConfig{
		MaxReplicas: 8, InitialDesired: 2, MaxSurge: 1, HPABug: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := mc.KInduction(m.Sys, m.Bound, mc.Options{MaxDepth: 15})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Holds {
		t.Fatalf("correct HPA: %v, want holds", r)
	}
}

func TestHPASurgeSynthesis(t *testing.T) {
	m, err := BuildHPASurge(HPASurgeConfig{
		MaxReplicas: 8, InitialDesired: 2, MaxSurge: 1, SynthBug: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.SynthesizeParams(m.Sys, m.Property, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Safe) != 1 || res.Safe[0].String() != "hpa_reports_expected_as_current=FALSE" {
		t.Errorf("safe = %v, want only the fixed HPA", res.Safe)
	}
}

func TestHPASurgeNoSurgeIsSafeEvenWithBug(t *testing.T) {
	// maxSurge = 0 removes the interaction: even the buggy HPA copies
	// desired+0, so the count never grows — the paper's point that the
	// defect only manifests in interaction with the RUC.
	m, err := BuildHPASurge(HPASurgeConfig{
		MaxReplicas: 8, InitialDesired: 2, MaxSurge: 0, HPABug: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := mc.KInduction(m.Sys, m.Bound, mc.Options{MaxDepth: 15})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Holds {
		t.Fatalf("maxSurge=0: %v, want holds", r)
	}
}

func TestHPASurgeConfigValidation(t *testing.T) {
	if _, err := BuildHPASurge(HPASurgeConfig{MaxReplicas: 1, InitialDesired: 2}); err == nil {
		t.Error("inconsistent config accepted")
	}
}

func TestDeschedulerOscillation(t *testing.T) {
	// Figure 2's parameters: request 50%, threshold 45% — oscillates.
	m := BuildDescheduler(DeschedulerConfig{RequestCPU: 50, Threshold: 45})
	r, err := mc.CheckLTL(m.Sys, m.Property, mc.Options{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Violated {
		t.Fatalf("descheduler F(G(stable)): %v, want violated", r)
	}
}

func TestDeschedulerSafeThreshold(t *testing.T) {
	m := BuildDescheduler(DeschedulerConfig{RequestCPU: 50, Threshold: 50})
	r, err := mc.CheckLTL(m.Sys, m.Property, mc.Options{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Holds {
		t.Fatalf("threshold = request: %v, want holds", r)
	}
}

func TestDeschedulerThresholdSynthesis(t *testing.T) {
	// Safe thresholds are exactly those >= the pod's request.
	m := BuildDescheduler(DeschedulerConfig{RequestCPU: 50, SynthThreshold: true})
	res, err := mc.SynthesizeParams(m.Sys, m.Property, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Safe) != 51 { // 50..100
		t.Fatalf("got %d safe thresholds, want 51 (50..100)", len(res.Safe))
	}
	if res.Safe[0].String() != "eviction_threshold=100" && res.Safe[0].String() != "eviction_threshold=50" {
		// order is lexicographic on the string; just check membership
		found := false
		for _, a := range res.Safe {
			if a.String() == "eviction_threshold=50" {
				found = true
			}
		}
		if !found {
			t.Error("threshold 50 should be safe")
		}
	}
	for _, a := range res.Unsafe {
		if a.String() == "eviction_threshold=50" || a.String() == "eviction_threshold=73" {
			t.Errorf("threshold %s wrongly unsafe", a)
		}
	}
	if len(res.Unsafe) != 50 { // 0..49
		t.Errorf("got %d unsafe thresholds, want 50 (0..49)", len(res.Unsafe))
	}
}
