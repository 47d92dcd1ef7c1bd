package extract

import (
	"encoding/json"
	"strings"
	"testing"

	"verdict"
)

func boolPtr(b bool) *bool { return &b }

// rollout is the reference configuration the example stream and the
// watch tests share: two workers with a little base load, one web
// deployment, a descheduler threshold comfortably above utilization.
func rollout(t *testing.T) *ClusterConfig {
	t.Helper()
	cfg := NewConfig()
	events := []Event{
		{Kind: KindNode, Name: "w2", Node: &NodeSpec{Capacity: 100, BaseLoad: 5}},
		{Kind: KindNode, Name: "w3", Node: &NodeSpec{Capacity: 100, BaseLoad: 5}},
		{Kind: KindDeployment, Name: "web", Deployment: &DeploymentSpec{Replicas: 2, RequestCPU: 50}},
		{Kind: KindDescheduler, Descheduler: &DeschedulerSpec{Threshold: 70}},
	}
	for i, ev := range events {
		if err := cfg.Apply(ev); err != nil {
			t.Fatalf("apply event %d: %v", i, err)
		}
	}
	return cfg
}

func names(props []Property) []string {
	out := make([]string, len(props))
	for i, p := range props {
		out[i] = p.Name
	}
	return out
}

func TestExtractDescheduler(t *testing.T) {
	cfg := rollout(t)
	props, err := Extract(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 1 || props[0].Name != "descheduler/web" {
		t.Fatalf("props = %v, want [descheduler/web]", names(props))
	}
	p := props[0]
	if !strings.Contains(p.Source, "LTLSPEC") {
		t.Fatalf("source carries no LTLSPEC:\n%s", p.Source)
	}
	if len(p.Characteristics) == 0 {
		t.Fatal("property has no incident characteristics")
	}
	// Threshold 70 vs utilization 55 (request 50 + base load 5): the
	// pod settles. The extracted source must actually verify that way.
	assertVerdict(t, p.Source, "holds")

	// Dropping the threshold below utilization must change the bytes
	// (the dirty-diff signal) and flip the verdict.
	if err := cfg.Apply(Event{Kind: KindDescheduler, Descheduler: &DeschedulerSpec{Threshold: 45}}); err != nil {
		t.Fatal(err)
	}
	broken, err := Extract(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 1 || broken[0].Name != p.Name {
		t.Fatalf("props after threshold change = %v", names(broken))
	}
	if broken[0].Source == p.Source {
		t.Fatal("threshold change did not change the rendered source")
	}
	assertVerdict(t, broken[0].Source, "violated")
}

func TestExtractDeterministicAndCloneIndependent(t *testing.T) {
	cfg := rollout(t)
	a, err := Extract(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extract(cfg.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("clone extracts %d props, original %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Source != b[i].Source {
			t.Fatalf("prop %d differs between original and clone", i)
		}
	}
	// Mutating the clone must not leak into the original.
	clone := cfg.Clone()
	clone.Descheduler.Threshold = 1
	if cfg.Descheduler.Threshold != 70 {
		t.Fatal("clone shares descheduler spec with original")
	}
}

func TestTelemetryIsInert(t *testing.T) {
	cfg := rollout(t)
	before, err := Extract(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []Event{
		{Kind: KindTelemetry, Telemetry: json.RawMessage(`{"pod":"web-1","cpu":48}`)},
		{Kind: KindAnnotation, Name: "web", Note: "canary 10%"},
	} {
		if err := cfg.Apply(ev); err != nil {
			t.Fatalf("telemetry apply: %v", err)
		}
	}
	after, err := Extract(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("telemetry changed property count: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i].Source != after[i].Source {
			t.Fatalf("telemetry changed source of %s", before[i].Name)
		}
	}
}

func TestExtractHPASurge(t *testing.T) {
	cfg := rollout(t)
	if err := cfg.Apply(Event{Kind: KindHPA, Name: "web", HPA: &HPASpec{MaxReplicas: 8}}); err != nil {
		t.Fatal(err)
	}
	props, err := Extract(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := names(props)
	if len(props) != 2 || got[0] != "descheduler/web" || got[1] != "hpa-surge/web" {
		t.Fatalf("props = %v, want [descheduler/web hpa-surge/web]", got)
	}
	hpa := props[1]
	assertVerdict(t, hpa.Source, "holds")

	// Turning on the issue-#90461 defect flips the surge invariant.
	if err := cfg.Apply(Event{Kind: KindHPA, Name: "web", HPA: &HPASpec{MaxReplicas: 8, ReportsExpectedAsCurrent: true}}); err != nil {
		t.Fatal(err)
	}
	broken, err := Extract(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if broken[1].Source == hpa.Source {
		t.Fatal("defect flag did not change rendered source")
	}
	assertVerdict(t, broken[1].Source, "violated")
}

func TestExtractHPATargetsApp(t *testing.T) {
	cfg := rollout(t)
	// An HPA named differently but targeting web via App.
	if err := cfg.Apply(Event{Kind: KindHPA, Name: "web-scaler", HPA: &HPASpec{App: "web", MaxReplicas: 1}}); err != nil {
		t.Fatal(err)
	}
	props, err := Extract(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 2 || props[1].Name != "hpa-surge/web" {
		t.Fatalf("props = %v, want hpa-surge/web second", names(props))
	}
	// Cap 1 < replicas 2: the extractor models the effective ceiling
	// the deployment occupies rather than an inconsistent config.
	if !strings.Contains(props[1].Detail, "HPA cap 2") {
		t.Fatalf("detail = %q, want effective cap 2", props[1].Detail)
	}
}

func TestExtractTaintLoop(t *testing.T) {
	cfg := rollout(t)
	if err := cfg.Apply(Event{Kind: KindNode, Name: "w4", Node: &NodeSpec{Taints: []string{"gpu"}}}); err != nil {
		t.Fatal(err)
	}
	props, err := Extract(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := names(props)
	if len(props) != 2 || got[1] != "taint-loop/web" {
		t.Fatalf("props = %v, want taint-loop/web", got)
	}
	// A taint-respecting scheduler (the default) settles.
	assertVerdict(t, props[1].Source, "holds")

	// Misconfigure the scheduler: the recreate/evict loop spins.
	if err := cfg.Apply(Event{Kind: KindScheduler, Scheduler: &SchedulerSpec{RespectTaints: boolPtr(false)}}); err != nil {
		t.Fatal(err)
	}
	broken, err := Extract(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertVerdict(t, broken[1].Source, "violated")

	// Tolerating the taint removes the interaction entirely.
	if err := cfg.Apply(Event{Kind: KindDeployment, Name: "web", Deployment: &DeploymentSpec{Replicas: 2, RequestCPU: 50, Tolerations: []string{"gpu"}}}); err != nil {
		t.Fatal(err)
	}
	tolerant, err := Extract(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tolerant {
		if strings.HasPrefix(p.Name, "taint-loop/") {
			t.Fatalf("taint-loop extracted despite toleration: %v", names(tolerant))
		}
	}
}

func TestExtractRespectsTaintsForHosting(t *testing.T) {
	// The only untainted node has the higher base load; with taints
	// respected the worst hostable base load comes from it.
	cfg := NewConfig()
	for _, ev := range []Event{
		{Kind: KindNode, Name: "quiet", Node: &NodeSpec{BaseLoad: 3, Taints: []string{"infra"}}},
		{Kind: KindNode, Name: "busy", Node: &NodeSpec{BaseLoad: 20}},
		{Kind: KindDeployment, Name: "web", Deployment: &DeploymentSpec{Replicas: 1, RequestCPU: 40}},
		{Kind: KindDescheduler, Descheduler: &DeschedulerSpec{Threshold: 65}},
	} {
		if err := cfg.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	props, err := Extract(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var desch *Property
	for i := range props {
		if props[i].Name == "descheduler/web" {
			desch = &props[i]
		}
	}
	if desch == nil {
		t.Fatalf("no descheduler property: %v", names(props))
	}
	// Utilization on the hostable node: 40 + 20 = 60 <= 65 → holds.
	if !strings.Contains(desch.Detail, "utilization 60%") {
		t.Fatalf("detail = %q, want utilization 60%%", desch.Detail)
	}
	assertVerdict(t, desch.Source, "holds")
}

func TestDeleteRemovesProperties(t *testing.T) {
	cfg := rollout(t)
	if err := cfg.Apply(Event{Kind: KindDeployment, Name: "web", Op: "delete"}); err != nil {
		t.Fatal(err)
	}
	props, err := Extract(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 0 {
		t.Fatalf("props after delete = %v, want none", names(props))
	}
}

func TestApplyErrors(t *testing.T) {
	cfg := NewConfig()
	for _, ev := range []Event{
		{},
		{Kind: "volcano"},
		{Kind: KindNode},
		{Kind: KindNode, Name: "w1"},
		{Kind: KindNode, Name: "w1", Op: "upsert", Node: &NodeSpec{}},
		{Kind: KindDeployment, Name: "web", Deployment: &DeploymentSpec{Replicas: 0}},
		{Kind: KindHPA, Name: "web", HPA: &HPASpec{MaxReplicas: 0}},
		{Kind: KindDescheduler},
		{Kind: KindScheduler},
	} {
		if err := cfg.Apply(ev); err == nil {
			t.Errorf("Apply(%+v) accepted, want error", ev)
		}
	}
	if len(cfg.Nodes) != 0 || len(cfg.Deployments) != 0 || len(cfg.HPAs) != 0 {
		t.Fatal("rejected events mutated the config")
	}
}

// assertVerdict checks the extracted source end-to-end: parse it back
// through the public API and verify the single spec, with the witness
// validated — every extracted model must be a real, checkable model.
func assertVerdict(t *testing.T, source, want string) {
	t.Helper()
	if testing.Short() && want == "holds" {
		// Holds verdicts need unbounded engines; keep -short fast by
		// checking only the violated (BMC-fast) sources there.
		return
	}
	prog, err := verdict.ParseModel(source)
	if err != nil {
		t.Fatalf("parse extracted source: %v", err)
	}
	if len(prog.LTLSpecs) != 1 {
		t.Fatalf("extracted source has %d LTLSPECs, want 1", len(prog.LTLSpecs))
	}
	res, err := verdict.Check(prog.Sys, prog.LTLSpecs[0], verdict.Options{
		MaxDepth:        25,
		ValidateWitness: true,
	})
	if err != nil {
		t.Fatalf("check extracted source: %v", err)
	}
	if res.Status.String() != want {
		t.Fatalf("verdict = %s, want %s", res.Status, want)
	}
	if res.Status.String() == "violated" && (res.Trace == nil || len(res.Trace.States) == 0 || res.Witness != "validated") {
		t.Fatalf("violated verdict carries no validated trace (witness %q)", res.Witness)
	}
}
