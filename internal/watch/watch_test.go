package watch

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"verdict/internal/incidents"
	"verdict/internal/trace"
	"verdict/internal/watch/extract"
)

// fakeVerify decides properties from their detail/source text without
// running a model checker: sources rendered from a violated
// configuration embed the violating parameters, so the descheduler
// property is "violated" when its threshold parameter sits below the
// request. Tests that need real verification live in the extract and
// server packages; here the engine's scheduling is under test.
func fakeVerify(calls *atomic.Int64) VerifyFunc {
	return func(ctx context.Context, p extract.Property) Outcome {
		calls.Add(1)
		out := Outcome{Verdict: VerdictHolds, Engine: "fake", Witness: "validated"}
		// The k8s descheduler model renders its violation condition
		// into the transition relation; rather than parse it, key off
		// the instantiated detail string the extractor writes.
		if strings.Contains(p.Detail, "threshold 45%") {
			out.Verdict = VerdictViolated
			out.Trace = &trace.Trace{States: []trace.State{{}}}
		}
		return out
	}
}

func node(name string, load int) extract.Event {
	return extract.Event{Kind: extract.KindNode, Name: name, Node: &extract.NodeSpec{Capacity: 100, BaseLoad: load}}
}

func deployment(name string, replicas, cpu int) extract.Event {
	return extract.Event{Kind: extract.KindDeployment, Name: name, Deployment: &extract.DeploymentSpec{Replicas: replicas, RequestCPU: cpu}}
}

func descheduler(threshold int) extract.Event {
	return extract.Event{Kind: extract.KindDescheduler, Descheduler: &extract.DeschedulerSpec{Threshold: threshold}}
}

func telemetry() extract.Event {
	return extract.Event{Kind: extract.KindTelemetry, Telemetry: json.RawMessage(`{"cpu":48}`)}
}

func ingestWait(t *testing.T, s *Session, events ...extract.Event) {
	t.Helper()
	seq, err := s.Ingest(events)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Wait(ctx, seq); err != nil {
		t.Fatalf("wait: %v", err)
	}
}

// TestDirtyDiffing is the tentpole acceptance check at engine level: a
// stream of N events of which K touch a verified property triggers
// exactly K re-checks; the rest are skipped as clean.
func TestDirtyDiffing(t *testing.T) {
	var calls atomic.Int64
	var incidentReports []incidents.Report
	var mu sync.Mutex
	s := New(Config{
		ID:     "w1",
		Verify: fakeVerify(&calls),
		Hooks: Hooks{Incident: func(r incidents.Report) {
			mu.Lock()
			incidentReports = append(incidentReports, r)
			mu.Unlock()
		}},
	})
	defer s.Close(false)

	// Setup batch: creates the descheduler/web property → 1 run.
	ingestWait(t, s, node("w2", 5), node("w3", 5), deployment("web", 2, 50), descheduler(70))
	// Telemetry ticks: clean → 0 runs, 2 skips.
	ingestWait(t, s, telemetry())
	ingestWait(t, s, telemetry())
	// Threshold 70→60 still clears the 55% utilization: the model is
	// semantically unchanged, the canonical render folds the constants
	// identically, and the diff correctly classifies it clean.
	ingestWait(t, s, descheduler(60))
	// Telemetry again: clean.
	ingestWait(t, s, telemetry())
	// Breaking change: dirty → 1 run, incident.
	ingestWait(t, s, descheduler(45))

	if got := calls.Load(); got != 2 {
		t.Fatalf("verify ran %d times, want 2 (setup + breaking change)", got)
	}
	snap := s.Status()
	if snap.Counters.Runs != 2 || snap.Counters.Skipped != 4 {
		t.Fatalf("counters = %+v, want 2 runs / 4 skipped", snap.Counters)
	}
	if snap.Counters.Events != 9 {
		t.Fatalf("events = %d, want 9", snap.Counters.Events)
	}
	// The clean-but-renumbered revision must still refresh the
	// human-readable detail even though the verdict was reused.
	if len(snap.Props) != 1 || !strings.Contains(snap.Props[0].Detail, "threshold 45%") {
		t.Fatalf("props = %+v, want refreshed detail", snap.Props)
	}
	if snap.Counters.Flips != 1 {
		t.Fatalf("flips = %d, want 1 (holds→violated)", snap.Counters.Flips)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(incidentReports) != 1 {
		t.Fatalf("incidents = %d, want 1", len(incidentReports))
	}
	rep := incidentReports[0]
	if rep.Property != "descheduler/web" || rep.Trace == nil {
		t.Fatalf("incident = %+v, want descheduler/web with trace", rep)
	}
	if len(rep.Characteristics) == 0 {
		t.Fatal("incident has no Table 1 characteristics")
	}
	if len(snap.Incidents) != 1 {
		t.Fatalf("snapshot incident log has %d entries, want 1", len(snap.Incidents))
	}
	if len(snap.Props) != 1 || snap.Props[0].Verdict != VerdictViolated {
		t.Fatalf("props = %+v, want one violated", snap.Props)
	}
}

// TestViolationIsNotReReported: staying in violation across further
// clean and dirty events must not duplicate the incident; recovery
// and re-break must report a second one.
func TestIncidentEdgeTriggering(t *testing.T) {
	var calls atomic.Int64
	var count atomic.Int64
	s := New(Config{
		ID:     "w1",
		Verify: fakeVerify(&calls),
		Hooks:  Hooks{Incident: func(incidents.Report) { count.Add(1) }},
	})
	defer s.Close(false)

	ingestWait(t, s, node("w2", 5), deployment("web", 2, 50), descheduler(45))
	ingestWait(t, s, telemetry())
	if got := count.Load(); got != 1 {
		t.Fatalf("incidents after break = %d, want 1", got)
	}
	// Recover, then break again: a fresh incident.
	ingestWait(t, s, descheduler(70))
	ingestWait(t, s, descheduler(45))
	if got := count.Load(); got != 2 {
		t.Fatalf("incidents after re-break = %d, want 2", got)
	}
	if snap := s.Status(); len(snap.Incidents) != 2 {
		t.Fatalf("incident log = %d entries, want 2", len(snap.Incidents))
	}
}

// TestHooksRunBeforeWaitReturns: a caller released by Wait sees every
// hook of the batches it waited for, however slow the hooks are, so
// metrics read after a batch response match the session's ledger.
func TestHooksRunBeforeWaitReturns(t *testing.T) {
	var calls, reported, latencies atomic.Int64
	s := New(Config{
		ID:     "w1",
		Verify: fakeVerify(&calls),
		Hooks: Hooks{
			Incident: func(incidents.Report) { time.Sleep(20 * time.Millisecond); reported.Add(1) },
			Latency:  func(time.Duration) { time.Sleep(20 * time.Millisecond); latencies.Add(1) },
		},
	})
	defer s.Close(false)

	ingestWait(t, s, node("w2", 5), deployment("web", 2, 50), descheduler(45))
	if got := reported.Load(); got != 1 {
		t.Fatalf("incident hooks when Wait returned = %d, want 1", got)
	}
	if got := latencies.Load(); got != 1 {
		t.Fatalf("latency hooks when Wait returned = %d, want 1", got)
	}
}

// TestIncidentLogBounded: a configuration that flaps between holding
// and violating raises an incident per flap; the lifetime counter keeps
// the full count while the log itself stays capped at the most recent
// window (each entry carries a counterexample trace, so an unbounded
// log would bloat every status response and journal snapshot).
func TestIncidentLogBounded(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{ID: "w1", Verify: fakeVerify(&calls)})
	defer s.Close(false)

	ingestWait(t, s, node("w2", 5), deployment("web", 2, 50), descheduler(70))
	flaps := DefaultMaxIncidentLog + 10
	for i := 0; i < flaps; i++ {
		ingestWait(t, s, descheduler(45))
		ingestWait(t, s, descheduler(70))
	}
	snap := s.Status()
	if got := snap.Counters.Incidents; got != uint64(flaps) {
		t.Fatalf("lifetime incidents = %d, want %d", got, flaps)
	}
	if got := len(snap.Incidents); got != DefaultMaxIncidentLog {
		t.Fatalf("incident log = %d entries, want cap %d", got, DefaultMaxIncidentLog)
	}
	// The window keeps the newest entries: the last flap's break sits at
	// the tail, and the oldest surviving entry is flap #11's.
	last := snap.Incidents[len(snap.Incidents)-1]
	if want := snap.Seq - 1; last.Seq != want {
		t.Fatalf("newest incident seq = %d, want %d", last.Seq, want)
	}
	if first := snap.Incidents[0]; first.Seq <= 1 {
		t.Fatalf("oldest incident seq = %d, want trimmed window", first.Seq)
	}
}

// TestIncidentLogConfigurable: Config.MaxIncidentLog overrides the
// default window, and a restore under a smaller bound re-trims the
// journaled log to the newest entries.
func TestIncidentLogConfigurable(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{ID: "w1", Verify: fakeVerify(&calls), MaxIncidentLog: 3})
	defer s.Close(false)

	ingestWait(t, s, node("w2", 5), deployment("web", 2, 50), descheduler(70))
	const flaps = 8
	for i := 0; i < flaps; i++ {
		ingestWait(t, s, descheduler(45))
		ingestWait(t, s, descheduler(70))
	}
	snap := s.Status()
	if got := snap.Counters.Incidents; got != uint64(flaps) {
		t.Fatalf("lifetime incidents = %d, want %d", got, flaps)
	}
	if got := len(snap.Incidents); got != 3 {
		t.Fatalf("incident log = %d entries, want configured cap 3", got)
	}
	if got := snap.IncidentLogMax; got != 3 {
		t.Fatalf("snapshot IncidentLogMax = %d, want 3", got)
	}

	// A restore under a *smaller* bound keeps the newest window.
	s2 := Restore(snap, Config{ID: "w1", Verify: fakeVerify(&calls), MaxIncidentLog: 2})
	defer s2.Close(false)
	snap2 := s2.Status()
	if got := len(snap2.Incidents); got != 2 {
		t.Fatalf("restored incident log = %d entries, want re-trimmed cap 2", got)
	}
	if snap2.Incidents[1].Seq != snap.Incidents[2].Seq {
		t.Fatalf("restore kept seq %d at tail, want newest %d", snap2.Incidents[1].Seq, snap.Incidents[2].Seq)
	}
}

// TestDebounceCoalesces: a burst of revisions inside one debounce
// window verifies once, at the final revision.
func TestDebounceCoalesces(t *testing.T) {
	var calls atomic.Int64
	var coalesced atomic.Int64
	s := New(Config{
		ID:       "w1",
		Verify:   fakeVerify(&calls),
		Debounce: 150 * time.Millisecond,
		Hooks:    Hooks{Coalesced: func(n int) { coalesced.Add(int64(n)) }},
	})
	defer s.Close(false)

	if _, err := s.Ingest([]extract.Event{node("w2", 5), deployment("web", 2, 50), descheduler(70)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]extract.Event{descheduler(60)}); err != nil {
		t.Fatal(err)
	}
	seq, err := s.Ingest([]extract.Event{descheduler(65)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Wait(ctx, seq); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("verify ran %d times, want 1 (burst coalesced)", got)
	}
	if got := coalesced.Load(); got != 2 {
		t.Fatalf("coalesced = %d, want 2 superseded batches", got)
	}
	snap := s.Status()
	if len(snap.Props) != 1 || !strings.Contains(snap.Props[0].Detail, "threshold 65%") {
		t.Fatalf("props = %+v, want final revision (threshold 65)", snap.Props)
	}
}

// TestRestoreResumesOwedPass: a snapshot taken after an ingest but
// before its verify pass (the crash window) must re-verify on
// restore, and must not duplicate incidents already persisted.
func TestRestoreResumesOwedPass(t *testing.T) {
	var calls atomic.Int64
	var snapshots []*Snapshot
	var mu sync.Mutex
	persist := func(snap *Snapshot) {
		mu.Lock()
		snapshots = append(snapshots, snap)
		mu.Unlock()
	}
	cfg := Config{ID: "w1", Verify: fakeVerify(&calls), Persist: persist}
	s := New(cfg)
	ingestWait(t, s, node("w2", 5), deployment("web", 2, 50), descheduler(45))
	s.Close(false)

	// Simulate the crash window: take the last snapshot written at
	// ingest time (Seq > VerifiedSeq), i.e. before the verify pass.
	mu.Lock()
	var preVerify *Snapshot
	for _, snap := range snapshots {
		if snap.Seq > snap.VerifiedSeq {
			preVerify = snap
		}
	}
	lastPersisted := snapshots[len(snapshots)-1]
	mu.Unlock()
	if preVerify == nil {
		t.Fatal("no pre-verify snapshot captured")
	}
	if lastPersisted.Seq != lastPersisted.VerifiedSeq {
		t.Fatal("final snapshot should be fully verified")
	}

	// Restore from the pre-verify snapshot: the owed pass must run and
	// the incident must be (re-)discovered — it was never persisted.
	var count atomic.Int64
	restored := Restore(preVerify, Config{
		ID:     "w1",
		Verify: fakeVerify(&calls),
		Hooks:  Hooks{Incident: func(incidents.Report) { count.Add(1) }},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := restored.Wait(ctx, preVerify.Seq); err != nil {
		t.Fatal(err)
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("incidents after pre-verify restore = %d, want 1", got)
	}
	restored.Close(false)

	// Restore from the post-verify snapshot: the incident is already
	// persisted alongside the violated prop state, so nothing re-fires.
	count.Store(0)
	restored = Restore(lastPersisted, Config{
		ID:     "w1",
		Verify: fakeVerify(&calls),
		Hooks:  Hooks{Incident: func(incidents.Report) { count.Add(1) }},
	})
	ingestWait(t, restored, telemetry())
	if got := count.Load(); got != 0 {
		t.Fatalf("incidents after post-verify restore = %d, want 0 (no duplication)", got)
	}
	snap := restored.Status()
	if len(snap.Incidents) != 1 {
		t.Fatalf("restored incident log = %d entries, want the 1 persisted", len(snap.Incidents))
	}
	if snap.Counters.Events != 4 {
		t.Fatalf("restored events = %d, want counters to survive restore", snap.Counters.Events)
	}
	restored.Close(false)
}

func TestDeletedPropertyDropsOut(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{ID: "w1", Verify: fakeVerify(&calls)})
	defer s.Close(false)
	ingestWait(t, s, node("w2", 5), deployment("web", 2, 50), descheduler(70))
	if snap := s.Status(); len(snap.Props) != 1 {
		t.Fatalf("props = %d, want 1", len(snap.Props))
	}
	ingestWait(t, s, extract.Event{Kind: extract.KindDeployment, Name: "web", Op: "delete"})
	if snap := s.Status(); len(snap.Props) != 0 {
		t.Fatalf("props after delete = %+v, want none", snap.Props)
	}
}

func TestBadBatchLeavesSessionUntouched(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{ID: "w1", Verify: fakeVerify(&calls)})
	defer s.Close(false)
	ingestWait(t, s, node("w2", 5), deployment("web", 2, 50), descheduler(70))
	before := s.Status()
	_, err := s.Ingest([]extract.Event{descheduler(45), {Kind: "volcano"}})
	if err == nil {
		t.Fatal("bad batch accepted")
	}
	after := s.Status()
	if after.Seq != before.Seq || after.Config.Descheduler.Threshold != 70 {
		t.Fatal("failed batch mutated session state")
	}
}

func TestClosedSessionRejectsIngest(t *testing.T) {
	var calls atomic.Int64
	var snapshots []*Snapshot
	var mu sync.Mutex
	s := New(Config{ID: "w1", Verify: fakeVerify(&calls), Persist: func(snap *Snapshot) {
		mu.Lock()
		snapshots = append(snapshots, snap)
		mu.Unlock()
	}})
	ingestWait(t, s, node("w2", 5), deployment("web", 2, 50), descheduler(70))
	s.Close(true)
	if _, err := s.Ingest([]extract.Event{telemetry()}); err == nil {
		t.Fatal("closed session accepted ingest")
	}
	mu.Lock()
	defer mu.Unlock()
	last := snapshots[len(snapshots)-1]
	if !last.Closed {
		t.Fatal("tombstone snapshot not persisted on Close(true)")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := incidents.Report{
		Seq:             7,
		Property:        "descheduler/web",
		Characteristics: []incidents.Characteristic{incidents.DynamicControl, incidents.CrossLayer},
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"dynamic-control"`) {
		t.Fatalf("characteristics not name-encoded: %s", raw)
	}
	var back incidents.Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Characteristics) != 2 || back.Characteristics[0] != incidents.DynamicControl {
		t.Fatalf("round trip lost characteristics: %+v", back)
	}
	var bad incidents.Report
	if err := json.Unmarshal([]byte(`{"characteristics":["volcanic"]}`), &bad); err == nil {
		t.Fatal("unknown characteristic accepted")
	}
}
