package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"verdict/internal/journal"
	"verdict/internal/ltl"
	"verdict/internal/mc"
	"verdict/internal/resilience"
	"verdict/internal/ts"
)

// TestLifecycleTransitions drives every (phase, event) pair through
// the transition function: legal pairs land in the specified phase,
// illegal ones return the event's sentinel and leave the job
// untouched. The expected table is written out here independently of
// the one in lifecycle.go, so the test is a specification, not a copy.
func TestLifecycleTransitions(t *testing.T) {
	// Each phase is reached from a fresh (Shadow) job by legal events
	// only, so no phase is ever set by hand.
	paths := [numPhases][]event{
		phaseShadow:    nil,
		phaseQueued:    {evQueue},
		phaseRunning:   {evQueue, evStart},
		phaseStolen:    {evQueue, evSteal},
		phaseSealed:    {evSeal},
		phasePublished: {evSeal, evPublish},
	}
	type pair struct {
		from phase
		ev   event
	}
	legal := map[pair]phase{
		{phaseShadow, evQueue}:   phaseQueued,
		{phaseShadow, evSeal}:    phaseSealed,
		{phaseShadow, evRestore}: phasePublished,
		{phaseQueued, evStart}:   phaseRunning,
		{phaseQueued, evSteal}:   phaseStolen,
		{phaseQueued, evSeal}:    phaseSealed,
		{phaseRunning, evSeal}:   phaseSealed,
		{phaseStolen, evRequeue}: phaseQueued,
		{phaseStolen, evSeal}:    phaseSealed,
		{phaseSealed, evPublish}: phasePublished,
	}
	sentinel := [numEvents]error{
		evQueue:   errNotShadow,
		evStart:   errNotQueued,
		evSteal:   errNotQueued,
		evRequeue: errNotStolen,
		evSeal:    errAlreadySealed,
		evPublish: errNotSealed,
		evRestore: errNotShadow,
	}
	wire := [numPhases]string{
		phaseShadow:    StatusQueued,
		phaseQueued:    StatusQueued,
		phaseRunning:   StatusRunning,
		phaseStolen:    StatusQueued,
		phaseSealed:    StatusRunning,
		phasePublished: StatusFailed, // no result: a failure
	}
	for p := phase(0); p < numPhases; p++ {
		for ev := event(0); ev < numEvents; ev++ {
			j := &job{id: "x", tenant: "t", reqJSON: json.RawMessage(`{}`), done: make(chan struct{})}
			for _, step := range paths[p] {
				if err := j.transition(step); err != nil {
					t.Fatalf("reaching phase %d: event %d: %v", p, step, err)
				}
			}
			if j.phase != p {
				t.Fatalf("path to phase %d ended in %d", p, j.phase)
			}
			if got := j.status(); got != wire[p] {
				t.Errorf("phase %d renders %q, want %q", p, got, wire[p])
			}
			before := *j
			err := j.transition(ev)
			if to, ok := legal[pair{p, ev}]; ok {
				if err != nil || j.phase != to {
					t.Errorf("phase %d + event %d: got (%d, %v), want (%d, nil)", p, ev, j.phase, err, to)
				}
				continue
			}
			if !errors.Is(err, sentinel[ev]) {
				t.Errorf("phase %d + event %d: err %v, want %v", p, ev, err, sentinel[ev])
			}
			if !reflect.DeepEqual(*j, before) {
				t.Errorf("phase %d + event %d: illegal event changed the job: %+v → %+v", p, ev, before, *j)
			}
		}
	}
	done := &job{result: &mc.Result{Status: mc.Holds}}
	done.transition(evRestore)
	if got := done.status(); got != StatusDone {
		t.Errorf("published job with a result renders %q, want %q", got, StatusDone)
	}
}

// TestSettleRaceWorkerVsPeerPush: a local worker and a peer's
// replicate push settle the same job at once. Exactly one settlement
// wins — one settled journal record on the owner, done closed once —
// and both nodes serve the winner's bytes.
func TestSettleRaceWorkerVsPeerPush(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	check := func(*ts.System, *ltl.Formula, mc.Options, resilience.RetryPolicy) (*mc.Result, error) {
		started <- struct{}{}
		<-release
		return &mc.Result{Status: mc.Holds, Engine: "local", Depth: 1}, nil
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	nodes := newTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.Check = check
		cfg.DataDir = dirs[i]
	})
	peerResult, err := json.Marshal(&mc.Result{Status: mc.Holds, Engine: "peer", Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 6
	for i := 0; i < rounds; i++ {
		req := CheckRequest{Model: clusterModel(100 + i)}
		id := idFor(t, nodes[0], req)
		owner, other := ownerOf(t, nodes, id), nodes[0]
		if other == owner {
			other = nodes[1]
		}
		if code, cr := submit(t, owner.url, req); code != http.StatusAccepted {
			t.Fatalf("submit: %d %+v", code, cr)
		}
		<-started
		push, _ := json.Marshal(clusterReplicateMsg{ID: id, Status: StatusDone, Result: peerResult})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(owner.url+"/v1/cluster/replicate", "application/json", bytes.NewReader(push))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		// Odd rounds let the push land first, so the running worker is
		// the one that loses the seal; even rounds release both at once
		// and let the scheduler pick the winner.
		peerFirst := i%2 == 1
		if peerFirst {
			wg.Wait()
		}
		release <- struct{}{}
		wg.Wait()
		waitDone(t, owner.url, id)

		a, b := rawStatus(t, owner.url, id), rawStatus(t, other.url, id)
		if a != b {
			t.Errorf("round %d: nodes serve different bytes:\nowner: %s\nother: %s", i, a, b)
		}
		if peerFirst && !strings.Contains(a, `"engine":"peer"`) {
			t.Errorf("round %d: the push settled first, but the owner serves %s", i, a)
		}
		if n := settledRecords(t, dirs[indexOf(nodes, owner)], id); n != 1 {
			t.Errorf("round %d: owner journaled %d settled records for %s, want 1", i, n, id)
		}
	}
}

// TestReplayedRequestNoLongerCompiles: a journaled acceptance whose
// request no longer compiles settles as failed at replay, so the id
// the client holds still answers — with identical bytes after the
// restart that settled it and after the one that follows the replay's
// compaction.
func TestReplayedRequestNoLongerCompiles(t *testing.T) {
	dir := t.TempDir()
	id := "badc0de" + strings.Repeat("0", 25)
	j, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := json.RawMessage(`{"model":"MODULE m\nVAR x : boolean;\nINIT x = ;\n"}`)
	if err := j.Append(journal.Record{Type: journal.TypeAccepted, ID: id, Request: req}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	s1, ht1 := newDurableServer(t, dir, Config{Workers: 1})
	cr := waitDone(t, ht1.URL, id)
	if cr.Status != StatusFailed || !strings.Contains(cr.Error, "replay: request no longer compiles") {
		t.Fatalf("replayed broken request: %+v", cr)
	}
	first := rawStatus(t, ht1.URL, id)
	shutdown(t, s1, ht1)

	// The replay compacted the journal: nothing about the id is left in
	// it, so the next start answers from the result store alone.
	if n := settledRecords(t, dir, id); n != 0 {
		t.Fatalf("journal still holds %d settled record(s) after compaction", n)
	}
	s2, ht2 := newDurableServer(t, dir, Config{Workers: 1})
	defer shutdown(t, s2, ht2)
	if again := rawStatus(t, ht2.URL, id); again != first {
		t.Errorf("bytes changed across restart:\nbefore: %s\nafter:  %s", first, again)
	}
}

// rawStatus returns the raw GET /v1/checks/{id} body.
func rawStatus(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/checks/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return readBody(t, resp)
}

// settledRecords counts the settled journal records for id under a
// node's data dir.
func settledRecords(t *testing.T, dataDir, id string) int {
	t.Helper()
	n := 0
	_, err := journal.Replay(filepath.Join(dataDir, "journal"), func(rec journal.Record) error {
		if rec.Type == journal.TypeSettled && rec.ID == id {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func indexOf(nodes []*testNode, n *testNode) int {
	for i, m := range nodes {
		if m == n {
			return i
		}
	}
	return -1
}
