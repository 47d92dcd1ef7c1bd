package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"verdict/internal/ltl"
	"verdict/internal/mc"
	"verdict/internal/resilience"
	"verdict/internal/ts"
)

// In-process cluster harness: N real Servers wired into one fleet
// over real HTTP (httptest listeners), with probe intervals tuned for
// sub-second failure detection. The real-binary SIGKILL variant lives
// in cluster_chaos_test.go; these tests cover the routing, dedup,
// replication, shadow-promotion, and stealing logic deterministically.

type testNode struct {
	s      *Server
	ht     *httptest.Server
	url    string
	killed bool
}

// kill simulates node death: the listener refuses connections (peers'
// probes fail) and the node's own background loops stop, so a "dead"
// in-process node cannot keep stealing or replicating.
func (n *testNode) kill() {
	if n.killed {
		return
	}
	n.killed = true
	n.ht.Close()
	n.s.stopCluster()
	n.s.cancel()
}

// newTestCluster builds n nodes that all know each other. The
// listeners are bound before the servers (static membership needs the
// URLs up front) but start serving only once every node's handler is
// installed: a probe that reaches a peer early waits in the listen
// backlog instead of hitting a placeholder handler, so no node is
// ever probed into Suspect by the harness itself.
func newTestCluster(t testing.TB, n int, mut func(i int, cfg *Config)) []*testNode {
	t.Helper()
	hts := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range hts {
		hts[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + hts[i].Listener.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		var peers []string
		for k, u := range urls {
			if k != i {
				peers = append(peers, u)
			}
		}
		cfg := Config{
			Workers:              2,
			ClusterSelf:          urls[i],
			ClusterPeers:         peers,
			Replication:          2,
			ClusterProbeInterval: 20 * time.Millisecond,
			Log:                  log.New(io.Discard, "", 0),
		}
		if mut != nil {
			mut(i, &cfg)
		}
		s := New(cfg)
		if s.cluster == nil {
			t.Fatal("cluster config did not produce a cluster server")
		}
		hts[i].Config.Handler = s.Handler()
		node := &testNode{s: s, ht: hts[i], url: urls[i]}
		nodes[i] = node
		t.Cleanup(func() {
			if node.killed {
				return
			}
			node.ht.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			node.s.Drain(ctx)
			node.s.Close()
		})
	}
	for _, ht := range hts {
		ht.Start()
	}
	return nodes
}

// ownerOf finds which node currently owns the id, from node 0's view.
func ownerOf(t *testing.T, nodes []*testNode, id string) *testNode {
	t.Helper()
	owner := nodes[0].s.cluster.c.Owner(id)
	for _, n := range nodes {
		if n.url == owner {
			return n
		}
	}
	t.Fatalf("owner %s is not a test node", owner)
	return nil
}

// idFor compiles a request on a node to learn its content address
// without submitting it.
func idFor(t *testing.T, n *testNode, req CheckRequest) string {
	t.Helper()
	cr, err := n.s.compile(req)
	if err != nil {
		t.Fatal(err)
	}
	return cr.id
}

// clusterModel yields distinct content addresses per bound, same as
// the chaos template.
func clusterModel(bound int) string {
	return fmt.Sprintf(chaosModel, bound, bound)
}

// instantCheck is a CheckFunc that settles immediately with a shared
// invocation counter — the scaffolding for dedup assertions.
func instantCheck(calls *atomic.Int64) CheckFunc {
	return func(*ts.System, *ltl.Formula, mc.Options, resilience.RetryPolicy) (*mc.Result, error) {
		calls.Add(1)
		return &mc.Result{Status: mc.Holds, Engine: "fake", Depth: 1}, nil
	}
}

// waitCondition polls until ok returns true or the deadline passes.
func waitCondition(t *testing.T, d time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterForwardingAndDedup: a submission landing on a non-owner
// is forwarded to the ring owner; identical submissions to every node
// dedup onto one execution cluster-wide; the verdict reads
// byte-identically from all nodes.
func TestClusterForwardingAndDedup(t *testing.T) {
	var calls atomic.Int64
	nodes := newTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.Check = instantCheck(&calls)
	})
	req := CheckRequest{Model: clusterModel(1)}
	id := idFor(t, nodes[0], req)
	owner := ownerOf(t, nodes, id)

	// Submit to a node that is NOT the owner, so the request must hop.
	var submitter *testNode
	for _, n := range nodes {
		if n != owner {
			submitter = n
			break
		}
	}
	code, cr := submit(t, submitter.url, req)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit via non-owner: status %d (%+v)", code, cr)
	}
	if cr.ID != id {
		t.Fatalf("forwarded submission id %s, want %s", cr.ID, id)
	}
	if got := submitter.s.mForwards.Value(); got < 1 {
		t.Errorf("submitter forwarded %v requests, want >= 1", got)
	}
	final := waitDone(t, submitter.url, id)
	if final.Status != StatusDone {
		t.Fatalf("final: %+v", final)
	}

	// The job ran exactly once even though it touched two nodes.
	if got := calls.Load(); got != 1 {
		t.Fatalf("check ran %d times across the cluster, want 1", got)
	}
	// Identical submissions to every node are cache hits now.
	for _, n := range nodes {
		code, cr := submit(t, n.url, req)
		if code != http.StatusOK || !cr.Cached {
			t.Fatalf("identical submission to %s: status %d cached=%v, want 200 cached", n.url, code, cr.Cached)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("check ran %d times after resubmissions, want 1", got)
	}
	// Every node serves the same bytes.
	want, _ := json.Marshal(final.Result)
	for _, n := range nodes {
		var got CheckResponse
		if code := getJSON(t, n.url+"/v1/checks/"+id, &got); code != http.StatusOK {
			t.Fatalf("GET from %s: status %d", n.url, code)
		}
		raw, _ := json.Marshal(got.Result)
		if !bytes.Equal(raw, want) {
			t.Fatalf("node %s serves different bytes:\n  %s\n  %s", n.url, raw, want)
		}
	}
}

// TestClusterVerdictSurvivesOwnerDeath: a settled verdict is
// replicated before it is visible, so killing the owner loses nothing
// — survivors serve the same bytes.
func TestClusterVerdictSurvivesOwnerDeath(t *testing.T) {
	var calls atomic.Int64
	nodes := newTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.Check = instantCheck(&calls)
		cfg.DataDir = t.TempDir()
	})
	req := CheckRequest{Model: clusterModel(2)}
	id := idFor(t, nodes[0], req)
	owner := ownerOf(t, nodes, id)

	if code, _ := submit(t, owner.url, req); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	final := waitDone(t, owner.url, id)
	want, _ := json.Marshal(final.Result)

	owner.kill()
	var survivors []*testNode
	for _, n := range nodes {
		if n != owner {
			survivors = append(survivors, n)
		}
	}
	// Wait until a survivor's failure detector sees the death, so reads
	// stop proxying to the corpse.
	waitCondition(t, 5*time.Second, "failure detection", func() bool {
		return survivors[0].s.cluster.c.AlivePeers() == 1
	})
	for _, n := range survivors {
		var got CheckResponse
		if code := getJSON(t, n.url+"/v1/checks/"+id, &got); code != http.StatusOK {
			t.Fatalf("GET from survivor %s after owner death: status %d", n.url, code)
		}
		if got.Status != StatusDone {
			t.Fatalf("survivor %s: status %s, want done", n.url, got.Status)
		}
		raw, _ := json.Marshal(got.Result)
		if !bytes.Equal(raw, want) {
			t.Fatalf("survivor %s changed the verdict:\n  before: %s\n  after:  %s", n.url, want, raw)
		}
	}
}

// TestClusterShadowPromotion: an accepted-but-unsettled job survives
// its owner's death — the replica holding the shadowed acceptance
// promotes it once the owner is declared dead and settles it under
// the original id.
func TestClusterShadowPromotion(t *testing.T) {
	g := newGate()
	released := false
	defer func() {
		if !released {
			close(g.release)
		}
	}()
	nodes := newTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.Check = g.check
		cfg.DataDir = t.TempDir()
	})
	req := CheckRequest{Model: clusterModel(3)}
	id := idFor(t, nodes[0], req)
	owner := ownerOf(t, nodes, id)

	if code, _ := submit(t, owner.url, req); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-g.started // the owner's worker is inside the check

	// The acceptance was replicated synchronously before the 202, so a
	// replica must already hold the shadow.
	shadowHolders := 0
	for _, n := range nodes {
		if n == owner {
			continue
		}
		n.s.cluster.mu.Lock()
		_, ok := n.s.cluster.shadows[id]
		n.s.cluster.mu.Unlock()
		if ok {
			shadowHolders++
		}
	}
	if shadowHolders == 0 {
		t.Fatal("no replica holds the accepted job's shadow")
	}

	owner.kill()
	// A replica detects the death, promotes the shadow, and its worker
	// blocks on the gate in turn.
	select {
	case <-g.started:
	case <-time.After(10 * time.Second):
		t.Fatal("no surviving node promoted the shadowed job")
	}
	released = true
	close(g.release)

	var survivor *testNode
	for _, n := range nodes {
		if n != owner {
			survivor = n
			break
		}
	}
	final := waitDone(t, survivor.url, id)
	if final.Status != StatusDone {
		t.Fatalf("promoted job settled %s (%s), want done", final.Status, final.Error)
	}
}

// TestClusterWorkStealing: an idle node relieves an overloaded peer —
// the stolen job settles on the victim (who owns the client promise)
// while the victim's only worker is still busy.
func TestClusterWorkStealing(t *testing.T) {
	g := newGate()
	var thiefCalls atomic.Int64
	nodes := newTestCluster(t, 2, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Workers = 1
			cfg.QueueDepth = 8
			cfg.Check = g.check // victim: blocked until released
		} else {
			cfg.Check = instantCheck(&thiefCalls) // thief: instant
		}
	})
	victim := nodes[0]

	// Submit with the loop guard set so every job is handled locally on
	// the victim regardless of ring placement.
	localSubmit := func(bound int) string {
		body, _ := json.Marshal(CheckRequest{Model: clusterModel(bound)})
		hreq, _ := http.NewRequest(http.MethodPost, victim.url+"/v1/checks", bytes.NewReader(body))
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set(forwardHeader, "test")
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var cr CheckResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("local submit: status %d", resp.StatusCode)
		}
		return cr.ID
	}

	first := localSubmit(10) // occupies the single worker
	<-g.started
	queued := []string{localSubmit(11), localSubmit(12)}

	// The idle peer steals and settles the queued jobs while the
	// victim's worker is still stuck.
	for _, id := range queued {
		id := id
		waitCondition(t, 10*time.Second, "stolen job "+id, func() bool {
			var cr CheckResponse
			getJSON(t, victim.url+"/v1/checks/"+id, &cr)
			return cr.Status == StatusDone
		})
	}
	if got := victim.s.mSteals.Value("victim"); got < 2 {
		t.Errorf("victim handed out %v jobs, want >= 2", got)
	}
	if got := nodes[1].s.mSteals.Value("thief"); got < 2 {
		t.Errorf("thief completed %v stolen jobs, want >= 2", got)
	}
	if got := thiefCalls.Load(); got < 2 {
		t.Errorf("thief ran %d checks, want >= 2", got)
	}

	close(g.release)
	if final := waitDone(t, victim.url, first); final.Status != StatusDone {
		t.Fatalf("blocked job settled %s, want done", final.Status)
	}
}

// TestClusterReadProxyLoopGuard: a forwarded read that misses on the
// receiver answers 404 instead of bouncing around the ring forever.
func TestClusterReadProxyLoopGuard(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	hreq, _ := http.NewRequest(http.MethodGet, nodes[0].url+"/v1/checks/00000000000000000000000000000000", nil)
	hreq.Header.Set(forwardHeader, nodes[1].url)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("guarded miss: status %d, want 404", resp.StatusCode)
	}
	// An unguarded miss for an unknown id also ends at 404 after asking
	// the other node once.
	if code := getJSON(t, nodes[0].url+"/v1/checks/11111111111111111111111111111111", nil); code != http.StatusNotFound {
		t.Fatalf("cluster-wide miss: status %d, want 404", code)
	}
}

// TestClusterShadowReplayAfterCrash: a replica that crashes while
// holding a peer-owned acceptance rebuilds the shadow (not a live
// job) from its journal on restart.
func TestClusterShadowReplayAfterCrash(t *testing.T) {
	g := newGate()
	defer close(g.release)
	dirs := make([]string, 3)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	nodes := newTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.Check = g.check
		cfg.DataDir = dirs[i]
	})
	req := CheckRequest{Model: clusterModel(4)}
	id := idFor(t, nodes[0], req)
	owner := ownerOf(t, nodes, id)
	if code, _ := submit(t, owner.url, req); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-g.started

	var replica *testNode
	var replicaIdx int
	for i, n := range nodes {
		if n == owner {
			continue
		}
		n.s.cluster.mu.Lock()
		_, ok := n.s.cluster.shadows[id]
		n.s.cluster.mu.Unlock()
		if ok {
			replica, replicaIdx = n, i
			break
		}
	}
	if replica == nil {
		t.Fatal("no replica holds the shadow")
	}

	// Crash the replica (not the owner) and restart it on its data dir
	// with the same identity.
	replica.ht.Close()
	replica.s.stopCluster()
	replica.s.cancel()
	replica.s.closeDurable()
	replica.killed = true

	var peers []string
	for _, n := range nodes {
		if n != replica {
			peers = append(peers, n.url)
		}
	}
	s2 := New(Config{
		Workers:              2,
		Check:                g.check,
		DataDir:              dirs[replicaIdx],
		ClusterSelf:          replica.url,
		ClusterPeers:         peers,
		Replication:          2,
		ClusterProbeInterval: 20 * time.Millisecond,
		Log:                  log.New(io.Discard, "", 0),
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Drain(ctx)
		s2.Close()
	}()

	s2.cluster.mu.Lock()
	_, isShadow := s2.cluster.shadows[id]
	s2.cluster.mu.Unlock()
	if !isShadow {
		t.Fatal("restarted replica did not rebuild the shadow from its journal")
	}
	s2.mu.Lock()
	_, isLive := s2.inflight[id]
	s2.mu.Unlock()
	if isLive {
		t.Fatal("restarted replica re-enqueued a peer-owned job as its own")
	}
}

// TestHealthzDegraded (ISSUE satellite): /healthz reports "degraded"
// — still HTTP 200 — once a durable daemon falls back to memory-only,
// and "ok" when memory-only was the configuration.
func TestHealthzDegraded(t *testing.T) {
	// Memory-only by choice: healthy, with the structured body naming
	// each subsystem's state.
	_, ht := newTestServer(t, Config{Workers: 1, Check: newInstantOK()})
	var hz HealthzResponse
	if code := getJSON(t, ht.URL+"/healthz", &hz); code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("memory-only healthz: %d %q, want 200 ok", code, hz.Status)
	}
	if hz.Journal.Status != "off" || hz.Cluster.Status != "off" || hz.Watch.Status != "ok" {
		t.Fatalf("memory-only subsystems = journal %q cluster %q watch %q, want off/off/ok",
			hz.Journal.Status, hz.Cluster.Status, hz.Watch.Status)
	}

	// Durable daemon: healthy until the disk dies, degraded after —
	// and the structured body pins the degradation on the journal.
	restore := resilience.InjectFaults(map[string]resilience.Fault{
		"journal/append": resilience.FaultExhaust,
	})
	defer restore()
	s2, ht2 := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir(), Check: newInstantOK()})
	if code := getJSON(t, ht2.URL+"/healthz", &hz); code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("durable healthz before failure: %d %q, want 200 ok", code, hz.Status)
	}
	if hz.Journal.Status != "active" {
		t.Fatalf("durable journal status = %q, want active", hz.Journal.Status)
	}
	_, cr := submit(t, ht2.URL, CheckRequest{Model: counterModel})
	waitDone(t, ht2.URL, cr.ID)
	if !s2.durable.failed.Load() {
		t.Fatal("injected journal fault did not trip the durability layer")
	}
	if code := getJSON(t, ht2.URL+"/healthz", &hz); code != http.StatusOK || hz.Status != "degraded" {
		t.Fatalf("degraded healthz: %d %q, want 200 degraded", code, hz.Status)
	}
	if hz.Journal.Status != "degraded" {
		t.Fatalf("degraded journal status = %q, want degraded", hz.Journal.Status)
	}
}

// newInstantOK is instantCheck without a shared counter.
func newInstantOK() CheckFunc {
	var n atomic.Int64
	return instantCheck(&n)
}

// TestClusterMetricsExposed (ISSUE satellite): the cluster metric
// families are present even in single-node mode, and carry real
// values in cluster mode.
func TestClusterMetricsExposed(t *testing.T) {
	var calls atomic.Int64
	nodes := newTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.Check = instantCheck(&calls)
	})
	// Drive one forwarded submission.
	req := CheckRequest{Model: clusterModel(20)}
	id := idFor(t, nodes[0], req)
	owner := ownerOf(t, nodes, id)
	other := nodes[0]
	if other == owner {
		other = nodes[1]
	}
	submit(t, other.url, req)
	// Wait on the owner: a status read on the submitter that lands
	// before the settlement has replicated there is proxied to the
	// owner — a second forward that would make the count below depend
	// on timing.
	waitDone(t, owner.url, id)

	// The healthy-peer gauge follows the failure detector, which may be
	// mid-probe-round on a loaded machine: wait (bounded) for it to
	// read the one live peer before asserting on the scrape.
	scrape := func() string {
		resp, err := http.Get(owner.url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return string(raw)
	}
	text := scrape()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(text, "verdictd_cluster_peers_healthy 1") && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		text = scrape()
	}
	for _, want := range []string{
		"verdictd_cluster_peers_healthy 1",
		`verdictd_cluster_replications_total{result="ok"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("owner /metrics missing %q:\n%s", want, grepMetric(text, "verdictd_cluster"))
		}
	}
	resp2, err := http.Get(other.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw2, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(raw2), "verdictd_cluster_forwards_total 1") {
		t.Errorf("submitter /metrics missing forward count:\n%s", grepMetric(string(raw2), "verdictd_cluster"))
	}
}

// TestClusterRejoinAdoptsFleetVerdict: divergence resolution. A node
// rejoining with a settlement the fleet never saw published (it died
// between settling and replicating, and the fleet re-derived the job)
// must adopt the fleet's bytes; the continuously-live node keeps its.
func TestClusterRejoinAdoptsFleetVerdict(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	id := "cafe" + strings.Repeat("0", 28)
	fleet := storedJob{Status: StatusFailed, Error: "fleet version"}
	stale := storedJob{Status: StatusFailed, Error: "stale version"}
	nodes[1].s.adoptSettled(id, fleet, false) // the bytes clients observed
	nodes[0].s.adoptSettled(id, stale, false) // a never-published replayed copy

	nodes[0].s.reconcileSettled()

	snap, ok := nodes[0].s.settledSnapshot(id)
	if !ok || snap.Error != "fleet version" {
		t.Fatalf("rejoining node kept %+v (ok=%v), want the fleet version", snap, ok)
	}
	snap, ok = nodes[1].s.settledSnapshot(id)
	if !ok || snap.Error != "fleet version" {
		t.Fatalf("live node's pinned bytes changed to %+v (ok=%v)", snap, ok)
	}
	// The id now reads identically from both nodes.
	var a, b CheckResponse
	getJSON(t, nodes[0].url+"/v1/checks/"+id, &a)
	getJSON(t, nodes[1].url+"/v1/checks/"+id, &b)
	if a.Error != b.Error || a.Error != "fleet version" {
		t.Fatalf("nodes still diverge: %q vs %q", a.Error, b.Error)
	}
}

// benchSubmitSettle drives one distinct job through base and waits
// for it to settle, returning false on any unexpected status.
func benchSubmitSettle(b *testing.B, base string, bound int) bool {
	b.Helper()
	body, _ := json.Marshal(CheckRequest{Model: clusterModel(bound)})
	resp, err := http.Post(base+"/v1/checks", "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	var cr CheckResponse
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil || cr.ID == "" {
		return false
	}
	for {
		resp, err := http.Get(base + "/v1/checks/" + cr.ID + "?wait=1")
		if err != nil {
			return false
		}
		err = json.NewDecoder(resp.Body).Decode(&cr)
		resp.Body.Close()
		if err != nil {
			return false
		}
		if cr.Status == StatusDone || cr.Status == StatusFailed {
			return cr.Status == StatusDone
		}
	}
}

// BenchmarkClusterThroughput prices the cluster tax: the same durable
// submit→settle round trip against one node and against a 3-node
// fleet (where each submission may hop to its ring owner and every
// acceptance + settlement replicates to a second node before it is
// visible). Stub check, so routing and replication are the only
// variables.
func BenchmarkClusterThroughput(b *testing.B) {
	for _, nNodes := range []int{1, 3} {
		b.Run(fmt.Sprintf("%dnode", nNodes), func(b *testing.B) {
			var calls atomic.Int64
			var nodes []*testNode
			if nNodes == 1 {
				s := New(Config{Workers: 2, Check: instantCheck(&calls), DataDir: b.TempDir(),
					Log: log.New(io.Discard, "", 0)})
				ht := httptest.NewServer(s.Handler())
				b.Cleanup(func() {
					ht.Close()
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					s.Drain(ctx)
					s.Close()
				})
				nodes = []*testNode{{s: s, ht: ht, url: ht.URL}}
			} else {
				nodes = newTestCluster(b, nNodes, func(i int, cfg *Config) {
					cfg.Check = instantCheck(&calls)
					cfg.DataDir = b.TempDir()
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !benchSubmitSettle(b, nodes[i%len(nodes)].url, i+1) {
					b.Fatal("job did not settle")
				}
			}
		})
	}
}
