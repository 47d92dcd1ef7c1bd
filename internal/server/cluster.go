package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"verdict/internal/cluster"
	"verdict/internal/journal"
)

// This file is verdictd's cluster mode: the wiring between the
// serving core and internal/cluster that turns N independent daemons
// into one fault-tolerant verification service.
//
// Routing. Every job's identity is its content address, and the
// consistent-hash ring maps every address to an owning node. A
// submission landing on a non-owner is forwarded (proxied) to the
// owner, so the owner's singleflight and result cache dedup identical
// work cluster-wide. The X-Verdict-Forwarded header is the loop
// guard: a forwarded request is never forwarded again, whatever the
// receiving node thinks the ring looks like — at worst a stale view
// costs one extra hop, never a cycle.
//
// Replication. Acceptance and settlement both replicate to the R-1
// ring successors of the job's address *before* the client can
// observe them: an accepted job is journaled on R nodes before the
// 202, and a settled verdict is journaled + stored on R nodes before
// the verdict becomes visible. Either can therefore survive the
// owner's death. Replicas hold peer-owned acceptances as "shadows" —
// journaled but not executed — and promote them to real local jobs
// only when the failure detector declares the owner dead.
//
// Reads. GET /v1/checks/{id} that misses locally is proxied around
// the id's replica set (owner first), so a client can ask any node
// for any verdict.
//
// Work stealing. An idle node polls a random healthy peer's
// /v1/cluster/steal; an overloaded peer hands over one queued job,
// the thief runs it and pushes the settled snapshot back. The victim
// keeps the job journaled and re-enqueues it if the thief vanishes.

// forwardHeader marks a request that already made one routing hop.
const forwardHeader = "X-Verdict-Forwarded"

// stealInterval is how often an idle node goes looking for work.
const stealInterval = 250 * time.Millisecond

// clusterState bundles the routing brain with the server-side pieces:
// HTTP clients, the shadow table, and the rebalance trigger.
type clusterState struct {
	c *cluster.Cluster
	// push is the short-deadline client for replication and steal
	// polls; proxy has no global timeout because forwarded requests
	// (long-poll status reads) are bounded by their own context.
	push  *http.Client
	proxy *http.Client

	// mu guards shadows: peer-owned acceptances held as Shadow-phase
	// jobs — just the journaled request, owner and tenant, enough to
	// re-journal one at compaction and to promote it if the owner
	// dies. They are never mutated; promotion builds a fresh job from
	// the bytes.
	mu      sync.Mutex
	shadows map[string]*job

	rebalance chan struct{} // coalesced rebalance kicks
	rng       *rand.Rand
	rngMu     sync.Mutex
}

// Wire messages for the /v1/cluster/* internal endpoints. Deadlines
// travel as remaining milliseconds, not wall-clock instants, so nodes
// need no clock agreement; older nodes ignore the extra fields.
type clusterAcceptMsg struct {
	ID         string          `json:"id"`
	Owner      string          `json:"owner"`
	Request    json.RawMessage `json:"request"`
	Tenant     string          `json:"tenant,omitempty"`
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
}

type clusterReplicateMsg struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

type clusterStealMsg struct {
	ID         string          `json:"id"`
	Request    json.RawMessage `json:"request"`
	Tenant     string          `json:"tenant,omitempty"`
	Class      string          `json:"class,omitempty"`
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
}

// remainingMS renders a job deadline as the budget left on the wire;
// 0 means no deadline. Expired deadlines clamp to 1ms — the receiver
// should learn the deadline exists and cancel, not treat it as
// absent.
func remainingMS(deadline time.Time) int64 {
	if deadline.IsZero() {
		return 0
	}
	ms := time.Until(deadline).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// initCluster builds the cluster state from the config. A bad
// cluster config degrades to single-node mode with a loud log line —
// the same availability-over-everything stance as a bad data dir.
func (s *Server) initCluster(cfg Config) {
	c, err := cluster.New(cluster.Config{
		Self:          cfg.ClusterSelf,
		Peers:         cfg.ClusterPeers,
		Replication:   cfg.Replication,
		ProbeInterval: cfg.ClusterProbeInterval,
		OnChange: func(node string, st cluster.State) {
			cfg.Log.Printf("cluster: peer %s is now %s", node, st)
			s.kickRebalance()
		},
	})
	if err != nil {
		cfg.Log.Printf("cluster: %v; running single-node", err)
		return
	}
	s.cluster = &clusterState{
		c:         c,
		push:      &http.Client{Timeout: 2 * time.Second},
		proxy:     &http.Client{},
		shadows:   make(map[string]*job),
		rebalance: make(chan struct{}, 1),
		rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// startCluster launches probing and the background loops; called
// from New after journal replay so rebalancing sees restored state.
// Replayed verdicts are reconciled against the live fleet BEFORE the
// loops start (and before the caller begins serving): a restarting
// node's journal may hold a settlement that never reached its
// replicas — the fleet re-derived the job while we were down, and the
// fleet's bytes are the ones clients observed.
func (s *Server) startCluster() {
	cs := s.cluster
	if cs == nil {
		return
	}
	cs.c.Start()
	s.reconcileSettled()
	go s.stealLoop()
	go s.rebalanceLoop()
	s.cfg.Log.Printf("cluster: %s joined %d-node fleet (replication %d)",
		cs.c.Self(), len(cs.c.Members()), cs.c.Replication())
}

// reconcileSettled pushes every locally pinned verdict to its replica
// set and defers to any conflicting snapshot a replica answers with.
// Runs synchronously at (re)join, bounded by the push client's
// timeout: unreachable peers (a whole-fleet cold start) fail fast and
// leave the local copy standing.
func (s *Server) reconcileSettled() {
	if _, adopted := s.repushSettled(true); adopted > 0 {
		s.cfg.Log.Printf("cluster: rejoin reconciliation adopted %d verdict(s) the fleet settled while this node was down", adopted)
	}
}

// repushSettled pushes every locally pinned verdict to its current
// replica set, eight at a time; idempotent on the receivers. adopt
// says what a 409 conflict means: a (re)joining node defers to the
// replica's snapshot, while a continuously-live node keeps the bytes
// its clients observed.
func (s *Server) repushSettled(adopt bool) (pushed int, adopted int64) {
	cs := s.cluster
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	var nAdopted atomic.Int64
	for _, id := range s.settledKeys() {
		if !slices.ContainsFunc(cs.c.Replicas(id), func(n string) bool { return !cs.c.IsSelf(n) }) {
			continue
		}
		snap, ok := s.settledSnapshot(id)
		if !ok {
			continue
		}
		pushed++
		wg.Add(1)
		sem <- struct{}{}
		go func(id string, snap storedJob) {
			defer wg.Done()
			defer func() { <-sem }()
			if remote, conflict := s.replicateSettled(id, snap); conflict && adopt {
				s.adoptSettled(id, remote, true)
				nAdopted.Add(1)
			}
		}(id, snap)
	}
	wg.Wait()
	return pushed, nAdopted.Load()
}

func (s *Server) stopCluster() {
	if s.cluster != nil {
		s.cluster.c.Stop()
	}
}

func (s *Server) kickRebalance() {
	cs := s.cluster
	if cs == nil {
		return
	}
	select {
	case cs.rebalance <- struct{}{}:
	default: // a kick is already pending; one pass covers both
	}
}

// --- shadows ---

// addShadow records a peer-owned acceptance unless the id is already
// settled here (then the verdict, not the promise, is what we hold).
func (s *Server) addShadow(id string, req json.RawMessage, owner, tenant string) {
	cs := s.cluster
	if cs == nil || s.isSettledLocally(id) {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.shadows[id] = &job{id: id, reqJSON: req, owner: owner, tenant: tenant}
}

func (s *Server) removeShadow(id string) {
	cs := s.cluster
	if cs == nil {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	delete(cs.shadows, id)
}

// shadowRecords snapshots the shadow table as journal records, for
// compaction's live set.
func (s *Server) shadowRecords() []journal.Record {
	cs := s.cluster
	if cs == nil {
		return nil
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	recs := make([]journal.Record, 0, len(cs.shadows))
	for id, sh := range cs.shadows {
		recs = append(recs, journal.Record{Type: journal.TypeAccepted, ID: id, Request: sh.reqJSON, Owner: sh.owner, Tenant: sh.tenant})
	}
	return recs
}

// isSettledLocally reports whether id has a pinned verdict here, in
// memory or on disk.
func (s *Server) isSettledLocally(id string) bool {
	s.mu.Lock()
	_, inMem := s.finished.Get(id)
	s.mu.Unlock()
	if inMem {
		return true
	}
	if d := s.durable; d != nil {
		if _, ok, _ := d.store.Get(id); ok {
			return true
		}
	}
	return false
}

// --- submission forwarding ---

// maybeForwardSubmit routes a fresh submission to the id's owner.
// Returns true when the response has been written (the forward
// succeeded); false means the caller must handle the job locally —
// either this node owns the id, the request already hopped once, or
// the owner is unreachable (availability beats placement).
func (s *Server) maybeForwardSubmit(w http.ResponseWriter, r *http.Request, id string, body []byte) bool {
	cs := s.cluster
	if cs == nil || r.Header.Get(forwardHeader) != "" {
		return false
	}
	owner := cs.c.Owner(id)
	if cs.c.IsSelf(owner) {
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, owner+"/v1/checks", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardHeader, cs.c.Self())
	// The owner re-runs admission policy (auth, class, quota, brownout,
	// deadline) under its own state, so the tenant headers must survive
	// the hop.
	for _, h := range []string{"Authorization", HeaderClass, HeaderDeadline} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := cs.proxy.Do(req)
	if err != nil {
		s.cfg.Log.Printf("cluster: forwarding %s to owner %s failed (%v); handling locally", id, owner, err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		io.Copy(io.Discard, resp.Body)
		s.cfg.Log.Printf("cluster: owner %s answered %d for %s; handling locally", owner, resp.StatusCode, id)
		return false
	}
	s.mForwards.Inc()
	copyResponse(w, resp)
	return true
}

// proxyRead answers a status/trace read that missed locally by asking
// the id's replica set, owner first. Returns true once a node
// answered with anything but 404.
func (s *Server) proxyRead(w http.ResponseWriter, r *http.Request, id string) bool {
	cs := s.cluster
	if cs == nil || r.Header.Get(forwardHeader) != "" {
		return false
	}
	for _, node := range cs.c.ReadTargets(id) {
		url := node + r.URL.Path
		if r.URL.RawQuery != "" {
			url += "?" + r.URL.RawQuery
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
		if err != nil {
			return false
		}
		req.Header.Set(forwardHeader, cs.c.Self())
		resp, err := cs.proxy.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		s.mForwards.Inc()
		copyResponse(w, resp)
		resp.Body.Close()
		return true
	}
	return false
}

func copyResponse(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	// The owner's admission verdict — which KIND of 429 this is — must
	// reach the client intact, or a terminal quota rejection looks like
	// a retryable queue-full.
	for _, h := range []string{HeaderBrownout, HeaderQuotaReason, HeaderQuotaTenant, HeaderQuotaLimit} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// --- replication ---

// replicateAccept pushes a freshly accepted job to the other members
// of its replica set, synchronously, before the 202 is written: once
// the client holds the id, R nodes hold the promise, and any single
// node can die without losing it. Unreachable replicas are tolerated
// (they are probably dead, which is exactly when blocking acceptance
// would turn a node failure into an outage).
func (s *Server) replicateAccept(j *job, reqJSON json.RawMessage) {
	cs := s.cluster
	if cs == nil {
		return
	}
	body, err := json.Marshal(clusterAcceptMsg{ID: j.id, Owner: cs.c.Self(), Request: reqJSON,
		Tenant: j.tenant, DeadlineMS: remainingMS(j.deadline)})
	if err != nil {
		return
	}
	s.pushToReplicas(j.id, "/v1/cluster/accept", body, j.deadline, nil)
}

// replicateSettled pushes a settled snapshot to the rest of the
// replica set before the verdict becomes visible — the cluster
// extension of "durability before visibility": a verdict a client
// saw is journaled on R nodes, so no single death can un-settle or
// re-derive it.
//
// The round-trip doubles as conflict detection: a replica that
// already pinned DIFFERENT bytes for this id answers 409 with its
// snapshot instead of adopting ours. That happens when this node's
// copy was never published — it settled locally, died before the
// push, and the fleet promoted the job's shadow and settled it again
// — so the replica's version is the one clients may have observed.
// Whether to defer to it is the caller's call: a pre-publication
// settlement (runJob) and a node rejoining the fleet (startup
// reconcile) must adopt the fleet's bytes; a continuously-live node
// re-pushing during rebalance keeps its own.
func (s *Server) replicateSettled(id string, snap storedJob) (conflict storedJob, found bool) {
	if s.cluster == nil {
		return storedJob{}, false
	}
	body, err := json.Marshal(clusterReplicateMsg{ID: id, Status: snap.Status, Error: snap.Error, Result: snap.Result})
	if err != nil {
		return storedJob{}, false
	}
	var mu sync.Mutex
	s.pushToReplicas(id, "/v1/cluster/replicate", body, time.Time{}, func(raw []byte) {
		var msg clusterReplicateMsg
		if json.Unmarshal(raw, &msg) != nil || msg.ID != id {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if !found {
			conflict, found = storedJob{Status: msg.Status, Error: msg.Error, Result: msg.Result}, true
		}
	})
	return conflict, found
}

// pushToReplicas POSTs body to every non-self member of id's replica
// set, in parallel, two attempts each. A non-zero deadline stops the
// retry: past the client's budget nobody is waiting for the 202, so
// burning another RPC on it only deepens the overload. onConflict,
// when set, receives the body of each 409 answer.
func (s *Server) pushToReplicas(id, path string, body []byte, deadline time.Time, onConflict func([]byte)) {
	cs := s.cluster
	var wg sync.WaitGroup
	for _, node := range cs.c.Replicas(id) {
		if cs.c.IsSelf(node) {
			continue
		}
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			var err error
			for attempt := 0; attempt < 2; attempt++ {
				if attempt > 0 && !deadline.IsZero() && time.Now().After(deadline) {
					break
				}
				var conflict []byte
				if conflict, err = cs.post(node+path, body); err == nil {
					s.mReplications.Inc("ok")
					if conflict != nil && onConflict != nil {
						onConflict(conflict)
					}
					return
				}
			}
			s.mReplications.Inc("error")
			s.cfg.Log.Printf("cluster: replicating %s to %s failed: %v", id, node, err)
		}(node)
	}
	wg.Wait()
}

// post delivers one internal message. A 409 is not an error but the
// receiver's own pinned snapshot, returned for the caller to weigh.
func (cs *clusterState) post(url string, body []byte) ([]byte, error) {
	resp, err := cs.push.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		return io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	}
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return nil, nil
}

// --- internal endpoints ---

// handleClusterAccept journals a peer-owned acceptance and shadows
// it: this node now guarantees the job survives the owner's death.
func (s *Server) handleClusterAccept(w http.ResponseWriter, r *http.Request) {
	var msg clusterAcceptMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&msg); err != nil || msg.ID == "" {
		writeError(w, http.StatusBadRequest, "bad accept message")
		return
	}
	s.persistAccepted(msg.ID, msg.Request, msg.Owner, msg.Tenant)
	s.addShadow(msg.ID, msg.Request, msg.Owner, msg.Tenant)
	w.WriteHeader(http.StatusNoContent)
}

// handleClusterReplicate adopts a settled snapshot pushed by a peer:
// journal + store it and make the id servable here. Idempotent — a
// verdict already pinned locally is never overwritten, so the first
// settlement of an id wins everywhere it landed. A push whose bytes
// DIFFER from the local pin is answered 409 + the local snapshot:
// the pusher re-derived a verdict the fleet already published (it
// died or was partitioned between settling and replicating) and must
// defer to the observed bytes, never the other way around.
func (s *Server) handleClusterReplicate(w http.ResponseWriter, r *http.Request) {
	var msg clusterReplicateMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&msg); err != nil || msg.ID == "" {
		writeError(w, http.StatusBadRequest, "bad replicate message")
		return
	}
	incoming := storedJob{Status: msg.Status, Error: msg.Error, Result: msg.Result}
	if local, ok := s.settledSnapshot(msg.ID); ok && !snapshotsEqual(local, incoming) {
		writeJSON(w, http.StatusConflict, clusterReplicateMsg{ID: msg.ID, Status: local.Status, Error: local.Error, Result: local.Result})
		return
	}
	s.adoptSettled(msg.ID, incoming, false)
	w.WriteHeader(http.StatusNoContent)
}

func snapshotsEqual(a, b storedJob) bool {
	return a.Status == b.Status && a.Error == b.Error && bytes.Equal(a.Result, b.Result)
}

// handleClusterSteal hands one queued job to an idle peer. The job
// stays in the in-flight table (the client's promise is ours) with a
// watchdog that re-enqueues it if the thief never settles it.
func (s *Server) handleClusterSteal(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	// Steal hands over bulk work first (class priority): extra fleet
	// capacity goes to the backlog, while latency-sensitive work stays
	// next in line for the local workers.
	j := s.sched.Steal()
	if j == nil || j.transition(evSteal) != nil {
		// Nothing stealable; a queued-but-sealed job goes back to no
		// one (it is already settled).
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	msg := clusterStealMsg{ID: j.id, Request: j.reqJSON, Tenant: j.tenant,
		Class: classLabel(j.class), DeadlineMS: remainingMS(j.deadline)}
	s.mu.Unlock()

	// The thief gets 2x the per-check ceiling to come home before the
	// job goes back in its fair queue here (unless draining: the journal
	// re-enqueues it next boot).
	time.AfterFunc(2*s.cfg.DefaultTimeout+5*time.Second, func() {
		if s.enqueue(j, evRequeue) == nil {
			s.cfg.Log.Printf("cluster: stolen job %s never came home; re-enqueued locally", j.id)
		}
	})
	s.mSteals.Inc("victim")
	writeJSON(w, http.StatusOK, msg)
}

// --- background loops ---

// stealLoop polls a random healthy peer for surplus work whenever the
// local queue is empty.
func (s *Server) stealLoop() {
	ticker := time.NewTicker(stealInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		idle := !s.draining && s.sched.Len() == 0
		s.mu.Unlock()
		if idle {
			s.stealOnce()
		}
	}
}

// stealOnce asks one healthy peer for a job, runs it, and pushes the
// settled snapshot back to the victim (who owns the client promise
// and fans out replication).
func (s *Server) stealOnce() {
	cs := s.cluster
	var peers []string
	for _, n := range cs.c.Members() {
		if !cs.c.IsSelf(n) && cs.c.State(n) == cluster.Alive {
			peers = append(peers, n)
		}
	}
	if len(peers) == 0 {
		return
	}
	cs.rngMu.Lock()
	victim := peers[cs.rng.Intn(len(peers))]
	cs.rngMu.Unlock()

	resp, err := cs.push.Get(victim + "/v1/cluster/steal")
	if err != nil {
		return
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var msg clusterStealMsg
	if err := json.Unmarshal(raw, &msg); err != nil || msg.ID == "" {
		return
	}

	// The stolen job's remaining budget travels with it: an already
	// expired deadline settles as cancelled without burning a worker,
	// and a live one clamps the check's wall clock.
	var deadline time.Time
	if msg.DeadlineMS > 0 {
		deadline = time.Now().Add(time.Duration(msg.DeadlineMS) * time.Millisecond)
	}
	cr, err := s.compileJournaled(msg.Request)
	var snap storedJob
	switch {
	case err != nil:
		snap = storedJob{Status: StatusFailed, Error: fmt.Sprintf("stolen job does not compile: %v", err)}
	case deadlinePassed(deadline, &cr.opts):
		snap = storedJob{Status: StatusFailed, Error: deadlineExpiredMsg}
	default:
		// runCheck keeps stolen abstracted scenarios on the CEGAR
		// pipeline — running the quotient straight through the portfolio
		// would return an unrefined (possibly spurious) verdict.
		res, err := s.runCheck(cr.sys, cr.phi, cr.opts, cr.pol, cr.abs)
		snap, _ = buildSnapshot(res, err)
	}
	body, err := json.Marshal(clusterReplicateMsg{ID: msg.ID, Status: snap.Status, Error: snap.Error, Result: snap.Result})
	if err != nil {
		return
	}
	for attempt := 0; attempt < 3; attempt++ {
		if _, err := cs.post(victim+"/v1/cluster/replicate", body); err == nil {
			s.mSteals.Inc("thief")
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	// The victim's watchdog re-enqueues; the work is wasted, not lost.
	s.cfg.Log.Printf("cluster: could not return stolen job %s to %s", msg.ID, victim)
}

// rebalanceLoop reacts to ring changes: promote shadows this node now
// owns, and re-push local verdicts to their current replica sets.
func (s *Server) rebalanceLoop() {
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.cluster.rebalance:
		}
		s.rebalanceOnce()
	}
}

// rebalanceOnce runs one rebalancing pass.
func (s *Server) rebalanceOnce() {
	cs := s.cluster
	cs.mu.Lock()
	pending := make(map[string]*job, len(cs.shadows))
	for id, sh := range cs.shadows {
		pending[id] = sh
	}
	cs.mu.Unlock()

	promoted := 0
	for id, sh := range pending {
		// Promote only jobs whose accepting owner is dead AND whose
		// current ownership falls to this node — otherwise the owner
		// (or a closer successor) is still responsible.
		if cs.c.State(sh.owner) != cluster.Dead || !cs.c.OwnsLocally(id) {
			continue
		}
		if s.isSettledLocally(id) {
			s.removeShadow(id)
			continue
		}
		if s.promoteShadow(id, sh) {
			promoted++
		}
	}

	// Re-replicate settled verdicts so the current successor set holds
	// every verdict this node does. A 409 conflict is deliberately
	// ignored here — only (re)joining nodes and pre-publication
	// settlements defer (reconcileSettled, settle).
	repushed, _ := s.repushSettled(false)
	if promoted > 0 || repushed > 0 {
		s.cfg.Log.Printf("cluster: rebalance promoted %d shadowed job(s), re-replicated %d verdict(s)", promoted, repushed)
	}
}

// promoteShadow turns a dead peer's acceptance into a live local job
// under its original id.
func (s *Server) promoteShadow(id string, sh *job) bool {
	self := s.cluster.c.Self()
	j, err := s.admitJournaled(id, sh.reqJSON, self, sh.tenant)
	if j == nil {
		s.cfg.Log.Printf("cluster: shadowed job %s does not compile (%v); leaving it journaled", id, err)
	}
	if err != nil {
		return false
	}
	s.removeShadow(id)
	// Re-journal under this node's ownership so a restart re-enqueues
	// it directly instead of re-shadowing it.
	s.persistAccepted(id, sh.reqJSON, self, j.tenant)
	return true
}

// settledKeys lists every locally pinned verdict id: the disk store
// when durable, the in-memory cache otherwise.
func (s *Server) settledKeys() []string {
	if d := s.durable; d != nil && !d.failed.Load() {
		keys, err := d.store.Keys()
		if err == nil {
			return keys
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finished.Keys()
}

// settledSnapshot rebuilds the wire snapshot of a settled id for
// re-replication.
func (s *Server) settledSnapshot(id string) (storedJob, bool) {
	if snap, ok := s.storedSnapshot(id); ok {
		return snap, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.finished.Get(id); ok {
		j := v.(*job)
		snap := storedJob{Status: j.status(), Error: j.errMsg}
		if j.result != nil {
			if raw, err := json.Marshal(j.result); err == nil {
				snap.Result = raw
			}
		}
		if snap.Status == StatusDone && snap.Result == nil {
			return storedJob{}, false
		}
		return snap, true
	}
	return storedJob{}, false
}
