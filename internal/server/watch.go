package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"verdict/internal/incidents"
	"verdict/internal/journal"
	"verdict/internal/watch"
	"verdict/internal/watch/extract"
)

// This file wires the continuous-verification engine (internal/watch)
// into verdictd: session endpoints, an event-ingest endpoint, watch
// metrics, and journal-backed session recovery.
//
//	POST   /v1/watch          create a session → {id}
//	POST   /v1/events         ingest a config-change batch → {seq}
//	GET    /v1/watch/{id}     session status (?wait_seq=N long-polls)
//	DELETE /v1/watch/{id}     close the session (tombstoned in the journal)
//
// Re-checks do not go through the job queue: a watch session's verify
// pass runs synchronously in the session's own goroutine, but through
// the same compile → content-address → cache/singleflight → runJob
// machinery as a POST /v1/checks submission. A dirty re-check whose
// model was ever verified before (by anyone — the source is the cache
// key) is answered from the result cache; a genuinely new model is
// checked, witness-validated, journaled, and replicated exactly like
// a client submission.
//
// Sessions are node-local (not replicated across the cluster), but
// journal-backed: every ingest and every verify pass appends the full
// session snapshot as a TypeWatch record, replay keeps the last
// snapshot per session, and a restart restores every non-closed
// session — re-running an interrupted verify pass against the result
// cache, which makes the replay cheap and incident-duplication-free.

// maxWatchSessions bounds concurrently open sessions (each owns a
// goroutine and a journaled snapshot).
const maxWatchSessions = 64

// WatchCreateRequest is the POST /v1/watch body.
type WatchCreateRequest struct {
	// ID names the session; empty gets a random id. Creating an id
	// that already exists is a conflict.
	ID string `json:"id,omitempty"`
	// DebounceMS is the burst-coalescing window for verify passes.
	DebounceMS int64 `json:"debounce_ms,omitempty"`
	// IncidentLogMax bounds the session's retained incident log
	// (0 = watch.DefaultMaxIncidentLog).
	IncidentLogMax int `json:"incident_log_max,omitempty"`
}

// WatchEventsRequest is the POST /v1/events body.
type WatchEventsRequest struct {
	// Session is the target session id.
	Session string `json:"session"`
	// Events is the config-change batch, applied atomically.
	Events []extract.Event `json:"events"`
}

// WatchEventsResponse acknowledges an ingested batch.
type WatchEventsResponse struct {
	Session string `json:"session"`
	// Seq is the batch's sequence number; GET ?wait_seq=Seq blocks
	// until its verify pass settles.
	Seq uint64 `json:"seq"`
}

// WatchPropResponse is one verified property in a status response.
type WatchPropResponse struct {
	Name    string `json:"name"`
	Detail  string `json:"detail"`
	Verdict string `json:"verdict"`
	Engine  string `json:"engine,omitempty"`
	Witness string `json:"witness,omitempty"`
	Seq     uint64 `json:"seq"`
}

// WatchStatusResponse is the GET /v1/watch/{id} body.
type WatchStatusResponse struct {
	ID          string              `json:"id"`
	Seq         uint64              `json:"seq"`
	VerifiedSeq uint64              `json:"verified_seq"`
	Props       []WatchPropResponse `json:"props,omitempty"`
	Incidents   []incidents.Report  `json:"incidents,omitempty"`
	Counters    watch.Counters      `json:"counters"`
}

// initWatch registers the watch metrics and routes; called from New.
func (s *Server) initWatch() {
	s.watches = make(map[string]*watch.Session)
	s.watchSnaps = make(map[string][]byte)

	s.mWatchEvents = s.reg.Counter("verdictd_watch_events_total", "Config-change events ingested across watch sessions.")
	s.mWatchRechecks = s.reg.Counter("verdictd_watch_rechecks_total", "Properties considered by watch verify passes, by result: run (dirty, re-verified) or skipped (clean, source unchanged).", "result")
	s.mWatchFlips = s.reg.Counter("verdictd_watch_verdict_flips_total", "Settled watch properties that changed verdict.")
	s.mWatchIncidents = s.reg.Counter("verdictd_watch_incidents_total", "Watch properties newly entering violation.")
	s.mWatchCoalesced = s.reg.Counter("verdictd_watch_events_coalesced_total", "Event batches whose individual verification was superseded by a newer revision inside one debounce window.")
	s.gWatchSessions = s.reg.Gauge("verdictd_watch_sessions", "Open watch sessions.")
	s.hWatchLatency = s.reg.Histogram("verdictd_watch_event_verdict_seconds", "End-to-end latency from event ingest to a fully re-verified configuration.",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60})

	s.mux.HandleFunc("POST /v1/watch", s.instrument("/v1/watch", s.handleWatchCreate))
	s.mux.HandleFunc("POST /v1/events", s.instrument("/v1/events", s.handleWatchEvents))
	s.mux.HandleFunc("GET /v1/watch/{id}", s.instrument("/v1/watch/{id}", s.handleWatchStatus))
	s.mux.HandleFunc("DELETE /v1/watch/{id}", s.instrument("/v1/watch/{id}", s.handleWatchDelete))
}

// watchConfig assembles the session config shared by creation and
// journal recovery.
func (s *Server) watchConfig(id string, debounce time.Duration, incidentLogMax int) watch.Config {
	return watch.Config{
		ID:             id,
		Verify:         s.watchVerify,
		Debounce:       debounce,
		MaxIncidentLog: incidentLogMax,
		Persist:        s.persistWatch,
		Hooks: watch.Hooks{
			Events:  func(n int) { s.mWatchEvents.Add(float64(n)) },
			Recheck: func(ran bool) { s.mWatchRechecks.Inc(map[bool]string{true: "run", false: "skipped"}[ran]) },
			Flip:    func() { s.mWatchFlips.Inc() },
			Incident: func(rep incidents.Report) {
				s.mWatchIncidents.Inc()
				s.cfg.Log.Printf("watch %s: INCIDENT seq %d: %s violated — %s", id, rep.Seq, rep.Property, rep.Detail)
			},
			Latency:   func(d time.Duration) { s.hWatchLatency.Observe(d.Seconds()) },
			Coalesced: func(n int) { s.mWatchCoalesced.Add(float64(n)) },
		},
	}
}

// watchVerify decides one extracted property through the daemon's own
// submission machinery: compile, content-address, answer from the
// result cache or an identical in-flight job, else run and settle
// synchronously (journal, replication, witness validation included) —
// everything a POST /v1/checks gets, minus the queue wait.
func (s *Server) watchVerify(ctx context.Context, p extract.Property) watch.Outcome {
	req := CheckRequest{Model: p.Source}
	cr, err := s.compile(req)
	if err != nil {
		return watch.Outcome{Verdict: watch.VerdictFailed, Err: "extracted model does not compile: " + err.Error()}
	}
	reqJSON, err := json.Marshal(req)
	if err != nil {
		return watch.Outcome{Verdict: watch.VerdictFailed, Err: err.Error()}
	}

	s.lookup(cr.id) // warm the LRU from the disk-backed store
	s.mu.Lock()
	j, cached := s.memLookupLocked(cr.id)
	cached = cached && j.status() != StatusFailed
	if !cached {
		// New work: register the job in the in-flight table so
		// concurrent identical submissions (client or watch) collapse
		// onto this run, then execute it on this goroutine — watch
		// re-checks must not compete with clients for queue slots.
		j = newJob(cr.id, cr, reqJSON, s.ownerURL(), "", classInteractive)
		j.transition(evQueue) // a fresh job is a Shadow: cannot fail
		s.inflight[j.id] = j
	}
	s.mu.Unlock()

	if !cached {
		s.accept(j, reqJSON)
		s.runJob(j)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return watch.Outcome{Verdict: watch.VerdictFailed, Err: "session closed mid-verify"}
	}

	s.mu.Lock()
	errMsg, res := j.errMsg, j.result
	s.mu.Unlock()
	if res == nil {
		return watch.Outcome{Verdict: watch.VerdictFailed, Err: errMsg, Cached: cached}
	}
	return watch.Outcome{
		Verdict: res.Status.String(),
		Engine:  res.Engine,
		Witness: res.Witness.String(),
		Cached:  cached,
		Trace:   res.Trace,
	}
}

// ownerURL is this node's advertised URL, empty single-node.
func (s *Server) ownerURL() string {
	if s.cluster != nil {
		return s.cluster.c.Self()
	}
	return ""
}

func (s *Server) handleWatchCreate(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r); !ok {
		return
	}
	var req WatchCreateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	id := req.ID
	if id == "" {
		var buf [8]byte
		if _, err := rand.Read(buf[:]); err != nil {
			writeError(w, http.StatusInternalServerError, "id generation failed")
			return
		}
		id = hex.EncodeToString(buf[:])
	}
	if req.DebounceMS < 0 {
		writeError(w, http.StatusBadRequest, "debounce_ms must be >= 0")
		return
	}
	if req.IncidentLogMax < 0 {
		writeError(w, http.StatusBadRequest, "incident_log_max must be >= 0")
		return
	}

	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting new watch sessions")
		return
	}

	s.watchMu.Lock()
	if _, dup := s.watches[id]; dup {
		s.watchMu.Unlock()
		writeError(w, http.StatusConflict, fmt.Sprintf("watch session %q already exists", id))
		return
	}
	if len(s.watches) >= maxWatchSessions {
		s.watchMu.Unlock()
		writeError(w, http.StatusTooManyRequests, "watch session limit reached")
		return
	}
	sess := watch.New(s.watchConfig(id, time.Duration(req.DebounceMS)*time.Millisecond, req.IncidentLogMax))
	s.watches[id] = sess
	s.watchMu.Unlock()
	s.gWatchSessions.Add(1)
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

func (s *Server) watchSession(id string) (*watch.Session, bool) {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	sess, ok := s.watches[id]
	return sess, ok
}

func (s *Server) handleWatchEvents(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r); !ok {
		return
	}
	var req WatchEventsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	sess, ok := s.watchSession(req.Session)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown watch session")
		return
	}
	seq, err := sess.Ingest(req.Events)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, WatchEventsResponse{Session: req.Session, Seq: seq})
}

func (s *Server) handleWatchStatus(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.watchSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown watch session")
		return
	}
	// ?wait_seq=N blocks until batch N's verify pass settles, bounded
	// by the request context — the long-poll companion to the 202 from
	// /v1/events.
	if q := r.URL.Query().Get("wait_seq"); q != "" {
		seq, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "wait_seq must be an unsigned integer")
			return
		}
		if err := sess.Wait(r.Context(), seq); err != nil {
			writeError(w, http.StatusConflict, err.Error())
			return
		}
	}
	writeJSON(w, http.StatusOK, watchStatusBody(sess.Status()))
}

func watchStatusBody(snap *watch.Snapshot) WatchStatusResponse {
	resp := WatchStatusResponse{
		ID:          snap.ID,
		Seq:         snap.Seq,
		VerifiedSeq: snap.VerifiedSeq,
		Incidents:   snap.Incidents,
		Counters:    snap.Counters,
	}
	for _, p := range snap.Props {
		resp.Props = append(resp.Props, WatchPropResponse{
			Name: p.Name, Detail: p.Detail, Verdict: p.Verdict,
			Engine: p.Engine, Witness: p.Witness, Seq: p.Seq,
		})
	}
	return resp
}

func (s *Server) handleWatchDelete(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r); !ok {
		return
	}
	id := r.PathValue("id")
	s.watchMu.Lock()
	sess, ok := s.watches[id]
	if ok {
		delete(s.watches, id)
	}
	s.watchMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown watch session")
		return
	}
	// Tombstone: the final journaled snapshot carries Closed, so a
	// restart will not resurrect the session; the next compaction
	// drops its records entirely.
	sess.Close(true)
	s.watchMu.Lock()
	delete(s.watchSnaps, id)
	s.watchMu.Unlock()
	s.gWatchSessions.Add(-1)
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "closed"})
}

// persistWatch journals a session snapshot (called by the session with
// its own lock held — never with s.mu or s.watchMu). The latest bytes
// per session are also kept in memory as the compactor's live set.
func (s *Server) persistWatch(snap *watch.Snapshot) {
	raw, err := json.Marshal(snap)
	if err != nil {
		s.cfg.Log.Printf("watch %s: snapshot does not serialize: %v", snap.ID, err)
		return
	}
	s.watchMu.Lock()
	if snap.Closed {
		delete(s.watchSnaps, snap.ID)
	} else {
		s.watchSnaps[snap.ID] = raw
	}
	s.watchMu.Unlock()

	s.appendRecord(journal.Record{Type: journal.TypeWatch, ID: snap.ID, Request: raw})
}

// watchRecords returns the live watch snapshots as journal records
// for compaction: one (the latest) per open session.
func (s *Server) watchRecords() []journal.Record {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	recs := make([]journal.Record, 0, len(s.watchSnaps))
	for id, raw := range s.watchSnaps {
		recs = append(recs, journal.Record{Type: journal.TypeWatch, ID: id, Request: raw})
	}
	return recs
}

// restoreWatches rebuilds sessions from replayed snapshots (last
// record per session id wins; closed snapshots are tombstones).
// Called from replayJournal after job recovery, so an interrupted
// verify pass replays against a warm result cache.
func (s *Server) restoreWatches(snaps map[string]json.RawMessage) {
	for id, raw := range snaps {
		var snap watch.Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			s.cfg.Log.Printf("watch %s: journaled snapshot does not decode (%v); dropping session", id, err)
			continue
		}
		if snap.Closed {
			continue
		}
		s.watchMu.Lock()
		if _, dup := s.watches[id]; dup {
			s.watchMu.Unlock()
			continue
		}
		s.watches[id] = watch.Restore(&snap, s.watchConfig(id, time.Duration(snap.DebounceMS)*time.Millisecond, snap.IncidentLogMax))
		s.watchSnaps[id] = raw
		s.watchMu.Unlock()
		s.gWatchSessions.Add(1)
		s.cfg.Log.Printf("watch %s: session restored from journal (seq %d, verified %d, %d incident(s))",
			id, snap.Seq, snap.VerifiedSeq, len(snap.Incidents))
	}
}

// closeWatches stops every session without tombstoning (their
// journaled snapshots restore them on the next start); called from
// Close.
func (s *Server) closeWatches() {
	s.watchMu.Lock()
	sessions := make([]*watch.Session, 0, len(s.watches))
	for _, sess := range s.watches {
		sessions = append(sessions, sess)
	}
	s.watches = make(map[string]*watch.Session)
	s.watchMu.Unlock()
	for _, sess := range sessions {
		sess.Close(false)
	}
}

// watchSessionCount reports open sessions (healthz).
func (s *Server) watchSessionCount() int {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	return len(s.watches)
}
