package server

import (
	"encoding/json"
	"errors"
	"time"

	"verdict/internal/mc"
	"verdict/internal/resilience"
)

// This file is verdictd's job lifecycle: one explicit state machine
// and the only code that moves a job through it. A job's phase
// changes in transition and nowhere else; every settlement — a local
// run, a deadline cancellation, a peer's replicated verdict, the
// fleet's verdict adopted at rejoin, a replayed request that no longer
// compiles — goes through settle; every queue entry for work a client
// already holds an id for goes through enqueue. DESIGN.md §8 has the
// phase × event table.

// phase is where a job stands in its lifecycle. The zero value is
// phaseShadow, so a freshly built job is not runnable until an event
// queues it.
type phase uint8

const (
	// phaseShadow: built, not runnable here — a fresh submission before
	// admission, a replayed or promoted acceptance before it is queued,
	// or a bare id a peer's settlement is about to fill in.
	phaseShadow phase = iota
	// phaseQueued: in the fair scheduler, waiting for a worker.
	phaseQueued
	// phaseRunning: a worker (or a watch verify pass) is checking it.
	phaseRunning
	// phaseStolen: handed to an idle peer; still promised here, with a
	// watchdog that re-queues it if the thief never settles it.
	phaseStolen
	// phaseSealed: one settler has claimed the outcome and is
	// replicating and persisting it; every other settler backs off.
	phaseSealed
	// phasePublished: settled and visible; done is closed.
	phasePublished
	numPhases
)

// event is an input to the lifecycle state machine.
type event uint8

const (
	evQueue   event = iota // admission or promotion: Shadow → Queued
	evStart                // worker pickup: Queued → Running
	evSteal                // handed to a thief: Queued → Stolen
	evRequeue              // the thief never came home: Stolen → Queued
	evSeal                 // claim the settlement: any unsettled phase → Sealed
	evPublish              // make the settlement visible: Sealed → Published
	evRestore              // read back from the result store: Shadow → Published
	numEvents
)

// Illegal transitions, one sentinel per phase an event requires.
var (
	errNotShadow     = errors.New("job is not a shadow")
	errNotQueued     = errors.New("job is not queued")
	errNotStolen     = errors.New("job is not out on a steal")
	errAlreadySealed = errors.New("job is already sealed")
	errNotSealed     = errors.New("job is not sealed")
	errDraining      = errors.New("draining: not queueing work")
	errDuplicate     = errors.New("id already in flight")
)

// lifecycle is the transition table: for each event, the phases it is
// legal in, the phase it leads to, and the error it returns elsewhere.
var lifecycle = [numEvents]struct {
	from uint8 // bitset of phases
	to   phase
	err  error
}{
	evQueue:   {1 << phaseShadow, phaseQueued, errNotShadow},
	evStart:   {1 << phaseQueued, phaseRunning, errNotQueued},
	evSteal:   {1 << phaseQueued, phaseStolen, errNotQueued},
	evRequeue: {1 << phaseStolen, phaseQueued, errNotStolen},
	evSeal:    {1<<phaseShadow | 1<<phaseQueued | 1<<phaseRunning | 1<<phaseStolen, phaseSealed, errAlreadySealed},
	evPublish: {1 << phaseSealed, phasePublished, errNotSealed},
	evRestore: {1 << phaseShadow, phasePublished, errNotShadow},
}

// transition applies ev to j: the one place a job's phase changes. An
// illegal event returns its sentinel and leaves j untouched. Callers
// hold Server.mu once j is reachable from another goroutine.
func (j *job) transition(ev event) error {
	t := lifecycle[ev]
	if t.from&(1<<j.phase) == 0 {
		return t.err
	}
	j.phase = t.to
	return nil
}

// status renders the phase as the wire status. A published job is done
// exactly when it carries a result. Callers hold Server.mu.
func (j *job) status() string {
	switch j.phase {
	case phaseRunning, phaseSealed:
		return StatusRunning
	case phasePublished:
		if j.result != nil {
			return StatusDone
		}
		return StatusFailed
	}
	return StatusQueued
}

// newJob builds a job from a compiled request. It is born Shadow;
// the caller queues or runs it.
func newJob(id string, cr *compiled, reqJSON json.RawMessage, owner, tenant string, class int) *job {
	return &job{id: id, key: cr.key, owner: owner, tenant: tenant, class: class,
		sys: cr.sys, phi: cr.phi, opts: cr.opts, pol: cr.pol, abs: cr.abs,
		reqJSON: reqJSON, done: make(chan struct{})}
}

// accept makes a fresh acceptance durable before the caller
// acknowledges it: journaled (fsync'd) here and pushed to the replica
// set, so neither a crash nor the death of this node can lose a job a
// client holds the id of. The request bytes are passed explicitly: a
// fast worker may publish the job (and drop its request) first.
func (s *Server) accept(j *job, reqJSON json.RawMessage) {
	s.persistAccepted(j.id, reqJSON, j.owner, j.tenant)
	s.replicateAccept(j, reqJSON)
}

// compileJournaled decodes and compiles request bytes that were
// accepted earlier — a journaled acceptance, a shadow, a stolen job.
func (s *Server) compileJournaled(reqJSON json.RawMessage) (*compiled, error) {
	var req CheckRequest
	if err := json.Unmarshal(reqJSON, &req); err != nil {
		return nil, err
	}
	return s.compile(req)
}

// admitJournaled rebuilds a job from accepted request bytes under its
// original id and queues it. A nil job means the bytes no longer
// compile (the error says why); a non-nil job with an error was built
// but not queued.
func (s *Server) admitJournaled(id string, reqJSON json.RawMessage, owner, tenant string) (*job, error) {
	cr, err := s.compileJournaled(reqJSON)
	if err != nil {
		return nil, err
	}
	if cr.id != id {
		// The content address is derived from the request, so this
		// means the addressing scheme changed between versions. Honor
		// the journaled id — it is the one the client holds.
		s.cfg.Log.Printf("journaled job %s recompiles to %s; keeping the journaled id", id, cr.id)
	}
	ten := s.tenants.lookup(tenant)
	j := newJob(id, cr, reqJSON, owner, ten.name, ten.class)
	j.acceptedAt = time.Now()
	return j, s.enqueue(j, evQueue)
}

// enqueue puts work a client already holds an id for back in its
// tenant's fair queue: a replayed acceptance, a promoted shadow
// (evQueue), or a stolen job that never came home (evRequeue). Force,
// not Push: admission caps apply to new traffic only, and replay may
// queue more than QueueDepth jobs — but the job still lands in its
// tenant's queue, so a restart does not let one tenant's backlog jump
// ahead of everyone else's.
func (s *Server) enqueue(j *job, ev event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errDraining
	}
	if cur, ok := s.inflight[j.id]; ok && cur != j {
		return errDuplicate
	}
	if err := j.transition(ev); err != nil {
		return err
	}
	s.inflight[j.id] = j
	s.sched.Force(j, s.tenants.lookup(j.tenant).weight)
	return nil
}

// deadlinePassed reports whether a propagated deadline has expired
// and otherwise clamps the check's wall clock to the remaining budget:
// a check cannot outlive the deadline its client stopped waiting at.
func deadlinePassed(deadline time.Time, opts *mc.Options) bool {
	if deadline.IsZero() {
		return false
	}
	rem := time.Until(deadline)
	if rem <= 0 {
		return true
	}
	if rem < opts.Timeout {
		opts.Timeout = rem
	}
	return false
}

// settle makes snap the job's final outcome: claim the seal, replicate
// (adopting a replica's bytes on conflict), journal, store, publish.
// res is what snap's Result decodes to, passed alongside so a local
// settlement costs no JSON round-trip. It reports false when another
// settler sealed the job first; its bytes stand and snap is dropped.
//
// Durability before visibility: the outcome is on the replica set,
// journaled, and in the result store before any client can observe
// it, so a settled verdict survives both a crash and the death of this
// node byte-identically. Replication runs first because it doubles as
// conflict detection: if a replica already pinned different bytes for
// this id (the fleet settled it while this node was partitioned or
// restarting), those bytes were published and these were not — adopt
// them. Only a settlement computed here replicates; one that arrived
// from a peer is already on the fleet, and a replay-time one is
// reconciled at cluster join.
func (s *Server) settle(j *job, snap storedJob, res *mc.Result, replicate bool) bool {
	s.mu.Lock()
	err := j.transition(evSeal)
	s.mu.Unlock()
	if err != nil {
		return false
	}
	if replicate {
		if remote, conflict := s.replicateSettled(j.id, snap); conflict {
			if dec, ok := settledJob(j.id, remote); ok {
				snap, res = remote, dec.result
			}
		}
	}
	s.persistSettled(j.id, snap)
	s.publish(j, snap, res)
	return true
}

// publish makes a sealed, persisted settlement visible: the job moves
// from the in-flight table to the finished cache and its done channel
// closes. Only settle calls it.
func (s *Server) publish(j *job, snap storedJob, res *mc.Result) {
	s.mu.Lock()
	j.transition(evPublish) // sealed by settle: cannot fail
	j.errMsg = snap.Error
	if snap.Status == StatusDone {
		j.result = res
	}
	if s.inflight[j.id] == j {
		delete(s.inflight, j.id)
	}
	// Settled jobs only serve status/error/result, so drop the parsed
	// system, formula, and request before caching — CacheSize entries
	// of large models would otherwise stay pinned in memory.
	j.sys, j.phi, j.reqJSON, j.abs = nil, nil, nil, nil
	j.opts, j.pol = mc.Options{}, resilience.RetryPolicy{}
	s.finished.Add(j.id, j)
	s.mu.Unlock()
	close(j.done)
	s.removeShadow(j.id)
}

// adoptSettled installs a settlement computed elsewhere. A peer's push
// (overwrite false) never replaces a verdict already pinned here, so
// the first settlement of an id wins everywhere it landed. Rejoin
// reconciliation (overwrite true) is the single deliberate exception:
// this node's copy predates a fleet re-derivation it slept through,
// and the fleet's bytes are the ones clients observed. An in-flight
// job for id (a stolen job coming home, or a race with local
// execution) settles with these bytes; otherwise a bare job carries
// them.
func (s *Server) adoptSettled(id string, snap storedJob, overwrite bool) {
	s.removeShadow(id)
	// Validate like a store read, so a garbage push can neither
	// settle nor overwrite anything.
	dec, ok := settledJob(id, snap)
	if !ok {
		return
	}
	s.mu.Lock()
	j, live := s.inflight[id]
	s.mu.Unlock()
	if !live {
		if !overwrite && s.isSettledLocally(id) {
			return
		}
		j = &job{id: id, done: make(chan struct{})}
	}
	s.settle(j, snap, dec.result, false)
}
