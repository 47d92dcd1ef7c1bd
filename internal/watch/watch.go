// Package watch is the continuous-verification engine: it folds a
// stream of cluster config-change events into a declarative
// configuration, extracts the verifiable controller-interaction
// models the configuration parameterizes (internal/watch/extract),
// and re-verifies exactly the properties each change dirties.
//
// The central economy is dirty-set diffing. Every extracted property
// carries a canonical rendered source; after an ingest the session
// re-extracts and compares sources byte-for-byte against the last
// verified snapshot. An unchanged source with a settled verdict is
// skipped — so telemetry ticks, annotations, and config changes that
// do not touch a modeled controller are nearly free, and a stream of
// N events of which K touch verified properties costs exactly K
// re-checks. The re-checks themselves land on verdict's
// content-addressed cache (the source IS the cache key upstream), so
// even a dirty event whose model was seen before is answered from
// cache.
//
// Sessions are crash-recoverable by snapshot: after every ingest and
// every verify pass the session hands its full state (config, per-
// property verdicts, incident log, counters) to a persistence hook;
// Restore rebuilds a live session from the last snapshot and re-kicks
// verification if events were ingested but not yet verified. Incident
// deduplication across restarts falls out of the snapshot pairing:
// any snapshot that contains an incident also contains the updated
// (violated) property state, so replaying the verify can never re-flip
// the same property on the same configuration.
package watch

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"verdict/internal/incidents"
	"verdict/internal/trace"
	"verdict/internal/watch/extract"
)

// Verdicts a property can settle to.
const (
	VerdictHolds    = "holds"
	VerdictViolated = "violated"
	VerdictUnknown  = "unknown"
	VerdictFailed   = "failed"
)

// Outcome is one property verification result.
type Outcome struct {
	// Verdict is one of the Verdict* constants.
	Verdict string `json:"verdict"`
	// Engine names the deciding engine.
	Engine string `json:"engine,omitempty"`
	// Witness is the witness-validation status ("validated",
	// "skipped", ...), as reported by the checker.
	Witness string `json:"witness,omitempty"`
	// Cached reports whether the verdict came from a result cache.
	Cached bool `json:"cached,omitempty"`
	// Trace is the counterexample for violated verdicts.
	Trace *trace.Trace `json:"trace,omitempty"`
	// Err carries the failure description for VerdictFailed.
	Err string `json:"err,omitempty"`
}

// VerifyFunc decides one extracted property. Implementations must be
// safe for concurrent use; the session never calls it with its lock
// held.
type VerifyFunc func(ctx context.Context, p extract.Property) Outcome

// Hooks receive session telemetry; nil funcs are skipped. They are
// called without the session lock and must not block. A verify pass
// calls its hooks before Wait returns for the batches it covers.
type Hooks struct {
	// Events observes ingested events (per event, not per batch).
	Events func(n int)
	// Recheck observes one property considered in a verify pass; ran
	// says whether it was actually verified (dirty) or skipped (clean).
	Recheck func(ran bool)
	// Flip observes a settled property changing verdict.
	Flip func()
	// Incident observes a property newly entering violation.
	Incident func(incidents.Report)
	// Latency observes the ingest→verdict latency of one event batch.
	Latency func(time.Duration)
	// Coalesced observes event batches whose individual verification
	// was skipped because a newer revision superseded them inside one
	// debounce window.
	Coalesced func(n int)
}

// Counters accumulate a session's lifetime statistics.
type Counters struct {
	// Events is the number of ingested events.
	Events uint64 `json:"events"`
	// Runs is the number of property re-checks actually executed.
	Runs uint64 `json:"runs"`
	// Skipped is the number of clean (source-unchanged) re-checks
	// avoided by dirty-set diffing.
	Skipped uint64 `json:"skipped"`
	// Flips is the number of settled-verdict changes.
	Flips uint64 `json:"flips"`
	// Coalesced is the number of superseded event batches merged into
	// a later verify pass.
	Coalesced uint64 `json:"coalesced"`
	// Incidents is the lifetime number of incidents raised. Unlike the
	// incident log, which is bounded to the most recent window, this
	// total never resets — consumers that need "did anything new break
	// since I attached" compare it, not the log length.
	Incidents uint64 `json:"incidents"`
}

// DefaultMaxIncidentLog bounds the in-session incident log when
// Config.MaxIncidentLog is unset. A session watching a flapping
// configuration raises an incident on every flap; without a bound the
// log — each entry carrying a full counterexample trace — grows
// without limit, and every status response and journal snapshot
// serializes all of it. Older incidents were already delivered through
// the Incident hook at the moment they fired; the log keeps the recent
// window for status queries and restart recovery.
const DefaultMaxIncidentLog = 256

// PropState is the last settled verdict of one extracted property.
type PropState struct {
	Name   string `json:"name"`
	Detail string `json:"detail"`
	// Source is the canonical model text the verdict was computed
	// from; byte-equality against a re-extraction is the clean test.
	Source  string `json:"source"`
	Verdict string `json:"verdict"`
	Engine  string `json:"engine,omitempty"`
	Witness string `json:"witness,omitempty"`
	// Seq is the ingest sequence whose configuration produced Source.
	Seq uint64 `json:"seq"`
}

// Snapshot is a session's full persistent state. It is written after
// every ingest and every verify pass, and is sufficient to Restore
// the session after a crash.
type Snapshot struct {
	ID string `json:"id"`
	// Seq is the last ingested event-batch sequence.
	Seq uint64 `json:"seq"`
	// VerifiedSeq is the last sequence whose configuration has been
	// fully verified; Seq > VerifiedSeq means a pass is owed.
	VerifiedSeq uint64                 `json:"verified_seq"`
	Config      *extract.ClusterConfig `json:"config"`
	Props       []PropState            `json:"props,omitempty"`
	Incidents   []incidents.Report     `json:"incidents,omitempty"`
	Counters    Counters               `json:"counters"`
	// Closed marks a deleted session (a tombstone for journal
	// compaction).
	Closed bool `json:"closed,omitempty"`
	// DebounceMS preserves the session's coalescing window across a
	// restore.
	DebounceMS int64 `json:"debounce_ms,omitempty"`
	// IncidentLogMax preserves the session's incident-log bound across
	// a restore (0 = DefaultMaxIncidentLog).
	IncidentLogMax int `json:"incident_log_max,omitempty"`
}

// Config configures a session.
type Config struct {
	// ID names the session (assigned by the caller).
	ID string
	// Verify decides properties. Required.
	Verify VerifyFunc
	// Debounce is how long an ingest waits for follow-up batches
	// before verifying, so bursts coalesce into one pass. Zero means
	// verify immediately.
	Debounce time.Duration
	// MaxIncidentLog bounds the retained incident log (0 =
	// DefaultMaxIncidentLog). The lifetime Counters.Incidents total is
	// unaffected; only the window of full reports kept for status
	// queries and restart recovery shrinks or grows.
	MaxIncidentLog int
	// Hooks receive telemetry.
	Hooks Hooks
	// Persist, when set, receives the session snapshot after every
	// ingest and verify pass (called with the session lock held, in
	// snapshot order).
	Persist func(*Snapshot)
}

// pendingBatch tracks an ingested batch awaiting verification, for
// latency and coalescing accounting.
type pendingBatch struct {
	seq     uint64
	arrived time.Time
}

// Session is one continuous-verification stream.
type Session struct {
	cfg Config

	mu          sync.Mutex
	cluster     *extract.ClusterConfig
	props       map[string]*PropState
	incidentLog []incidents.Report
	counters    Counters
	seq         uint64
	verifiedSeq uint64
	pending     []pendingBatch
	closed      bool
	settled     chan struct{} // closed+replaced on every verify pass

	kick   chan struct{}
	cancel context.CancelFunc
	done   chan struct{}
}

// New starts an empty session.
func New(cfg Config) *Session {
	return resume(cfg, nil)
}

// Restore rebuilds a session from its last snapshot. If the snapshot
// was taken between an ingest and its verify pass (Seq >
// VerifiedSeq), the owed pass runs immediately — upstream result
// caching makes the replayed re-checks cheap, and snapshot/verdict
// pairing makes them incident-duplication-free.
func Restore(snap *Snapshot, cfg Config) *Session {
	return resume(cfg, snap)
}

// maxIncidentLog resolves the configured incident-log bound.
func (s *Session) maxIncidentLog() int {
	if s.cfg.MaxIncidentLog > 0 {
		return s.cfg.MaxIncidentLog
	}
	return DefaultMaxIncidentLog
}

func resume(cfg Config, snap *Snapshot) *Session {
	if cfg.Verify == nil {
		panic("watch: Config.Verify is required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Session{
		cfg:     cfg,
		cluster: extract.NewConfig(),
		props:   map[string]*PropState{},
		settled: make(chan struct{}),
		kick:    make(chan struct{}, 1),
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	if snap != nil {
		if snap.Config != nil {
			s.cluster = snap.Config.Clone()
		}
		for i := range snap.Props {
			p := snap.Props[i]
			s.props[p.Name] = &p
		}
		s.incidentLog = append(s.incidentLog, snap.Incidents...)
		if limit := s.maxIncidentLog(); len(s.incidentLog) > limit {
			// The bound may have shrunk between incarnations; keep the
			// newest window, same as the live trim.
			s.incidentLog = append([]incidents.Report(nil), s.incidentLog[len(s.incidentLog)-limit:]...)
		}
		s.counters = snap.Counters
		s.seq = snap.Seq
		s.verifiedSeq = snap.VerifiedSeq
		// A pass is owed if the crash interrupted one (Seq ahead of
		// VerifiedSeq) or if any verdict settled as failed — e.g. its
		// check was cancelled by the shutdown that ended the previous
		// incarnation. Failed verdicts are dropped so the pass treats
		// those properties as new.
		needPass := s.seq > s.verifiedSeq
		for name, p := range s.props {
			if p.Verdict == VerdictFailed {
				delete(s.props, name)
				needPass = true
			}
		}
		if needPass && s.seq > 0 {
			if s.verifiedSeq >= s.seq {
				s.verifiedSeq = s.seq - 1
			}
			// The restored batches' arrival times are gone, so they
			// re-verify without latency observations.
			s.pending = append(s.pending, pendingBatch{seq: s.seq, arrived: time.Time{}})
			s.kick <- struct{}{}
		}
	}
	go s.run(ctx)
	return s
}

// ID returns the session id.
func (s *Session) ID() string { return s.cfg.ID }

// Ingest folds a batch of events into the configuration and schedules
// a verify pass. The whole batch is validated against a scratch copy
// first, so a malformed batch leaves the session untouched. It
// returns the batch's sequence number, which Wait can block on.
func (s *Session) Ingest(events []extract.Event) (uint64, error) {
	if len(events) == 0 {
		return 0, fmt.Errorf("watch: empty event batch")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("watch: session %s is closed", s.cfg.ID)
	}
	next := s.cluster.Clone()
	for i, ev := range events {
		if err := next.Apply(ev); err != nil {
			s.mu.Unlock()
			return 0, fmt.Errorf("event %d: %w", i, err)
		}
	}
	s.cluster = next
	s.seq++
	seq := s.seq
	s.counters.Events += uint64(len(events))
	s.pending = append(s.pending, pendingBatch{seq: seq, arrived: time.Now()})
	s.persistLocked()
	s.mu.Unlock()
	if h := s.cfg.Hooks.Events; h != nil {
		h(len(events))
	}
	select {
	case s.kick <- struct{}{}:
	default:
	}
	return seq, nil
}

// Wait blocks until every batch up to seq has been verified (or the
// context is done, or the session closed).
func (s *Session) Wait(ctx context.Context, seq uint64) error {
	for {
		s.mu.Lock()
		if s.verifiedSeq >= seq {
			s.mu.Unlock()
			return nil
		}
		if s.closed {
			s.mu.Unlock()
			return fmt.Errorf("watch: session %s closed while waiting", s.cfg.ID)
		}
		ch := s.settled
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Status returns the session's current snapshot (verdicts, incident
// log, counters). The snapshot is a deep enough copy to be used
// without synchronization.
func (s *Session) Status() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// Close stops the session's runner. If tombstone is set the final
// persisted snapshot is marked Closed, telling recovery not to
// resurrect it.
func (s *Session) Close(tombstone bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	if tombstone {
		snap := s.snapshotLocked()
		snap.Closed = true
		if s.cfg.Persist != nil {
			s.cfg.Persist(snap)
		}
	}
	close(s.settled)
	s.settled = make(chan struct{})
	s.mu.Unlock()
	s.cancel()
	<-s.done
}

func (s *Session) snapshotLocked() *Snapshot {
	snap := &Snapshot{
		ID:          s.cfg.ID,
		Seq:         s.seq,
		VerifiedSeq: s.verifiedSeq,
		Config:      s.cluster.Clone(),
		Counters:    s.counters,
		Incidents:   append([]incidents.Report(nil), s.incidentLog...),
		DebounceMS:  s.cfg.Debounce.Milliseconds(),
	}
	snap.IncidentLogMax = s.cfg.MaxIncidentLog
	names := make([]string, 0, len(s.props))
	for n := range s.props {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		snap.Props = append(snap.Props, *s.props[n])
	}
	return snap
}

func (s *Session) persistLocked() {
	if s.cfg.Persist != nil {
		s.cfg.Persist(s.snapshotLocked())
	}
}

// run is the session's single verifier goroutine: debounce, verify,
// repeat until the ingested sequence is fully covered.
func (s *Session) run(ctx context.Context) {
	defer close(s.done)
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.kick:
		}
		if s.cfg.Debounce > 0 {
			t := time.NewTimer(s.cfg.Debounce)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		for {
			if !s.verifyPass(ctx) {
				break
			}
		}
	}
}

// verifyPass verifies the configuration at the current sequence and
// reports whether more work arrived meanwhile.
func (s *Session) verifyPass(ctx context.Context) bool {
	s.mu.Lock()
	target := s.seq
	if target <= s.verifiedSeq || s.closed {
		s.mu.Unlock()
		return false
	}
	cfg := s.cluster.Clone()
	prev := make(map[string]PropState, len(s.props))
	for n, p := range s.props {
		prev[n] = *p
	}
	s.mu.Unlock()

	// Drain the kick that scheduled us (best effort) so a pass that
	// covers it doesn't trigger an empty follow-up.
	select {
	case <-s.kick:
	default:
	}

	props, extractErr := extract.Extract(cfg)

	type verified struct {
		prop    extract.Property
		out     Outcome
		ran     bool
		flip    bool
		newIncd bool
	}
	var results []verified
	if extractErr == nil {
		for _, p := range props {
			old, seen := prev[p.Name]
			if seen && old.Source == p.Source && old.Verdict != VerdictFailed {
				results = append(results, verified{prop: p, out: Outcome{
					Verdict: old.Verdict, Engine: old.Engine, Witness: old.Witness, Cached: true,
				}})
				continue
			}
			out := s.cfg.Verify(ctx, p)
			v := verified{prop: p, out: out, ran: true}
			if seen && old.Verdict != out.Verdict {
				v.flip = true
			}
			if out.Verdict == VerdictViolated && (!seen || old.Verdict != VerdictViolated) {
				v.newIncd = true
			}
			results = append(results, v)
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	var reports []incidents.Report
	ran, skipped := 0, 0
	if extractErr == nil {
		next := make(map[string]*PropState, len(results))
		for _, v := range results {
			if v.ran {
				ran++
				s.counters.Runs++
			} else {
				skipped++
				s.counters.Skipped++
			}
			if v.flip {
				s.counters.Flips++
			}
			next[v.prop.Name] = &PropState{
				Name:    v.prop.Name,
				Detail:  v.prop.Detail,
				Source:  v.prop.Source,
				Verdict: v.out.Verdict,
				Engine:  v.out.Engine,
				Witness: v.out.Witness,
				Seq:     target,
			}
			if v.newIncd {
				rep := incidents.Report{
					Seq:             target,
					Property:        v.prop.Name,
					Detail:          v.prop.Detail,
					Characteristics: v.prop.Characteristics,
					Trace:           v.out.Trace,
					Engine:          v.out.Engine,
					Witness:         v.out.Witness,
				}
				s.counters.Incidents++
				s.incidentLog = append(s.incidentLog, rep)
				reports = append(reports, rep)
			}
		}
		if limit := s.maxIncidentLog(); len(s.incidentLog) > limit {
			s.incidentLog = append([]incidents.Report(nil), s.incidentLog[len(s.incidentLog)-limit:]...)
		}
		// Properties absent from the new extraction (deleted objects)
		// drop out of the verified set.
		s.props = next
	}

	// Latency + coalescing accounting: every pending batch at or below
	// target is now answered; all but the last were superseded.
	var latencies []time.Duration
	covered := 0
	rest := s.pending[:0]
	for _, b := range s.pending {
		if b.seq > target {
			rest = append(rest, b)
			continue
		}
		covered++
		if !b.arrived.IsZero() {
			latencies = append(latencies, time.Since(b.arrived))
		}
	}
	s.pending = rest
	coalesced := 0
	if covered > 1 {
		coalesced = covered - 1
		s.counters.Coalesced += uint64(coalesced)
	}
	s.mu.Unlock()

	// The hooks run before the pass is published, so a waiter released
	// by it sees every metric of the batches it waited for.
	h := s.cfg.Hooks
	for i := 0; i < ran; i++ {
		if h.Recheck != nil {
			h.Recheck(true)
		}
	}
	for i := 0; i < skipped; i++ {
		if h.Recheck != nil {
			h.Recheck(false)
		}
	}
	if h.Flip != nil {
		for _, v := range results {
			if v.flip {
				h.Flip()
			}
		}
	}
	if h.Incident != nil {
		for _, rep := range reports {
			h.Incident(rep)
		}
	}
	if h.Latency != nil {
		for _, d := range latencies {
			h.Latency(d)
		}
	}
	if coalesced > 0 && h.Coalesced != nil {
		h.Coalesced(coalesced)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.verifiedSeq = target
	s.persistLocked()
	close(s.settled)
	s.settled = make(chan struct{})
	return true
}
