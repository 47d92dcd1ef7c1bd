// Package server implements verdictd, verdict's
// verification-as-a-service daemon: an HTTP API that accepts textual
// models plus properties, runs them through the mc portfolio under
// resource budgets, and serves results asynchronously.
//
// The serving layer adds three things the CLI cannot offer:
//
//   - Admission control. Checks are CPU-heavy and unbounded by
//     nature; a bounded job queue with a worker pool keeps the daemon
//     responsive and sheds load with 429 + Retry-After instead of
//     collapsing.
//   - A content-addressed result cache. The cache key is the SHA-256
//     of the canonically rendered model (smvlang.Render of the parsed
//     program — byte-deterministic), the property's printed form, and
//     the normalized check options. Identical work is never done
//     twice: finished results are served from an LRU, and concurrent
//     identical submissions collapse onto one in-flight job
//     (singleflight by content address).
//   - Observability. GET /metrics exposes Prometheus-text counters
//     for requests, cache traffic, queue depth, in-flight checks,
//     per-engine wins, check latency, and budget exhaustions.
//
// Endpoints:
//
//	POST /v1/checks            submit {model, property?, spec?, options?} → {id, status, cached}
//	GET  /v1/checks/{id}       job status + result (verdict, stats, witness trace)
//	GET  /v1/checks/{id}/trace full counterexample trace JSON
//	GET  /metrics              Prometheus text format
//	GET  /healthz              liveness + drain + durability state
//
// Cluster mode (ClusterSelf + ClusterPeers set) adds internal
// node-to-node endpoints — see cluster.go:
//
//	POST /v1/cluster/accept    replicate an accepted job to a ring successor
//	POST /v1/cluster/replicate replicate a settled verdict to a ring successor
//	GET  /v1/cluster/steal     hand one queued job to an idle peer
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"verdict/internal/abstract"
	"verdict/internal/cache"
	"verdict/internal/ltl"
	"verdict/internal/mc"
	"verdict/internal/metrics"
	"verdict/internal/models/rollout"
	"verdict/internal/resilience"
	"verdict/internal/ts"
	"verdict/internal/watch"
)

// CheckFunc runs one verification. The default runs the mc portfolio
// (optionally under a retry ladder) behind a resilience guard; tests
// substitute instrumented fakes.
type CheckFunc func(sys *ts.System, phi *ltl.Formula, opts mc.Options, pol resilience.RetryPolicy) (*mc.Result, error)

// Config tunes the daemon. Zero values get production-safe defaults.
type Config struct {
	// QueueDepth bounds the number of admitted-but-unstarted jobs
	// (default 64). A full queue rejects with 429.
	QueueDepth int
	// Workers is the number of concurrent checks (default 4).
	Workers int
	// CacheSize bounds the finished-job LRU (default 1024 entries).
	CacheSize int
	// DefaultTimeout caps a check's wall clock when the request does
	// not set one (default 30s). Requests may ask for less, never more.
	DefaultTimeout time.Duration
	// MaxDepth caps the BMC/induction depth a request may ask for
	// (default 100).
	MaxDepth int
	// MaxRetryAttempts caps the retry-ladder attempts a request may
	// ask for (default 3). Together with DefaultTimeout bounding every
	// attempt, it limits how long any single request can hold a
	// worker.
	MaxRetryAttempts int
	// DataDir, when set, makes the daemon crash-safe: accepted checks
	// and settled results are journaled (fsync'd, checksummed) under
	// DataDir/journal and settled results are persisted under
	// DataDir/results. On startup the journal is replayed — unsettled
	// jobs re-enqueue under their original ids, settled verdicts stay
	// retrievable byte-identically. Empty keeps the daemon memory-only
	// (results and queued work die with the process).
	DataDir string
	// JournalSegmentSize overrides the journal's segment-rotation
	// threshold (default journal.DefaultSegmentSize).
	JournalSegmentSize int64
	// JournalNoSync skips per-record fsync — only for tests and
	// benchmarks measuring the non-durable ceiling.
	JournalNoSync bool
	// ClusterSelf is this node's advertised base URL (e.g.
	// "http://10.0.0.1:8080"). Together with ClusterPeers it switches
	// the daemon into cluster mode: submissions route to their
	// content address's ring owner, accepted work and settled verdicts
	// replicate to ring successors, reads proxy to replicas, and idle
	// nodes steal queued work. Empty runs single-node.
	ClusterSelf string
	// ClusterPeers lists the other members' advertised base URLs.
	ClusterPeers []string
	// Replication is how many nodes hold each accepted job and settled
	// verdict, this node included (default 2, clamped to fleet size).
	Replication int
	// ClusterProbeInterval is the peer health-probe period (default
	// 500ms).
	ClusterProbeInterval time.Duration
	// Tenants, when non-empty, switches on multi-tenant admission:
	// POST /v1/checks and the watch endpoints require a configured
	// bearer token, and each tenant gets its own traffic class,
	// weighted-fair share, rate limit, and queued-job quota. Empty
	// keeps the historical single-tenant open daemon.
	Tenants []TenantConfig
	// BrownoutThreshold is the smoothed queue-wait at which the
	// degradation ladder engages (shed bulk at T, cache-only at 2T,
	// shed everything at 4T). 0 defaults to DefaultTimeout/4; negative
	// disables the ladder.
	BrownoutThreshold time.Duration
	// BrownoutHold is how long the pressure signal must stay calm for
	// each hysteretic de-escalation step (default 2s).
	BrownoutHold time.Duration
	// Check overrides the verification function (tests).
	Check CheckFunc
	// Log receives operational messages (default log.Default()).
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 100
	}
	if c.MaxRetryAttempts <= 0 {
		c.MaxRetryAttempts = 3
	}
	if c.BrownoutThreshold == 0 {
		c.BrownoutThreshold = c.DefaultTimeout / 4
	}
	if c.Check == nil {
		c.Check = defaultCheck
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	return c
}

// defaultCheck is the production path: the engine portfolio under the
// job's budget, escalated by the retry ladder when one is set, guarded
// so an engine-stack panic degrades to an error instead of killing the
// worker.
func defaultCheck(sys *ts.System, phi *ltl.Formula, opts mc.Options, pol resilience.RetryPolicy) (res *mc.Result, err error) {
	defer resilience.RecoverTo("verdictd", &err)
	if pol.Attempts > 0 {
		return mc.CheckPortfolioWithRetry(sys, phi, opts, pol)
	}
	return mc.Portfolio(sys, phi, opts)
}

// Job states reported on the wire.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// job is one admitted check. Its phase (lifecycle.go) is guarded by
// Server.mu and changes only through transition; done is closed
// exactly once, when the job is published.
type job struct {
	id  string
	key string
	// owner is the advertised URL of the cluster node that promised
	// this job to a client; empty in single-node mode.
	owner string
	// tenant and class place the job in the fair scheduler; journaled
	// with the acceptance so replay restores the fair-queue state.
	tenant string
	class  int
	// acceptedAt stamps admission, feeding the queue-wait histogram
	// and the brownout signal at worker pickup. Zero for watch-session
	// verify passes, which never queue.
	acceptedAt time.Time
	// deadline is the client's propagated budget; zero means none. An
	// expired job is cancelled at pickup instead of run, and a running
	// job's check timeout is clamped to the remaining budget.
	deadline time.Time

	sys  *ts.System
	phi  *ltl.Formula
	opts mc.Options
	pol  resilience.RetryPolicy
	// abs, when non-nil, runs this job through the symmetry-quotient
	// CEGAR pipeline on this rollout instance instead of cfg.Check.
	abs *rollout.Config
	// reqJSON is the original submission body, kept while the job is
	// unsettled so the journal can re-accept it after a crash and the
	// compactor can rewrite it; dropped at settlement.
	reqJSON json.RawMessage

	phase  phase
	result *mc.Result
	errMsg string
	done   chan struct{}
}

// Server is the verdictd core, independent of the actual TCP listener
// so tests drive it through httptest.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu       sync.Mutex
	inflight map[string]*job // id → queued/running jobs
	finished *cache.LRU      // id → *job with result (content-addressed result cache)
	draining bool

	// sched is the tenant-aware fair admission queue (sched.go); brown
	// is the overload-degradation ladder it feeds; tenants indexes the
	// configured auth tokens/quotas. Lock ordering: s.mu before
	// sched.mu — the scheduler never calls back into the server.
	sched   *sched
	brown   *brownout
	tenants *tenantSet
	wg      sync.WaitGroup

	// durable is the crash-safety layer (journal + disk-backed result
	// store); nil when Config.DataDir is unset or the disk failed at
	// startup — the memory-only mode.
	durable *durability

	// cluster is the fleet layer (consistent-hash routing, replication,
	// work stealing); nil in single-node mode.
	cluster *clusterState

	// Continuous-verification sessions (watch.go). watchMu guards all
	// three maps; watchSnaps holds the latest journaled snapshot bytes
	// per open session — the compactor's live set. watchTraces is a
	// memory-only side cache of BMC-derived counterexamples for
	// verdicts whose winning engine produced none, so a config flapping
	// back to a known-violated model re-reports its incident without
	// re-deriving the trace.
	watchMu     sync.Mutex
	watches     map[string]*watch.Session
	watchSnaps  map[string][]byte
	watchTraces map[string]watchTrace

	baseCtx context.Context
	cancel  context.CancelFunc

	reg           *metrics.Registry
	mRequests     *metrics.Counter
	mChecks       *metrics.Counter
	mCacheHits    *metrics.Counter
	mCacheMiss    *metrics.Counter
	mRejections   *metrics.Counter
	mWins         *metrics.Counter
	mBudgetExh    *metrics.Counter
	mWitnessBad   *metrics.Counter
	mEvictions    *metrics.Counter
	mAbsRefines   *metrics.Counter
	mAbsSpurious  *metrics.Counter
	mForwards     *metrics.Counter
	mReplications *metrics.Counter
	mSteals       *metrics.Counter
	mTenantSub    *metrics.Counter
	mTenantRej    *metrics.Counter
	mShed         *metrics.Counter
	mExpired      *metrics.Counter
	gQueueDepth   *metrics.Gauge
	gInflight     *metrics.Gauge
	gCacheSize    *metrics.Gauge
	hLatency      *metrics.Histogram
	hQueueWait    *metrics.Histogram

	mWatchEvents    *metrics.Counter
	mWatchRechecks  *metrics.Counter
	mWatchFlips     *metrics.Counter
	mWatchIncidents *metrics.Counter
	mWatchCoalesced *metrics.Counter
	gWatchSessions  *metrics.Gauge
	hWatchLatency   *metrics.Histogram
}

// New builds a Server and starts its worker pool. Call Drain (and
// then Close) to stop it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		inflight: make(map[string]*job),
		finished: cache.NewLRU(cfg.CacheSize),
		sched:    newSched(cfg.QueueDepth),
		tenants:  newTenantSet(cfg.Tenants, cfg.QueueDepth),
		reg:      metrics.NewRegistry(),
	}
	s.brown = newBrownout(cfg.BrownoutThreshold, cfg.BrownoutHold, s.sched.OldestWait)
	s.baseCtx, s.cancel = context.WithCancel(context.Background())

	if cfg.DataDir != "" {
		d, err := openDurability(cfg.DataDir, cfg.JournalSegmentSize, cfg.JournalNoSync)
		if err != nil {
			// The paper's framing: the checker must not itself be a
			// fragile component. A bad data dir costs durability, not
			// availability.
			cfg.Log.Printf("durability: opening %s failed (%v); running memory-only — results will not survive a restart", cfg.DataDir, err)
		} else {
			s.durable = d
		}
	}
	// Cluster state is built (but not started) before replay: replayed
	// acceptances owned by peers must land as shadows, not local jobs.
	if cfg.ClusterSelf != "" || len(cfg.ClusterPeers) > 0 {
		s.initCluster(cfg)
	}

	s.mRequests = s.reg.Counter("verdictd_requests_total", "HTTP requests served, by path pattern and status code.", "path", "code")
	s.mChecks = s.reg.Counter("verdictd_checks_total", "Finished checks, by verdict (holds/violated/unknown/error).", "verdict")
	s.mCacheHits = s.reg.Counter("verdictd_cache_hits_total", "Submissions answered from the result cache or deduplicated onto an in-flight identical job.")
	s.mCacheMiss = s.reg.Counter("verdictd_cache_misses_total", "Submissions that started a new underlying check.")
	s.mRejections = s.reg.Counter("verdictd_queue_rejections_total", "Submissions rejected with 429 because the job queue was full.")
	s.mWins = s.reg.Counter("verdictd_engine_wins_total", "Conclusive checks, by deciding engine.", "engine")
	s.mBudgetExh = s.reg.Counter("verdictd_budget_exhaustions_total", "Checks that degraded to unknown because a resource budget ran out.")
	s.mWitnessBad = s.reg.Counter("verdict_witness_failures_total", "Engine verdicts rejected by independent witness validation: counterexamples that did not replay or certificates that did not check.")
	s.mEvictions = s.reg.Counter("verdict_cache_evictions_total", "Finished jobs displaced from the in-memory result cache by capacity pressure (disk-backed entries stay retrievable).")
	s.mAbsRefines = s.reg.Counter("verdict_abstract_refinements_total", "CEGAR equivalence-class splits applied while checking abstracted (symmetry-quotient) scenario submissions.")
	s.mAbsSpurious = s.reg.Counter("verdict_abstract_spurious_traces_total", "Abstract counterexamples rejected by concretization or concrete replay, each triggering a refinement.")
	s.finished.OnEvict(func(string, any) { s.mEvictions.Inc() })
	s.gQueueDepth = s.reg.Gauge("verdictd_queue_depth", "Jobs admitted but not yet started.")
	s.gInflight = s.reg.Gauge("verdictd_inflight_checks", "Checks currently executing.")
	s.gCacheSize = s.reg.Gauge("verdictd_cache_entries", "Finished jobs held in the result cache.")
	s.hLatency = s.reg.Histogram("verdictd_check_duration_seconds", "Wall-clock time of finished checks, by deciding engine.",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60}, "engine")
	s.hQueueWait = s.reg.Histogram("verdictd_queue_wait_seconds", "Time between a job's acceptance (202) and its worker pickup, by traffic class — the brownout ladder's input signal and the queueing half of end-to-end latency.",
		[]float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30}, "class")
	s.mTenantSub = s.reg.Counter("verdictd_tenant_submissions_total", "Authenticated check submissions, by tenant and effective traffic class.", "tenant", "class")
	s.mTenantRej = s.reg.Counter("verdictd_tenant_rejections_total", "Submissions rejected per tenant, by reason (auth/rate/quota/brownout/queue_full).", "tenant", "reason")
	s.mShed = s.reg.Counter("verdictd_brownout_shed_total", "Submissions shed by the brownout ladder, by traffic class.", "class")
	s.mExpired = s.reg.Counter("verdictd_deadline_cancellations_total", "Jobs whose propagated deadline expired before worker pickup; cancelled instead of run.")
	s.reg.GaugeFunc("verdictd_brownout_level", "Current overload-degradation level: 0 normal, 1 shedding bulk, 2 cache-only, 3 shedding everything.",
		func() float64 { return float64(s.brown.Level()) })
	s.reg.CounterFunc("verdictd_journal_corrupt_records_total", "Damaged journal records (bad CRC, torn tail, garbage) detected and skipped during startup replay.",
		func() float64 { return s.durableStat(func(d *durability) int64 { return d.corrupt.Load() }) })
	s.reg.CounterFunc("verdictd_journal_replayed_jobs_total", "Accepted-but-unsettled jobs re-enqueued from the journal at startup.",
		func() float64 { return s.durableStat(func(d *durability) int64 { return d.replayed.Load() }) })
	s.reg.CounterFunc("verdictd_journal_restored_results_total", "Settled results restored or repaired from the journal and result store at startup.",
		func() float64 { return s.durableStat(func(d *durability) int64 { return d.restored.Load() }) })
	s.reg.CounterFunc("verdictd_journal_append_errors_total", "Failed durability writes; the first one degrades the daemon to memory-only mode.",
		func() float64 { return s.durableStat(func(d *durability) int64 { return d.appendErrs.Load() }) })
	s.reg.GaugeFunc("verdictd_journal_active", "1 while accepted work and results are being journaled, 0 in (possibly degraded) memory-only mode.",
		func() float64 {
			if s.durable != nil && !s.durable.failed.Load() {
				return 1
			}
			return 0
		})
	s.reg.GaugeFunc("verdictd_journal_bytes", "On-disk size of the journal across segments.",
		func() float64 {
			return s.durableStat(func(d *durability) int64 { bytes, _ := d.j.Size(); return bytes })
		})
	s.reg.GaugeFunc("verdictd_journal_segments", "Journal segment files on disk.",
		func() float64 {
			return s.durableStat(func(d *durability) int64 { _, n := d.j.Size(); return int64(n) })
		})
	// Cluster metrics register unconditionally so dashboards see the
	// same series in every mode (zero-valued when single-node).
	s.mForwards = s.reg.Counter("verdictd_cluster_forwards_total", "Requests proxied to another cluster node: submissions routed to their ring owner, reads answered by a replica.")
	s.mReplications = s.reg.Counter("verdictd_cluster_replications_total", "Acceptance and settlement pushes to replica nodes, by result.", "result")
	s.mSteals = s.reg.Counter("verdictd_cluster_steals_total", "Work-stealing handoffs, by role (victim gave a queued job away; thief completed a stolen job).", "role")
	s.reg.GaugeFunc("verdictd_cluster_peers_healthy", "Peers the failure detector currently considers alive (0 in single-node mode).",
		func() float64 {
			if s.cluster == nil {
				return 0
			}
			return float64(s.cluster.c.AlivePeers())
		})

	s.initWatch()

	s.mux.HandleFunc("POST /v1/checks", s.instrument("/v1/checks", s.handleSubmit))
	s.mux.HandleFunc("GET /v1/checks/{id}", s.instrument("/v1/checks/{id}", s.handleStatus))
	s.mux.HandleFunc("GET /v1/checks/{id}/trace", s.instrument("/v1/checks/{id}/trace", s.handleTrace))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", http.HandlerFunc(s.handleMetrics))
	if s.cluster != nil {
		s.mux.HandleFunc("POST /v1/cluster/accept", s.instrument("/v1/cluster/accept", s.handleClusterAccept))
		s.mux.HandleFunc("POST /v1/cluster/replicate", s.instrument("/v1/cluster/replicate", s.handleClusterReplicate))
		s.mux.HandleFunc("GET /v1/cluster/steal", s.instrument("/v1/cluster/steal", s.handleClusterSteal))
	}

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	// Replay after the workers are up so re-enqueued jobs (possibly
	// more than QueueDepth of them) drain as they are admitted. New
	// has not returned yet, so the daemon is not serving until every
	// promised job is queued again.
	if s.durable != nil {
		s.replayJournal()
	}
	// Probing and the steal/rebalance loops start last, over fully
	// recovered state.
	s.startCluster()
	return s
}

// durableStat samples a durability counter, 0 in memory-only mode.
func (s *Server) durableStat(get func(*durability) int64) float64 {
	if s.durable == nil {
		return 0
	}
	return float64(get(s.durable))
}

// Handler returns the HTTP entry point.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting new jobs, lets queued and in-flight checks
// finish, and returns once the worker pool is idle (or ctx expires —
// results computed so far stay retrievable either way).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.sched.Close()
	}
	s.mu.Unlock()
	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("verdictd: drain aborted with checks still running: %w", ctx.Err())
	}
}

// Close cancels any still-running checks (after a failed or skipped
// Drain), stops watch sessions and cluster probing, closes the
// journal, and releases the server's context. Checks are cancelled
// before the watch sessions stop: a session blocked in a verify pass
// needs its check to return before it can wind down (the interrupted
// pass settles as failed and re-runs on the next start).
func (s *Server) Close() {
	s.stopCluster()
	s.cancel()
	s.closeWatches()
	s.closeDurable()
}

// --- worker pool ---

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.sched.Pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	// Queue wait (acceptance → pickup) is the overload signal: it feeds
	// the histogram and the brownout ladder before the job runs. Watch
	// verify passes call runJob directly with a zero acceptedAt.
	if !j.acceptedAt.IsZero() {
		wait := time.Since(j.acceptedAt)
		s.hQueueWait.Observe(wait.Seconds(), classLabel(j.class))
		s.brown.Observe(wait)
	}
	s.mu.Lock()
	expired := deadlinePassed(j.deadline, &j.opts)
	var err error
	if !expired {
		err = j.transition(evStart)
	}
	s.mu.Unlock()
	if expired {
		// Running it now would burn a worker on an answer nobody is
		// waiting for. The cancellation is a real settlement, so the 202
		// the client holds still resolves (to a failure naming the
		// deadline), and a restart does not resurrect the job.
		if s.settle(j, storedJob{Status: StatusFailed, Error: deadlineExpiredMsg}, nil, true) {
			s.mExpired.Inc()
			s.mChecks.Inc("expired")
		}
		return
	}
	if err != nil {
		// A peer settled this job while it sat in the queue (a stolen
		// job coming home, or a replicated verdict): nothing to run.
		return
	}
	s.gInflight.Add(1)
	start := time.Now()
	res, err := s.runCheck(j.sys, j.phi, j.opts, j.pol, j.abs)
	elapsed := time.Since(start)
	s.gInflight.Add(-1)

	snap, res := buildSnapshot(res, err)
	if !s.settle(j, snap, res, true) {
		// Lost the settlement race to a replicated snapshot; its bytes
		// are already pinned — discard this run's.
		return
	}
	verdict, engine := "error", "error"
	if j.result != nil {
		verdict = j.result.Status.String()
		engine = engineLabel(j.result.Engine)
	}
	s.mChecks.Inc(verdict)
	s.hLatency.Observe(elapsed.Seconds(), engine)
	if j.result != nil && j.result.Status != mc.Unknown {
		s.mWins.Inc(engine)
	}
	if j.result != nil && j.result.Status == mc.Unknown && strings.Contains(j.result.Note, "budget exhausted") {
		s.mBudgetExh.Inc()
	}
	if j.result != nil && j.result.Stats != nil && j.result.Stats.WitnessFailures > 0 {
		s.mWitnessBad.Add(float64(j.result.Stats.WitnessFailures))
	}
	if j.errMsg != "" {
		s.cfg.Log.Printf("check %s failed: %s", j.id, j.errMsg)
	}
}

// deadlineExpiredMsg is the failure a job settles with when its
// propagated deadline passed before a worker picked it up.
const deadlineExpiredMsg = "deadline expired before the check started; cancelled at worker pickup"

// checkAbstract runs the symmetry-quotient CEGAR pipeline behind the
// same panic guard as the portfolio path.
func (s *Server) checkAbstract(cfg rollout.Config, opts mc.Options) (res *abstract.Result, err error) {
	defer resilience.RecoverTo("verdictd-abstract", &err)
	return abstract.Check(cfg, abstract.Options{MC: opts})
}

// runCheck dispatches a compiled check: the portfolio for concrete
// jobs, the quotient + CEGAR pipeline for abstracted scenarios. It is
// the single execution point for local runs, replayed journal jobs,
// and stolen cluster jobs, so the verdict_abstract_* metrics count
// refinement work wherever it happens — including runs whose
// refinement budget errors out partway (the partial trajectory is
// real work).
func (s *Server) runCheck(sys *ts.System, phi *ltl.Formula, opts mc.Options, pol resilience.RetryPolicy, abs *rollout.Config) (*mc.Result, error) {
	if abs == nil {
		return s.cfg.Check(sys, phi, opts, pol)
	}
	ares, err := s.checkAbstract(*abs, opts)
	if ares != nil {
		s.mAbsRefines.Add(float64(ares.Refinements))
		s.mAbsSpurious.Add(float64(ares.Spurious))
	}
	if err != nil {
		return nil, err
	}
	if ares == nil {
		return nil, nil
	}
	return ares.Result, nil
}

// buildSnapshot turns a check outcome into the durable wire snapshot.
// The returned result is non-nil only for a done snapshot, and is
// exactly what the snapshot's Result bytes decode to.
func buildSnapshot(res *mc.Result, err error) (storedJob, *mc.Result) {
	snap := storedJob{Status: StatusFailed}
	switch {
	case err != nil:
		snap.Error = err.Error()
	case res == nil:
		snap.Error = "check returned no result"
	default:
		raw, merr := json.Marshal(res)
		if merr != nil {
			snap.Error = "result does not serialize: " + merr.Error()
			return snap, nil
		}
		snap.Status = StatusDone
		snap.Result = raw
		return snap, res
	}
	return snap, nil
}

// engineLabel collapses "portfolio/bmc" to "bmc" so the win counters
// name the engine that actually decided.
func engineLabel(engine string) string {
	if engine == "" {
		return "none"
	}
	return strings.TrimPrefix(engine, "portfolio/")
}

// --- HTTP handlers ---

// instrument wraps a handler with the request counter, labeling by
// route pattern (not raw path, which is unbounded) and status code.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		h(cw, r)
		s.mRequests.Inc(pattern, fmt.Sprintf("%d", cw.code))
	}
}

type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// authorize resolves the request's tenant, answering 401 itself when
// tenants are configured and the bearer token is missing or unknown.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) (*tenantState, bool) {
	st, err := s.tenants.authenticate(r)
	if err != nil {
		s.mTenantRej.Inc("unknown", "auth")
		w.Header().Set("WWW-Authenticate", `Bearer realm="verdictd"`)
		writeError(w, http.StatusUnauthorized, "unauthorized: "+err.Error())
		return nil, false
	}
	return st, true
}

// parseDeadline resolves the client's propagated budget from the
// X-Verdict-Deadline-Ms header (remaining milliseconds — a duration,
// not a wall-clock instant, so nodes need no clock agreement). Zero
// means no deadline.
func parseDeadline(r *http.Request) time.Time {
	raw := r.Header.Get(HeaderDeadline)
	if raw == "" {
		return time.Time{}
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 {
		return time.Time{}
	}
	return time.Now().Add(time.Duration(ms) * time.Millisecond)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	st, ok := s.authorize(w, r)
	if !ok {
		return
	}
	class := requestClass(r, st)
	deadline := parseDeadline(r)
	var req CheckRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	cr, err := s.compile(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Re-marshal rather than keep the raw body: the journaled form is
	// the decoded request, independent of client formatting.
	reqJSON, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "request does not re-serialize: "+err.Error())
		return
	}
	s.mTenantSub.Inc(st.name, classLabel(class))
	// One brownout assessment per admission decision. Level 3 sheds
	// before even the cache is consulted; below that, cached answers
	// are always served — they cost no worker time and stay sound.
	level := s.brown.Level()
	if level >= 3 {
		s.shed(w, st, class, level, "shedding all submissions")
		return
	}
	// Results that outlived the LRU (or a restart) are read back from
	// the disk-backed store: cache hits, not re-runs.
	if s.answerFromCache(w, cr.id) {
		return
	}
	// Route the job to its ring owner, so identical submissions landing
	// anywhere in the fleet collapse onto the owner's singleflight and
	// result cache. Local state was checked first: what this node
	// already holds it serves without a hop. The owner re-runs
	// admission policy under its own tenant config and brownout state;
	// the forward carries the auth, class, and deadline headers.
	if s.maybeForwardSubmit(w, r, cr.id, reqJSON) {
		return
	}
	// Past the cache: this submission needs a worker. Level 2 is
	// cache-only service; level 1 sheds the bulk class.
	if level >= 2 {
		s.shed(w, st, class, level, "serving cached answers only")
		return
	}
	if level >= 1 && class == classBulk {
		s.shed(w, st, class, level, "shedding bulk-class submissions")
		return
	}
	// Token-bucket rate limit — a per-tenant 429 distinct from queue
	// pressure, so a well-behaved tenant's client backs off while an
	// abusive one is contained.
	if !st.allow(time.Now()) {
		s.mTenantRej.Inc(st.name, "rate")
		w.Header().Set(HeaderQuotaReason, "rate")
		w.Header().Set(HeaderQuotaTenant, st.name)
		w.Header().Set(HeaderQuotaLimit, fmt.Sprintf("%g/s", st.rate))
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, fmt.Sprintf("tenant %q rate limit exceeded", st.name))
		return
	}
	j := newJob(cr.id, cr, reqJSON, s.ownerURL(), st.name, class)
	j.acceptedAt, j.deadline = time.Now(), deadline

	s.mu.Lock()
	// Singleflight re-check: an identical submission may have admitted
	// while this one was routing.
	if j, ok := s.inflight[cr.id]; ok {
		s.mu.Unlock()
		s.mCacheHits.Inc()
		s.writeJob(w, http.StatusOK, j, true)
		return
	}
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting new checks")
		return
	}
	j.transition(evQueue) // a fresh job is a Shadow: cannot fail
	switch err := s.sched.Push(j, st.weight, st.maxQueued); err {
	case nil:
	case errTenantQuota:
		s.mu.Unlock()
		s.mTenantRej.Inc(st.name, "quota")
		w.Header().Set(HeaderQuotaReason, "queued")
		w.Header().Set(HeaderQuotaTenant, st.name)
		w.Header().Set(HeaderQuotaLimit, fmt.Sprintf("%d", st.maxQueued))
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, fmt.Sprintf("tenant %q queued-job quota (%d) exhausted", st.name, st.maxQueued))
		return
	default: // errQueueFull — the historical shape, no quota headers
		s.mu.Unlock()
		s.mRejections.Inc()
		s.mTenantRej.Inc(st.name, "queue_full")
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job queue full")
		return
	}
	s.inflight[j.id] = j
	s.mu.Unlock()
	s.accept(j, reqJSON)
	s.mCacheMiss.Inc()
	s.writeJob(w, http.StatusAccepted, j, false)
}

// shed rejects a submission under the brownout ladder: a 429 carrying
// the level so clients can tell overload-shedding from quota or
// queue-full rejections.
func (s *Server) shed(w http.ResponseWriter, st *tenantState, class, level int, why string) {
	s.mShed.Inc(classLabel(class))
	s.mTenantRej.Inc(st.name, "brownout")
	w.Header().Set(HeaderBrownout, strconv.Itoa(level))
	w.Header().Set("Retry-After", "2")
	writeError(w, http.StatusTooManyRequests, fmt.Sprintf("brownout level %d: %s", level, why))
}

// answerFromCache serves a submission from an identical in-flight job
// (the singleflight path: an identical request is the same content
// address) or a settled verdict; reports whether it answered. A cached
// failure (caught panic, transient engine error) is not a reusable
// verdict — the check re-runs, and the fresh job replaces the stale
// entry when it settles.
func (s *Server) answerFromCache(w http.ResponseWriter, id string) bool {
	j, ok := s.lookup(id)
	if ok {
		s.mu.Lock()
		ok = j.status() != StatusFailed
		s.mu.Unlock()
	}
	if ok {
		s.mCacheHits.Inc()
		s.writeJob(w, http.StatusOK, j, true)
	}
	return ok
}

// lookup finds id's job in flight, in the finished cache, or — the
// disk store outlives both the LRU and the process — rehydrated from
// its stored snapshot and re-inserted into the LRU.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	j, ok := s.memLookupLocked(id)
	s.mu.Unlock()
	if ok {
		return j, true
	}
	snap, ok := s.storedSnapshot(id)
	if ok {
		j, ok = settledJob(id, snap)
	}
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Lost the race against a concurrent restore or a re-run: keep
	// whatever is already live.
	if cur, ok := s.memLookupLocked(id); ok {
		return cur, true
	}
	s.finished.Add(id, j)
	return j, true
}

// memLookupLocked finds id in the in-flight table or the finished
// cache. Callers hold s.mu.
func (s *Server) memLookupLocked(id string) (*job, bool) {
	if j, ok := s.inflight[id]; ok {
		return j, true
	}
	if v, ok := s.finished.Get(id); ok {
		return v.(*job), true
	}
	return nil, false
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		// In cluster mode the id may live elsewhere: ask its replica
		// set (owner first) before declaring it unknown.
		if s.proxyRead(w, r, r.PathValue("id")) {
			return
		}
		writeError(w, http.StatusNotFound, "unknown check id")
		return
	}
	// ?wait=1 blocks until the job settles — spares thin clients the
	// poll loop. The request context bounds the wait.
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.done:
		case <-r.Context().Done():
		}
	}
	s.writeJob(w, http.StatusOK, j, false)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		if s.proxyRead(w, r, r.PathValue("id")) {
			return
		}
		writeError(w, http.StatusNotFound, "unknown check id")
		return
	}
	s.mu.Lock()
	res := j.result
	s.mu.Unlock()
	if res == nil {
		writeError(w, http.StatusConflict, "check not finished")
		return
	}
	if res.Trace == nil {
		writeError(w, http.StatusNotFound, "check produced no counterexample trace")
		return
	}
	writeJSON(w, http.StatusOK, res.Trace)
}

// HealthzResponse is the structured GET /healthz body: the overall
// status plus one sub-object per subsystem so operators can tell
// WHICH subsystem degraded, not just that something did.
type HealthzResponse struct {
	// Status is "ok" or "degraded" (degraded still answers 200 — the
	// daemon serves; only durability was lost).
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	// Journal is "active" (journaling), "degraded" (configured durable
	// but fell back to memory-only), or "off" (memory-only by choice).
	Journal struct {
		Status string `json:"status"`
	} `json:"journal"`
	// Cluster is "off" single-node, else "ok" with the failure
	// detector's healthy-peer count.
	Cluster struct {
		Status       string `json:"status"`
		PeersHealthy int    `json:"peers_healthy,omitempty"`
	} `json:"cluster"`
	// Watch reports open continuous-verification sessions.
	Watch struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
	} `json:"watch"`
	// Brownout reports the overload-degradation ladder: level 0 is
	// normal service, 1 sheds bulk, 2 serves cached answers only, 3
	// sheds everything.
	Brownout struct {
		Level int `json:"level"`
	} `json:"brownout"`
	// PeersHealthy mirrors Cluster.PeersHealthy at the top level for
	// clients of the pre-structured body (cluster mode only).
	PeersHealthy *int `json:"peers_healthy,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	// "degraded" still answers 200 — the daemon serves, load balancers
	// and peer failure detectors must keep routing to it — but tells
	// operators that durability was configured and lost (disk failure
	// at startup or mid-flight), so results no longer survive a
	// restart.
	var body HealthzResponse
	body.Status = "ok"
	if s.degraded() {
		body.Status = "degraded"
	}
	body.Draining = draining
	switch {
	case s.cfg.DataDir == "":
		body.Journal.Status = "off"
	case s.degraded():
		body.Journal.Status = "degraded"
	default:
		body.Journal.Status = "active"
	}
	body.Cluster.Status = "off"
	if cs := s.cluster; cs != nil {
		body.Cluster.Status = "ok"
		alive := cs.c.AlivePeers()
		body.Cluster.PeersHealthy = alive
		body.PeersHealthy = &alive
	}
	body.Watch.Status = "ok"
	body.Watch.Sessions = s.watchSessionCount()
	body.Brownout.Level = s.brown.Level()
	writeJSON(w, http.StatusOK, body)
}

// degraded reports that the daemon was configured durable but is
// running memory-only.
func (s *Server) degraded() bool {
	if s.cfg.DataDir == "" {
		return false // memory-only by choice is healthy
	}
	return s.durable == nil || s.durable.failed.Load()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Pull-model gauges: sampled at scrape time.
	s.gQueueDepth.Set(float64(s.sched.Len()))
	s.gCacheSize.Set(float64(s.finished.Len()))
	s.reg.ServeHTTP(w, r)
}

// writeJob renders a job snapshot. cached marks submissions that were
// answered without starting a new check.
func (s *Server) writeJob(w http.ResponseWriter, code int, j *job, cached bool) {
	s.mu.Lock()
	resp := CheckResponse{ID: j.id, Status: j.status(), Cached: cached, Error: j.errMsg, Result: j.result}
	if j.result != nil {
		// Explicit "none" (rather than an absent field) so clients can
		// tell "not validated" apart from "talking to an old daemon".
		resp.Witness = j.result.Witness.String()
	}
	s.mu.Unlock()
	writeJSON(w, code, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
