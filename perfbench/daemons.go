package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"verdict/internal/mc"
	"verdict/internal/server"
)

// serve-mixed and cluster-durable drive real verdictd processes: the
// service layers do most of the work, on small models.

// Tenants of serve-mixed: the check client and the watch client each
// authenticate as their own tenant.
var serveTenants = []server.TenantConfig{
	{Name: "ops", Token: "bench-ops-token", Class: "interactive"},
	{Name: "watch", Token: "bench-watch-token", Class: "interactive"},
}

// daemonWorkload describes a daemon workload for runDaemons.
type daemonWorkload struct {
	nodes int
	// setups is how many times set-up is repeated for its median.
	setups int
	args   func(e *env, i int, dir string, addrs []string) []string
	// clients returns the phase's closed-loop clients (one per core at
	// most); prepare runs against the fresh fleet before they start.
	clients func(e *env, f fleet) []clientFunc
	prepare func(f fleet) error
	// notes reports the workload's own op classes.
	notes func(rep *report, p *phase)
}

func runServe(e *env) (*report, error) {
	tenants := filepath.Join(e.work, "tenants.json")
	raw, _ := json.Marshal(serveTenants)
	if err := os.WriteFile(tenants, raw, 0o644); err != nil {
		return nil, err
	}
	return runDaemons(e, daemonWorkload{
		nodes:  1,
		setups: 21,
		args: func(e *env, _ int, dir string, _ []string) []string {
			return []string{"-data-dir", filepath.Join(dir, "data"), "-workers", "2", "-tenants", tenants}
		},
		prepare: func(f fleet) error {
			c := &caller{hc: newHTTPClient(), token: serveTenants[1].Token}
			// A bounded incident log, as `verdict watch -log-bound` sets
			// it, keeps the journaled session snapshot from growing
			// through the run.
			body, _ := json.Marshal(server.WatchCreateRequest{ID: watchSession, IncidentLogMax: 16})
			code, err := c.call(http.MethodPost, f[0].url+"/v1/watch", body, "", nil)
			if err == nil && code != http.StatusCreated {
				err = fmt.Errorf("creating the watch session: HTTP %d", code)
			}
			return err
		},
		clients: func(e *env, f fleet) []clientFunc {
			// Half the check submissions resubmit an id settled earlier
			// in the run; one in 400 is a rollout scenario, the rest are
			// small textual models. Scenarios stay under half a percent
			// of the misses, so the misses' p99 is the textual models'
			// tail rather than the boundary between the two.
			checks := newCheckGen(e.seed, 0, 400, 200, 1)
			watches := newWatchGen(e.seed)
			nodes := []string{f[0].url}
			return []clientFunc{
				func(stop *atomic.Bool, tr *tracer) ([]opRecord, error) {
					return checkClient(&caller{hc: newHTTPClient(), token: serveTenants[0].Token}, nodes, checks, 0, 0, stop, tr)
				},
				func(stop *atomic.Bool, tr *tracer) ([]opRecord, error) {
					return watchClient(&caller{hc: newHTTPClient(), token: serveTenants[1].Token}, nodes[0], watches, stop, tr)
				},
			}
		},
		notes: func(rep *report, p *phase) {
			rep.latencyNote("check_hit", latMS(p.measured, func(o *opRecord) bool { return o.class == "hit" }))
			rep.latencyNote("check_miss", latMS(p.measured, func(o *opRecord) bool { return o.class == "miss" }))
			rep.latencyNote("watch_event", latMS(p.measured, func(o *opRecord) bool { return o.class == "watch" }))
		},
	})
}

// clusterPace spaces each cluster client's ops: two clients at one op
// per 10 ms load the fleet to about half of what it settles back to
// back. Saturated, three nodes and two clients on two cores measured
// run-queue waits, which moved by a third from run to run with the
// host's load; paced, latency is the forward-and-replicate path.
const clusterPace = 10 * time.Millisecond

func runCluster(e *env) (*report, error) {
	return runDaemons(e, daemonWorkload{
		nodes:  3,
		setups: 3,
		args: func(e *env, i int, dir string, addrs []string) []string {
			var peers []string
			for j, a := range addrs {
				if j != i {
					peers = append(peers, "http://"+a)
				}
			}
			return []string{"-data-dir", filepath.Join(dir, "data"), "-workers", "1",
				"-peers", strings.Join(peers, ","), "-advertise", "http://" + addrs[i], "-replication", "2"}
		},
		clients: func(e *env, f fleet) []clientFunc {
			var nodes []string
			for _, d := range f {
				nodes = append(nodes, d.url)
			}
			var out []clientFunc
			for c := 0; c < 2; c++ {
				gen := newCheckGen(e.seed, c, 1, 0, 0) // all distinct, all textual
				out = append(out, func(stop *atomic.Bool, tr *tracer) ([]opRecord, error) {
					return checkClient(&caller{hc: newHTTPClient()}, nodes, gen, c, clusterPace, stop, tr)
				})
			}
			return out
		},
		notes: func(rep *report, p *phase) {
			rep.latencyNote("check_miss", latMS(p.measured, func(o *opRecord) bool { return o.class == "miss" }))
			rep.note("cluster.peers_healthy samples %d, below fleet-1: %d, min %g",
				p.mon.samples, p.mon.suspectSamples, p.mon.peersMin)
		},
	})
}

// runDaemons runs a daemon workload: set up the fleet several times and
// keep the median start-up, measure one untraced window, and with
// --trace 1 measure a traced window on a fresh fleet and replay it.
func runDaemons(e *env, w daemonWorkload) (*report, error) {
	args := func(i int, dir string, addrs []string) []string { return w.args(e, i, dir, addrs) }
	f, setup, err := setupFleet(e.verdictd, filepath.Join(e.work, "untraced"), w.setups, w.nodes, args)
	if err != nil {
		return nil, err
	}
	a, err := measureDaemons(e, w, f, nil)
	rtt := healthzRTT(f[0].url)
	f.stop()
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{}}
	rep.attempted, rep.failed = endToEndMetrics(rep.metrics, a.measured, a.wall)
	rep.metrics["setup_s"] = setup
	rep.metrics["peak_rss_mb"] = a.rss
	w.notes(rep, a)
	kinds := map[string]bool{}
	for _, o := range a.measured {
		kinds[o.kind] = true
	}
	for _, k := range sortedKeys(kinds) {
		rep.latencyNote("  kind "+k, latMS(a.measured, func(o *opRecord) bool { return o.kind == k }))
	}
	failureNotes(rep, a.measured)
	if !e.trace {
		return rep, nil
	}

	zeroLayers(rep.metrics)
	daemonLayers(rep.metrics, a, w.nodes)
	rep.metrics["http.rtt_us"] = rtt

	f, _, err = setupFleet(e.verdictd, filepath.Join(e.work, "traced"), 1, w.nodes, args)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	b, err := measureDaemons(e, w, f, tr)
	f.stop()
	if err != nil {
		return nil, err
	}
	rep.metrics["trace.overhead_share"] = ratio(mean(latMS(b.measured, anyOp)), mean(latMS(a.measured, anyOp))) - 1
	rs, err := replay(e, tr, b.all)
	if err != nil {
		return nil, err
	}
	rep.metrics["mc.cpu_per_wall"] = ratio(rs.cpu.Seconds(), rs.wall.Seconds())
	// The share of the untraced end-to-end time the replayed layers do
	// not account for: HTTP, scheduling and glue.
	untraced := map[[2]int]time.Duration{}
	for _, o := range a.all {
		untraced[[2]int{o.client, o.index}] = o.lat
	}
	var layers, e2e time.Duration
	for key, self := range rs.layerTime {
		if lat, ok := untraced[key]; ok {
			layers += self
			e2e += lat
		}
	}
	rep.metrics["trace.unaccounted_share"] = 1 - ratio(layers.Seconds(), e2e.Seconds())
	traceLayers(rep, tr)
	return rep, tr.write(e.tracePath())
}

func anyOp(*opRecord) bool { return true }

func measureDaemons(e *env, w daemonWorkload, f fleet, tr *tracer) (*phase, error) {
	if w.prepare != nil {
		if err := w.prepare(f); err != nil {
			return nil, err
		}
	}
	return runPhase(e, f, w.clients(e, f), tr)
}

// daemonLayers fills the metrics read from /metrics deltas and from
// the engine results on the wire.
func daemonLayers(m map[string]float64, p *phase, nodes int) {
	d := merge(p.delta...)
	var results []*mc.Result
	var overhead []float64
	ok := 0
	for _, o := range p.measured {
		if o.ok {
			ok++
		}
		if o.class == "miss" && o.res != nil {
			results = append(results, o.res)
			overhead = append(overhead, float64(o.lat-o.res.Elapsed)/float64(time.Millisecond))
		}
	}
	engineLayers(m, results)
	perOp := func(v float64) float64 { return ratio(v, float64(ok)) }

	hits, misses := d.sum("verdictd_cache_hits_total"), d.sum("verdictd_cache_misses_total")
	m["cache.hit_share"] = ratio(hits, hits+misses)
	m["cache.evictions"] = d.sum("verdict_cache_evictions_total")
	m["journal.bytes_per_op"] = perOp(max(0, d.sum("verdictd_journal_bytes")))

	m["server.queue_wait_ms.interactive"] = d.histMeanMS("verdictd_queue_wait_seconds", `class="interactive"`)
	m["server.queue_wait_ms.bulk"] = d.histMeanMS("verdictd_queue_wait_seconds", `class="bulk"`)
	m["server.check_ms"] = d.histMeanMS("verdictd_check_duration_seconds")
	m["server.overhead_p50_ms"] = median(overhead)
	for _, reason := range []string{"rate", "quota", "brownout", "queue_full"} {
		m["server.rejections."+reason] = d.sum("verdictd_tenant_rejections_total", `reason="`+reason+`"`)
	}
	m["server.brownout_level_max"] = p.mon.brownoutMax

	if nodes > 1 {
		m["cluster.forwards_per_op"] = perOp(d.sum("verdictd_cluster_forwards_total"))
		m["cluster.replications_per_op.ok"] = perOp(d.sum("verdictd_cluster_replications_total", `result="ok"`))
		m["cluster.replications_per_op.error"] = perOp(d.sum("verdictd_cluster_replications_total", `result="error"`))
		m["cluster.steals"] = d.sum("verdictd_cluster_steals_total", `role="victim"`)
		m["cluster.peers_healthy_min"] = p.mon.peersMin
		m["cluster.peers_suspect_samples"] = float64(p.mon.suspectSamples)
	}

	run, skipped := d.sum("verdictd_watch_rechecks_total", `result="run"`), d.sum("verdictd_watch_rechecks_total", `result="skipped"`)
	m["watch.rechecks_run_share"] = ratio(run, run+skipped)
	m["watch.coalesced"] = d.sum("verdictd_watch_events_coalesced_total")
	m["watch.flips"] = d.sum("verdictd_watch_verdict_flips_total")
	m["watch.server_event_ms"] = d.histMeanMS("verdictd_watch_event_verdict_seconds")
}
