package main

import (
	"strings"
	"syscall"
	"time"

	"verdict/internal/mc"
	"verdict/internal/watch/extract"
)

// opRecord is one closed-loop operation as the client saw it.
type opRecord struct {
	client, index int
	// class is "cell" (a sweep cell), "hit" or "miss" (a check
	// answered from the cache or by running the engine), "watch" (an
	// event batch) or "refused" (rejected before it was classified).
	class string
	kind  string // the generator's kind
	ok    bool   // settled with a conclusive, correct answer
	why   string // why a failed op failed
	start time.Time
	lat   time.Duration
	res   *mc.Result
	// Replay inputs: the request as sent, or the watch batch.
	body   []byte
	events []extract.Event
	want   string
}

func (o *opRecord) engineRan() bool { return o.class == "cell" || o.class == "miss" }

func latMS(ops []opRecord, keep func(*opRecord) bool) latencies {
	var l latencies
	for i := range ops {
		if keep(&ops[i]) {
			l = append(l, float64(ops[i].lat)/float64(time.Millisecond))
		}
	}
	return l
}

// endToEndMetrics fills the op-derived end-to-end metrics. Failed and
// refused operations stay in the latency samples: a refusal misses any
// latency limit as surely as a slow answer.
func endToEndMetrics(m map[string]float64, ops []opRecord, wall time.Duration) (attempted, failed int) {
	okCount := 0
	for _, o := range ops {
		if o.ok {
			okCount++
		}
	}
	all := latMS(ops, anyOp)
	checks := latMS(ops, (*opRecord).engineRan)
	m["ok_share"] = ratio(float64(okCount), float64(len(ops)))
	m["throughput_ops"] = ratio(float64(okCount), wall.Seconds())
	m["op_p50_ms"], m["op_tail_ms"] = all.p50(), all.tail()
	m["check_p50_ms"], m["check_tail_ms"] = checks.p50(), checks.tail()
	return len(ops), len(ops) - okCount
}

// failureNotes counts failed ops by class and reason.
func failureNotes(rep *report, ops []opRecord) {
	why := map[string]int{}
	for _, o := range ops {
		if !o.ok {
			why[o.class+": "+o.why]++
		}
	}
	for _, k := range sortedKeys(why) {
		rep.note("failed %-40s n=%d", k, why[k])
	}
}

// zeroLayers records every per-layer metric as 0, the reading of a
// layer the workload does not exercise; workloads overwrite the rest.
func zeroLayers(m map[string]float64) {
	for _, d := range perLayer {
		m[d.name] = 0
	}
}

// engineLayers fills the mc, sat, bdd and witness metrics from the
// engine results of a phase.
func engineLayers(m map[string]float64, results []*mc.Result) {
	var elapsed, depth []float64
	var reuses, shared, handed, conflicts, props, nodes []float64
	wins := map[string]float64{}
	var conclusive, violated, validated float64
	for _, r := range results {
		if r == nil {
			continue
		}
		elapsed = append(elapsed, float64(r.Elapsed)/float64(time.Millisecond))
		if r.Status != mc.Unknown {
			conclusive++
			wins[strings.TrimPrefix(r.Engine, "portfolio/")]++
		}
		if r.Status == mc.Violated {
			violated++
			if r.Witness == "validated" {
				validated++
			}
		}
		if st := r.Stats; st != nil {
			for _, d := range st.DepthTime {
				depth = append(depth, float64(d)/float64(time.Millisecond))
			}
			reuses = append(reuses, float64(st.IncrementalReuses))
			shared = append(shared, float64(st.BoundsShared))
			handed = append(handed, float64(st.InvariantsHandedOff))
			conflicts = append(conflicts, float64(st.Conflicts))
			props = append(props, float64(st.Propagations))
			nodes = append(nodes, float64(st.BDDNodes))
		}
	}
	m["mc.engine_ms"] = median(elapsed)
	m["mc.depth_ms"] = median(depth)
	for _, e := range []string{"bmc", "k-induction", "bdd"} {
		m["mc.win_share."+e] = ratio(wins[e], conclusive)
	}
	m["mc.incremental_reuses"] = mean(reuses)
	m["mc.bounds_shared"] = mean(shared)
	m["mc.invariants_handed_off"] = mean(handed)
	m["sat.conflicts"] = mean(conflicts)
	m["sat.propagations"] = mean(props)
	m["bdd.nodes"] = mean(nodes)
	m["witness.validated_share"] = ratio(validated, violated)
}

// cpuTime is this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// spanLayers maps span names to the per-layer self-time metrics they
// feed, with the metric's scale.
var spanLayers = []struct {
	span, metric string
	unit         time.Duration
}{
	{"smvlang.Parse", "smvlang.parse_us", time.Microsecond},
	{"smvlang.Render", "smvlang.render_us", time.Microsecond},
	{"cache.Key", "cache.key_us", time.Microsecond},
	{"journal.Append", "journal.append_fsync_us", time.Microsecond},
	{"witness.Validate", "witness.validate_ms", time.Millisecond},
	{"abstract.NewPartition", "abstract.partition_ms", time.Millisecond},
	{"abstract.BuildQuotient", "abstract.quotient_ms", time.Millisecond},
	{"extract.Extract", "extract.us", time.Microsecond},
}

// traceLayers reports the traced run's self times: the median per
// layer metric, and every span name's breakdown as notes.
func traceLayers(rep *report, tr *tracer) {
	byName := tr.selfByName()
	for _, sl := range spanLayers {
		if ds, ok := byName[sl.span]; ok {
			var xs []float64
			for _, d := range ds {
				xs = append(xs, float64(d)/float64(sl.unit))
			}
			rep.metrics[sl.metric] = median(xs)
		}
	}
	rep.metrics["trace.spans"] = float64(len(tr.spans))
	for _, name := range sortedKeys(byName) {
		ms := durationsMS(byName[name])
		var total float64
		for _, x := range ms {
			total += x
		}
		rep.note("self %-26s p50 %10.4f ms  total %10.2f ms  n=%d", name, median(ms), total, len(ms))
	}
}
