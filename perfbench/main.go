// Command perfbench is verdict's end-to-end benchmark. It drives one
// named workload against the program from outside, checks every
// verdict against an answer known by construction, and prints each
// metric by name with its unit, then one JSON object as the last line.
//
//	bash perfbench/run.sh --workload fig6-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; --trace 1 runs
// the workload untraced and then traced with the same seed, replays
// the traced run's inputs through each layer's public functions, and
// prints the per-layer metrics. METRICS.md says which end-to-end
// metric each layer metric should move, on which workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; an "op" is one closed-loop operation (a sweep
// cell, a check submission until its verdict, a watch event batch
// until its verify pass), a "check" an op that ran the engine.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_share", "share"},
	{"peak_rss_mb", "MB"},
	{"throughput_ops", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"check_p50_ms", "ms"},
	{"check_tail_ms", "ms"},
}

// perLayer are the traced run's metrics, named after the module they
// measure. A layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"mc.engine_ms", "ms"},
	{"mc.depth_ms", "ms"},
	{"mc.win_share.bmc", "share"},
	{"mc.win_share.k-induction", "share"},
	{"mc.win_share.bdd", "share"},
	{"mc.incremental_reuses", "count"},
	{"mc.bounds_shared", "count"},
	{"mc.invariants_handed_off", "count"},
	{"mc.cpu_per_wall", "ratio"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"bdd.nodes", "count"},
	{"abstract.refinements", "count"},
	{"abstract.spurious", "count"},
	{"abstract.partition_ms", "ms"},
	{"abstract.quotient_ms", "ms"},
	{"witness.validate_ms", "ms"},
	{"witness.validated_share", "share"},
	{"smvlang.parse_us", "us"},
	{"smvlang.render_us", "us"},
	{"cache.key_us", "us"},
	{"cache.hit_share", "share"},
	{"cache.evictions", "count"},
	{"journal.append_fsync_us", "us"},
	{"journal.bytes_per_op", "B"},
	{"server.queue_wait_ms.interactive", "ms"},
	{"server.queue_wait_ms.bulk", "ms"},
	{"server.check_ms", "ms"},
	{"server.overhead_p50_ms", "ms"},
	{"server.rejections.rate", "count"},
	{"server.rejections.quota", "count"},
	{"server.rejections.brownout", "count"},
	{"server.rejections.queue_full", "count"},
	{"server.brownout_level_max", "count"},
	{"http.rtt_us", "us"},
	{"cluster.forwards_per_op", "count"},
	{"cluster.replications_per_op.ok", "count"},
	{"cluster.replications_per_op.error", "count"},
	{"cluster.steals", "count"},
	{"cluster.peers_healthy_min", "count"},
	{"cluster.peers_suspect_samples", "count"},
	{"watch.rechecks_run_share", "share"},
	{"watch.coalesced", "count"},
	{"watch.flips", "count"},
	{"watch.server_event_ms", "ms"},
	{"extract.us", "us"},
	{"trace.overhead_share", "share"},
	{"trace.unaccounted_share", "share"},
	{"trace.spans", "count"},
}

// env is what a workload needs from the command line.
type env struct {
	verdictd string
	work     string // per-run scratch directory, removed at exit
	out      string // build directory; traced runs write spans here
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// report is a workload's outcome.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	// notes are extra human-readable lines: the workload's own
	// breakdown (per op class, per span name) with sample counts.
	notes []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// latencyNote prints one op class the way the end-to-end metrics are
// printed: median, tail percentile and sample count.
func (r *report) latencyNote(name string, l latencies) {
	r.note("%-28s p50 %10.4f ms  %s %10.4f ms  n=%d", name, l.p50(), l.tailLabel(), l.tail(), len(l))
}

var workloads = map[string]func(*env) (*report, error){
	"fig6-sweep":      runFig6,
	"serve-mixed":     runServe,
	"cluster-durable": runCluster,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: fig6-sweep, serve-mixed or cluster-durable")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measured seconds per phase")
		traced   = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		verdictd = flag.String("verdictd", ".bench_build/bin/verdictd", "verdictd binary under test")
		out      = flag.String("out", ".bench_build", "build directory for scratch data and spans")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds N --trace {0|1}\n",
			strings.Join(sortedKeys(workloads), ","))
		os.Exit(2)
	}
	work, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := &env{verdictd: *verdictd, work: work, out: *out, workload: *workload,
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1}
	rep, err := run(e)
	os.RemoveAll(work)
	if err != nil {
		var ve *verdictError
		if errors.As(err, &ve) {
			fmt.Fprintln(os.Stderr, "perfbench: WRONG VERDICT:", err)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	line, err := render(rep, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, d := range defs {
		fmt.Printf("%-34s %14.6f %s\n", d.name, rep.metrics[d.name], d.unit)
	}
	fmt.Println(line)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render builds the final JSON line. Every listed metric must have
// been measured; per-layer metrics of layers the workload does not
// exercise are recorded as 0 by the workload itself.
func render(rep *report, defs []metricDef) (string, error) {
	var missing []string
	out := resultLine{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if rep.attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// tracePath is where a traced run writes its spans.
func (e *env) tracePath() string {
	return filepath.Join(e.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
}
