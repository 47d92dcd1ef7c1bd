// Command verdict-bench regenerates every table and figure from the
// paper's evaluation:
//
//	verdict-bench -exp table1   # Table 1: incident-study aggregation
//	verdict-bench -exp fig2     # Figure 2: descheduler oscillation series
//	verdict-bench -exp fig5     # Figure 5: rollout counterexample
//	verdict-bench -exp synth    # §4.2: safe p ∈ {1,2} for k=1, m=1
//	verdict-bench -exp lbecmp   # §4.2 case study 2: oscillation lassos
//	verdict-bench -exp fig6     # Figure 6: scalability sweep
//	verdict-bench -exp all
//
// Beyond the experiments, -baseline write/compare maintains the
// committed benchmark trajectory (BENCH_fig6.json): a reduced fig6
// subset through the portfolio with cooperation on and off, gated in
// CI against verdict drift and time regressions (see baseline.go).
//
// Absolute runtimes differ from the paper's NuXMV-on-a-MacBook setup;
// the shapes (violation ≪ verification, exponential growth in topology
// size and failure budget k, timeouts on the largest fat trees) are
// the reproduction targets. See EXPERIMENTS.md for recorded runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"verdict"
	"verdict/internal/buildinfo"
	"verdict/internal/incidents"
	"verdict/internal/pool"
	"verdict/internal/resilience"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("verdict-bench: ")
	var (
		exp      = flag.String("exp", "all", "experiment: table1, fig2, fig5, synth, lbecmp, fig6, all")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-verification budget for fig6 (paper used 1h)")
		maxK     = flag.Int("max-fattree", 8, "largest fat-tree parameter for fig6 (paper: 12)")
		engine   = flag.String("verify-engine", "kind", "fig6 verification engine: kind (k-induction; fast, the property is 2-inductive) or bdd (exhaustive reachability, reproducing the paper's NuXMV behavior)")
		workers  = flag.Int("workers", 1, "worker goroutines for the fig6 sweep cells (0 = NumCPU, 1 = serial)")
		stats    = flag.Bool("stats", false, "print per-engine statistics for each fig6 cell")
		ckpt     = flag.String("checkpoint", "", "fig6: persist each completed sweep cell to this JSON file, so a killed run can be resumed")
		resume   = flag.Bool("resume", false, "fig6: skip cells already recorded in the -checkpoint file, replaying their stored rows")
		validate = flag.Bool("validate", false, "independently validate every counterexample and proof certificate (fig5, lbecmp, fig6); witness status joins the output, overhead joins the timings")
		abstr    = flag.Bool("abstract", false, "fig6: verify every cell over the symmetry quotient with CEGAR refinement instead of the concrete state space — extends the sweep far past fattree12 (try -abstract -max-fattree 16); violations are concretized and certified by replay")
		rebuild  = flag.Bool("rebuild-bmc", false, "force per-depth re-encoding in BMC instead of incremental solver reuse (reproduces the pre-incremental timings; for A/B measurement only)")
		baseline = flag.String("baseline", "", "benchmark trajectory gate: 'write' records the reduced fig6 sweep (coop and racing portfolio) to -baseline-file, 'compare' re-runs it and exits 1 on verdict drift, total-time regression beyond -baseline-tolerance, or cooperative mode slower than racing")
		baseFile = flag.String("baseline-file", "BENCH_fig6.json", "committed baseline path for -baseline")
		baseTol  = flag.Float64("baseline-tolerance", 4.0, "total-time drift factor tolerated by -baseline compare (cross-machine gate; 0 = use the factor recorded in the baseline)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (runtime/pprof; read it with `go tool pprof`)")
		memProf  = flag.String("memprofile", "", "write an allocation profile, taken when the run ends, to this file")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	validateWitness = *validate
	rebuildBMC = *rebuild
	if *version {
		fmt.Println(buildinfo.String("verdict-bench"))
		return
	}
	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Fatal(err)
		}
	}()

	// Ctrl-C cancels the sweep: in-flight cells stop at their next
	// cooperative poll, queued cells never start, and "all" stops
	// between experiments.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	if *baseline != "" {
		if !runBaseline(*baseline, *baseFile, *baseTol) {
			if err := stopProfiles(); err != nil {
				log.Print(err)
			}
			os.Exit(1)
		}
		return
	}

	run := map[string]func(){
		"table1": table1,
		"fig2":   fig2,
		"fig5":   fig5,
		"synth":  synth,
		"lbecmp": lbecmp,
		"fig6":   func() { fig6(ctx, *timeout, *maxK, *engine, *workers, *stats, *ckpt, *resume, *abstr) },
	}
	if *exp == "all" {
		for _, name := range []string{"table1", "fig2", "fig5", "synth", "lbecmp", "fig6"} {
			if ctx.Err() != nil {
				log.Fatalf("interrupted before %s", name)
			}
			banner(name)
			run[name]()
		}
		return
	}
	f, ok := run[*exp]
	if !ok {
		log.Fatalf("unknown experiment %q", *exp)
	}
	banner(*exp)
	f()
}

// validateWitness mirrors -validate for the experiments that produce
// verdicts with evidence; rebuildBMC mirrors -rebuild-bmc for A/B
// measurement of the incremental blast layer.
var (
	validateWitness bool
	rebuildBMC      bool
)

func banner(name string) {
	fmt.Printf("\n===== %s =====\n", name)
}

// witnessSuffix renders the independent-validation outcome for a
// result line, empty when validation was off or produced nothing.
func witnessSuffix(res *verdict.Result) string {
	if res.Witness == "" {
		return ""
	}
	return fmt.Sprintf(" [witness: %s]", res.Witness)
}

// table1 regenerates the incident-study aggregation.
func table1() {
	fmt.Print(incidents.FormatTable1(incidents.Table1(incidents.Dataset())))
	fmt.Println("(53 studied incidents: 42 Google Cloud 2017-2019, 11 Amazon AWS 2011-2019)")
}

// fig2 regenerates the pod-placement oscillation series.
func fig2() {
	series, cluster := verdict.SimulateFigure2(verdict.Figure2Config{})
	fmt.Println("minute worker")
	for _, s := range series {
		fmt.Printf("%6d %6d\n", s.Minute, s.Worker)
	}
	evicts := 0
	for _, e := range cluster.Events {
		if e.Action == "evict" {
			evicts++
		}
	}
	fmt.Printf("transitions=%d evictions=%d (descheduler every 2 min, request 50%%, threshold 45%%)\n",
		verdict.SimTransitions(series), evicts)
}

// fig5 regenerates the case-study-1 counterexample.
func fig5() {
	m, err := verdict.BuildRollout(verdict.RolloutConfig{
		Topo: verdict.TestTopology(), P: 1, K: 2, M: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	res, err := verdict.FindCounterexample(m.Sys, m.Property,
		verdict.Options{MaxDepth: 12, ValidateWitness: validateWitness})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("G(converged -> available >= 1), p=1 k=2: %s%s\n", res, witnessSuffix(res))
	if res.Trace == nil {
		log.Fatal("expected a counterexample")
	}
	if err := verdict.ValidateTrace(m.Sys, res.Trace); err != nil {
		log.Fatal(err)
	}
	// The figure's caption row: available per step.
	var avail []string
	for _, st := range res.Trace.States {
		v, _ := st.Get("available")
		avail = append(avail, v.String())
	}
	fmt.Printf("available per step (cf. Figure 5): %s\n", strings.Join(avail, ", "))
	fmt.Printf("found in %v; trace:\n%s", time.Since(start).Round(time.Millisecond), res.Trace)
}

// synth regenerates the parameter-synthesis result.
func synth() {
	m, err := verdict.BuildRollout(verdict.RolloutConfig{
		Topo: verdict.TestTopology(), SynthP: true, PMax: 4, K: 1, M: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := verdict.SynthesizeParams(m.Sys, m.Property, verdict.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("safe non-zero p for k=1, m=1: %v (paper: p ∈ {1, 2})\n", res.Safe)
	fmt.Printf("unsafe: %v\n", res.Unsafe)
}

// lbecmp regenerates case study 2: both liveness properties violated
// with synthesized rational traffic parameters.
func lbecmp() {
	m := verdict.BuildLBECMP(verdict.DefaultLBECMP())
	for _, c := range []struct {
		name string
		phi  *verdict.LTL
	}{
		{"F(G(stable))", m.PropertyFG},
		{"stable -> F(G(stable))", m.PropertyCond},
	} {
		res, err := verdict.FindCounterexample(m.Sys, c.phi,
			verdict.Options{MaxDepth: 10, ValidateWitness: validateWitness})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s -> %s%s\n", c.name, res, witnessSuffix(res))
		if res.Trace != nil {
			if err := verdict.ValidateTrace(m.Sys, res.Trace); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  params: ta=%s tb=%s e=%s, lasso length %d (loop at %d)\n",
				res.Trace.Params["ta"], res.Trace.Params["tb"], res.Trace.Params["e"],
				res.Trace.Len(), res.Trace.LoopStart)
		}
	}
}

// fig6 regenerates the scalability sweep: per topology, the time to
// find the violation at the critical k, and verification times for
// k = 0, 1, 2 under a wall-clock budget.
//
// Every (topology, k) cell is an independent verification problem, so
// the cells fan out over a worker pool (-workers). Results land in
// per-cell slots and the table prints in a fixed order once the sweep
// finishes, so the output is identical for any worker count.
//
// With -checkpoint set, each finished cell is persisted (key =
// "<topology>/<slot>") through an atomic temp-file rename; a run
// killed mid-sweep restarts with -resume, which replays the recorded
// rows verbatim and computes only the missing cells — the merged table
// is identical to an uninterrupted run's.
// With -abstract every cell runs through the symmetry quotient
// (verdict.CheckAbstract): the quotient is checked by the portfolio,
// spurious counterexamples drive CEGAR splits, and violated cells
// report a concrete replay-certified trace. Cell text gains the
// refinement count (rN) so the table shows how much of the partition
// survived.
func fig6(ctx context.Context, budget time.Duration, maxFatTree int, engine string, workers int, stats bool, ckptPath string, resume bool, abstract bool) {
	type tc struct {
		name  string
		topo  *verdict.Topology
		kViol int // failures needed to isolate the front-end
	}
	cases := []tc{{"test", verdict.TestTopology(), 2}}
	for k := 4; k <= maxFatTree; k += 2 {
		cases = append(cases, tc{fmt.Sprintf("fattree%d", k), verdict.FatTree(k), k / 2})
	}

	// Flatten the sweep into independent cells: per topology, one
	// violation run at the critical k plus verification runs for
	// k = 0, 1, 2 (the property holds below the critical k for every
	// topology here except test/fattree4 at k=2, mirroring the paper's
	// footnote 6).
	const perCase = 4 // violation + k=0,1,2
	type cellOut struct {
		Text  string `json:"text"`
		Stats string `json:"stats,omitempty"`
	}
	var ckpt *resilience.Checkpoint
	if ckptPath != "" {
		var err error
		ckpt, err = resilience.OpenCheckpoint(ckptPath, resume)
		if err != nil {
			log.Fatal(err)
		}
		defer ckpt.Flush()
		if resume && ckpt.Len() > 0 {
			fmt.Printf("resuming: %d of %d cells already in %s\n", ckpt.Len(), len(cases)*perCase, ckptPath)
		}
	}
	cells := make([]cellOut, len(cases)*perCase)
	err := pool.Run(ctx, workers, len(cells), func(ctx context.Context, i int) error {
		c := cases[i/perCase]
		slot := i % perCase
		key := fmt.Sprintf("%s/%d", c.name, slot)
		if ckpt != nil && resume {
			var cell cellOut
			if ckpt.Lookup(key, &cell) {
				cells[i] = cell
				return nil
			}
		}
		done := func(cell cellOut) error {
			cells[i] = cell
			if ckpt != nil {
				return ckpt.Mark(key, cell)
			}
			return nil
		}
		opts := verdict.Options{Timeout: budget, Context: ctx, ValidateWitness: validateWitness, RebuildBMC: rebuildBMC}
		if abstract {
			kk := c.kViol
			if slot > 0 {
				kk = slot - 1
			}
			opts.MaxDepth = 30
			start := time.Now()
			ares, err := verdict.CheckAbstract(
				verdict.RolloutConfig{Topo: c.topo, P: 1, K: kk, M: 1},
				verdict.AbstractOptions{MC: opts})
			if err != nil {
				return err
			}
			el := time.Since(start).Round(time.Millisecond)
			if ares.Status == verdict.Unknown {
				return done(cellOut{fmt.Sprintf("k=%d timeout(>%v)", kk, budget), ares.Stats.String()})
			}
			prefix := fmt.Sprintf("k=%d %v", kk, el)
			if slot == 0 {
				prefix = fmt.Sprintf("%v k=%d", el, kk)
			}
			return done(cellOut{fmt.Sprintf("%s %s r%d%s", prefix, ares.Status, ares.Refinements, witnessSuffix(ares.Result)),
				ares.Stats.String()})
		}
		if slot == 0 {
			m, err := verdict.BuildRollout(verdict.RolloutConfig{Topo: c.topo, P: 1, K: c.kViol, M: 1})
			if err != nil {
				return err
			}
			opts.MaxDepth = 10
			start := time.Now()
			res, err := verdict.FindCounterexample(m.Sys, m.Property, opts)
			if err != nil {
				return err
			}
			return done(cellOut{fmt.Sprintf("%v k=%d %s%s", time.Since(start).Round(time.Millisecond), c.kViol, res.Status, witnessSuffix(res)), res.Stats.String()})
		}
		k := slot - 1
		m, err := verdict.BuildRollout(verdict.RolloutConfig{Topo: c.topo, P: 1, K: k, M: 1})
		if err != nil {
			return err
		}
		start := time.Now()
		var r *verdict.Result
		if engine == "bdd" {
			r, err = verdict.CheckInvariantBDD(m.Sys, m.SafetyPredicate(), opts)
		} else {
			opts.MaxDepth = 30
			r, err = verdict.Check(m.Sys, m.Property, opts)
		}
		if err != nil {
			return err
		}
		el := time.Since(start).Round(time.Millisecond)
		if r.Status == verdict.Unknown {
			return done(cellOut{fmt.Sprintf("k=%d timeout(>%v)", k, budget), r.Stats.String()})
		}
		return done(cellOut{fmt.Sprintf("k=%d %v %s%s", k, el, r.Status, witnessSuffix(r)), r.Stats.String()})
	})
	if err != nil {
		if ctx.Err() != nil {
			if ckpt != nil {
				log.Fatalf("fig6 interrupted — finished cells saved, rerun with -checkpoint %s -resume to continue", ckptPath)
			}
			log.Fatal("fig6 interrupted")
		}
		log.Fatal(err)
	}

	fmt.Printf("%-10s %8s %8s | %-14s | %s\n", "topology", "nodes", "links", "violation(kv)", "verification k=0,1,2")
	for ci, c := range cases {
		var ver []string
		for k := 0; k <= 2; k++ {
			ver = append(ver, cells[ci*perCase+1+k].Text)
		}
		fmt.Printf("%-10s %8d %8d | %-14s | %s\n", c.name, len(c.topo.Nodes), len(c.topo.Links), cells[ci*perCase].Text, strings.Join(ver, ", "))
		if stats {
			for slot := 0; slot < perCase; slot++ {
				if s := cells[ci*perCase+slot].Stats; s != "" {
					fmt.Printf("    stats[%s/%d]: %s\n", c.name, slot, s)
				}
			}
		}
	}
}
