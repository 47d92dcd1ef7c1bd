// Command verdict checks models of self-driving infrastructure
// control loops.
//
// Check every spec of a textual model:
//
//	verdict -model cluster.vsmv
//
// Synthesize safe parameter values instead of checking:
//
//	verdict -model cluster.vsmv -synth
//
// Run a built-in scenario from the paper:
//
//	verdict -scenario rollout     # case study 1 (Figure 5)
//	verdict -scenario lbecmp      # case study 2 (LB+ECMP oscillation)
//
// The rollout scenario takes -topo/-p/-k/-m, and -abstract verifies it
// over the symmetry quotient (CEGAR-refined, replay-certified) so fat
// trees far past the paper's fattree12 decide in minutes:
//
//	verdict -scenario rollout -topo fattree16 -k 2 -abstract
//
//	verdict -scenario taint       # Kubernetes issue #75913
//	verdict -scenario hpa         # Kubernetes issue #90461
//	verdict -scenario descheduler # §3.3 oscillation
//	verdict -scenario bigquery    # Google incident #18037
//
// Submit a check to a verdictd daemon instead of running it locally:
//
//	verdict remote check -server http://host:8080 -model cluster.vsmv
//
// Continuously verify a stream of cluster config-change events,
// locally or against a daemon (see cmd/verdict/watch.go):
//
//	verdict watch -events examples/streams/rollout-events.jsonl
//	verdict watch -events - -server http://host:8080
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"verdict"
	"verdict/internal/buildinfo"
)

var (
	// showStats mirrors -stats; retryPolicy mirrors -retry-budgets
	// (zero Attempts = single run).
	showStats   bool
	retryPolicy verdict.RetryPolicy
	// useAbstract mirrors -abstract; scenarioTopo/P/K/M mirror the
	// -topo/-p/-k/-m knobs of the rollout scenario.
	useAbstract  bool
	scenarioTopo string
	scenarioP    int
	scenarioK    int
	scenarioM    int
	// violated records that some checked property failed, so main can
	// exit 1. Exit codes follow the grep convention: 0 = every property
	// holds (or is unknown), 1 = a violation was found, 2 = the check
	// itself could not run (bad input, engine failure, transport error).
	violated bool
)

// die reports a failure of the tool itself — bad input, an engine
// error — and exits 2, keeping exit 1 reserved for "property violated".
func die(v ...any) {
	log.Print(v...)
	os.Exit(2)
}

func dief(format string, args ...any) {
	log.Printf(format, args...)
	os.Exit(2)
}

// check races the engine portfolio under the -retry-budgets ladder.
func check(sys *verdict.System, phi *verdict.LTL, opts verdict.Options) (*verdict.Result, error) {
	return verdict.CheckWithRetry(sys, phi, opts, retryPolicy)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("verdict: ")
	// Subcommands sit in front of the flag set: `verdict remote ...`
	// and `verdict watch ...` have their own flags (notably -server),
	// so they must dispatch before flag.Parse sees the arguments.
	if len(os.Args) > 1 && os.Args[1] == "remote" {
		os.Exit(runRemote(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "watch" {
		os.Exit(runWatch(os.Args[2:]))
	}
	var (
		modelPath = flag.String("model", "", "path to a .vsmv model file")
		scenario  = flag.String("scenario", "", "built-in scenario: rollout, lbecmp, taint, hpa, descheduler, bigquery")
		synth     = flag.Bool("synth", false, "synthesize safe parameter values instead of checking")
		depth     = flag.Int("depth", 25, "maximum BMC/induction depth")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget (0 = none)")
		fullTrace = flag.Bool("full-trace", false, "print every variable in every trace state")
		verify    = flag.Bool("verify", true, "replay counterexample traces through the semantics")
		validate  = flag.Bool("validate", false, "independently validate every verdict's evidence: counterexamples are replayed and checked to violate the property, proof certificates are re-checked by direct evaluation")
		stats     = flag.Bool("stats", false, "print per-engine statistics (SAT conflicts/decisions/propagations, BDD nodes, time per depth)")
		satBudget = flag.Int64("sat-budget", 0, "CDCL conflict budget per solver; exhaustion degrades the verdict to unknown (0 = unlimited)")
		bddBudget = flag.Int("bdd-budget", 0, "BDD arena node budget; exhaustion degrades the verdict to unknown (0 = unlimited)")
		retries   = flag.Int("retry-budgets", 0, "on an unknown verdict, re-run up to N times with the -sat-budget/-bdd-budget/-timeout budgets scaled 4x each retry (0 = single run)")
		abstr     = flag.Bool("abstract", false, "with -scenario rollout: verify over the symmetry quotient with CEGAR refinement instead of the concrete state space (violations are concretized and certified by replay)")
		topoName  = flag.String("topo", "test", "with -scenario rollout: topology (test, fattreeN, lb)")
		rolloutP  = flag.Int("p", 1, "with -scenario rollout: max concurrently-updating nodes")
		rolloutK  = flag.Int("k", 2, "with -scenario rollout: link-failure budget")
		rolloutM  = flag.Int("m", 1, "with -scenario rollout: availability floor in G(converged -> available >= m)")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("verdict"))
		return
	}

	showStats = *stats
	useAbstract = *abstr
	scenarioTopo, scenarioP, scenarioK, scenarioM = *topoName, *rolloutP, *rolloutK, *rolloutM
	if useAbstract && (*scenario != "rollout" || *synth) {
		die("-abstract applies to -scenario rollout (and not -synth): the quotient abstracts the rollout state space")
	}
	if *retries > 0 {
		if *satBudget == 0 && *bddBudget == 0 && *timeout == 0 {
			die("-retry-budgets needs a budget to escalate: set -sat-budget, -bdd-budget or -timeout")
		}
		retryPolicy = verdict.RetryPolicy{Attempts: *retries, Factor: 4}
	}
	opts := verdict.Options{MaxDepth: *depth, Timeout: *timeout, ValidateWitness: *validate,
		Budget: verdict.Budget{SATConflicts: *satBudget, BDDNodes: *bddBudget}}
	if retryPolicy.Attempts > 0 {
		// Under a retry ladder the wall clock is a per-attempt budget to
		// escalate, not a fixed cap, so it moves into the Budget.
		opts.Budget.Time, opts.Timeout = *timeout, 0
	}
	switch {
	case *modelPath != "":
		runModel(*modelPath, *synth, *fullTrace, *verify, opts)
	case *scenario != "":
		runScenario(*scenario, *synth, *fullTrace, *verify, opts)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if violated {
		os.Exit(1)
	}
}

func runModel(path string, synth, fullTrace, verify bool, opts verdict.Options) {
	src, err := os.ReadFile(path)
	if err != nil {
		die(err)
	}
	prog, err := verdict.ParseModel(string(src))
	if err != nil {
		die(err)
	}
	if len(prog.LTLSpecs) == 0 && len(prog.CTLSpecs) == 0 {
		die("model has no LTLSPEC or CTLSPEC sections")
	}
	for i, spec := range prog.LTLSpecs {
		if synth {
			res, err := verdict.SynthesizeParams(prog.Sys, spec, opts)
			if err != nil {
				die(err)
			}
			fmt.Printf("LTLSPEC %d: %s\n  safe  : %v\n  unsafe: %v\n", i, spec, res.Safe, res.Unsafe)
			continue
		}
		res, err := check(prog.Sys, spec, opts)
		if err != nil {
			die(err)
		}
		report(prog.Sys, fmt.Sprintf("LTLSPEC %d: %s", i, spec), res, fullTrace, verify)
	}
	for i, spec := range prog.CTLSpecs {
		res, err := verdict.CheckCTL(prog.Sys, spec, opts)
		if err != nil {
			die(err)
		}
		report(prog.Sys, fmt.Sprintf("CTLSPEC %d: %s", i, spec), res, fullTrace, verify)
	}
}

func runScenario(name string, synth, fullTrace, verify bool, opts verdict.Options) {
	switch name {
	case "rollout":
		g, err := verdict.TopologyByName(scenarioTopo)
		if err != nil {
			die(err)
		}
		cfg := verdict.RolloutConfig{Topo: g, P: scenarioP, K: scenarioK, M: scenarioM}
		if synth {
			cfg = verdict.RolloutConfig{Topo: g, SynthP: true, PMax: 4, K: 1, M: scenarioM}
		}
		label := fmt.Sprintf("G(converged -> available >= %d) [%s, p=%d, k=%d]",
			cfg.M, scenarioTopo, cfg.P, cfg.K)
		if useAbstract {
			ares, err := verdict.CheckAbstract(cfg, verdict.AbstractOptions{MC: opts})
			if err != nil {
				die(err)
			}
			fmt.Printf("abstract: %d classes / %d link classes, %d vars vs %d concrete, %d refinements (%d spurious)\n",
				ares.Classes, ares.LinkClasses, ares.QuotientVars, ares.ConcreteVars, ares.Refinements, ares.Spurious)
			m, err := verdict.BuildRollout(cfg)
			if err != nil {
				die(err)
			}
			report(m.Sys, label, ares.Result, fullTrace, verify)
			return
		}
		m, err := verdict.BuildRollout(cfg)
		if err != nil {
			die(err)
		}
		if synth {
			res, err := verdict.SynthesizeParams(m.Sys, m.Property, opts)
			if err != nil {
				die(err)
			}
			fmt.Printf("safe p: %v\nunsafe p: %v\n", res.Safe, res.Unsafe)
			return
		}
		res, err := check(m.Sys, m.Property, opts)
		if err != nil {
			die(err)
		}
		report(m.Sys, label, res, fullTrace, verify)
	case "lbecmp":
		m := verdict.BuildLBECMP(verdict.DefaultLBECMP())
		res, err := verdict.FindCounterexample(m.Sys, m.PropertyCond, opts)
		if err != nil {
			die(err)
		}
		report(m.Sys, "stable -> F(G(stable))", res, fullTrace, verify)
	case "taint":
		m := verdict.BuildTaintLoop(verdict.TaintLoopConfig{SynthRespect: synth})
		if synth {
			res, err := verdict.SynthesizeParams(m.Sys, m.Property, opts)
			if err != nil {
				die(err)
			}
			fmt.Printf("safe: %v\nunsafe: %v\n", res.Safe, res.Unsafe)
			return
		}
		res, err := check(m.Sys, m.Property, opts)
		if err != nil {
			die(err)
		}
		report(m.Sys, "F(G(stable)) — issue #75913", res, fullTrace, verify)
	case "hpa":
		m, err := verdict.BuildHPASurge(verdict.HPASurgeConfig{
			MaxReplicas: 8, InitialDesired: 2, MaxSurge: 1, HPABug: !synth, SynthBug: synth,
		})
		if err != nil {
			die(err)
		}
		if synth {
			res, err := verdict.SynthesizeParams(m.Sys, m.Property, opts)
			if err != nil {
				die(err)
			}
			fmt.Printf("safe: %v\nunsafe: %v\n", res.Safe, res.Unsafe)
			return
		}
		res, err := verdict.ProveInvariant(m.Sys, m.Bound, opts)
		if err != nil {
			die(err)
		}
		report(m.Sys, "G(desired <= 2) — issue #90461", res, fullTrace, verify)
	case "bigquery":
		m, err := verdict.BuildIncident18037(verdict.Incident18037Config{
			AbuseThreshold: 1, SynthThreshold: synth,
		})
		if err != nil {
			die(err)
		}
		if synth {
			res, err := verdict.SynthesizeParams(m.Sys, m.Property, opts)
			if err != nil {
				die(err)
			}
			fmt.Printf("safe abuse thresholds: %v\nunsafe: %v\n", res.Safe, res.Unsafe)
			return
		}
		res, err := check(m.Sys, m.Property, opts)
		if err != nil {
			die(err)
		}
		report(m.Sys, "G(!rejecting) — Google incident #18037", res, fullTrace, verify)
	case "descheduler":
		m := verdict.BuildDescheduler(verdict.DeschedulerConfig{
			RequestCPU: 50, Threshold: 45, SynthThreshold: synth,
		})
		if synth {
			res, err := verdict.SynthesizeParams(m.Sys, m.Property, opts)
			if err != nil {
				die(err)
			}
			fmt.Printf("%d safe thresholds, %d unsafe\n", len(res.Safe), len(res.Unsafe))
			return
		}
		res, err := check(m.Sys, m.Property, opts)
		if err != nil {
			die(err)
		}
		report(m.Sys, "F(G(stable)) — §3.3 oscillation", res, fullTrace, verify)
	default:
		dief("unknown scenario %q", name)
	}
}

func report(sys *verdict.System, what string, res *verdict.Result, fullTrace, verify bool) {
	fmt.Printf("%s\n  -> %s\n", what, res)
	if res.Status == verdict.Violated {
		violated = true
	}
	if res.Witness != "" {
		fmt.Printf("  witness: %s\n", res.Witness)
	}
	if showStats && res.Stats != nil {
		fmt.Printf("  stats: %s\n", res.Stats)
	}
	if res.Trace == nil {
		return
	}
	fmt.Println("counterexample:")
	if fullTrace {
		fmt.Print(res.Trace.Full())
	} else {
		fmt.Print(res.Trace)
	}
	if verify {
		if err := verdict.ValidateTrace(sys, res.Trace); err != nil {
			dief("trace failed validation: %v", err)
		}
		fmt.Println("-- trace validated against the system semantics")
	}
}
