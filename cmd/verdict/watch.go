package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"time"

	"verdict"
	"verdict/internal/cluster"
	"verdict/internal/incidents"
	"verdict/internal/server"
	"verdict/internal/watch"
	"verdict/internal/watch/extract"
)

// runWatch is the `verdict watch` subcommand — continuous verification
// of a live stream of cluster config changes. It reads one JSON event
// per line (see internal/watch/extract.Event; blank lines and #
// comments are skipped), folds each into a running cluster
// configuration, extracts the affected control-loop models, and
// re-verifies only the properties whose model actually changed.
//
// Verify locally, replaying a recorded stream:
//
//	verdict watch -events examples/streams/rollout-events.jsonl
//
// Keep watching a file that a controller appends to:
//
//	verdict watch -events /var/log/cluster-events.jsonl -follow
//
// Or stream into a verdictd daemon, sharing its cluster-wide result
// cache and journal-backed session recovery:
//
//	kubectl get events -w -o json | verdict watch -events - -server http://host:8080
//
// Exit codes follow the rest of the tool: 0 = the stream ended with
// every property holding, 1 = at least one invariant broke (an
// incident, with its counterexample trace, was reported), 2 = the
// watch itself could not run.
func runWatch(args []string) int {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	var (
		eventsPath = fs.String("events", "-", `event stream: a JSON-lines file, or "-" for stdin`)
		follow     = fs.Bool("follow", false, "keep reading the -events file as it grows (files only; streams never -follow past EOF on stdin)")
		serverURL  = fs.String("server", "", "verdictd base URL; empty verifies locally, in-process")
		session    = fs.String("session", "", "watch session id on the daemon (empty = fresh random session; an existing id attaches to it, e.g. after a daemon restart)")
		debounce   = fs.Duration("debounce", 0, "burst-coalescing window: how long a verify pass waits for follow-up events")
		depth      = fs.Int("depth", 25, "maximum BMC/induction depth (local mode)")
		timeout    = fs.Duration("timeout", 0, "wall-clock budget per property re-check (local mode, 0 = none)")
		fullTrace  = fs.Bool("full-trace", false, "print every variable in every counterexample state")
		wait       = fs.Duration("wait", 5*time.Minute, "how long to wait for the final verify pass after the stream ends")
		retries    = fs.Int("retries", 4, "transient-failure retries per HTTP call (remote mode)")
		retryBase  = fs.Duration("retry-base", 100*time.Millisecond, "first backoff step for HTTP retries (remote mode)")
		token      = fs.String("token", "", "tenant bearer token for a multi-tenant daemon (remote mode)")
		logBound   = fs.Int("incident-log", 0, fmt.Sprintf("incident-log window: most recent incidents kept per session (0 = default %d)", watch.DefaultMaxIncidentLog))
	)
	fs.Parse(args)
	if *logBound < 0 {
		log.Print("-incident-log must be >= 0")
		return 2
	}

	src, closeSrc, err := openEvents(*eventsPath)
	if err != nil {
		log.Print(err)
		return 2
	}
	defer closeSrc()
	doFollow := *follow && *eventsPath != "-"

	// SIGINT ends a -follow watch gracefully: the verdict so far
	// decides the exit code.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *serverURL != "" {
		return watchRemote(ctx, src, doFollow, *serverURL, *session, *token, *debounce, *wait, *retries, *retryBase, *logBound, *fullTrace)
	}
	return watchLocal(ctx, src, doFollow, *debounce, *depth, *timeout, *wait, *logBound, *fullTrace)
}

func openEvents(path string) (io.Reader, func(), error) {
	if path == "-" {
		return os.Stdin, func() {}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// eachEvent decodes the JSON-lines stream and hands every event to
// emit. In follow mode EOF means "wait for more" until ctx is done;
// otherwise it ends the stream (a final unterminated line still
// counts). A line that does not decode aborts the watch: a config
// stream with garbage in it cannot be trusted to verify.
func eachEvent(ctx context.Context, r io.Reader, follow bool, emit func(extract.Event) error) error {
	br := bufio.NewReader(r)
	var buf strings.Builder
	handle := func(line string) error {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			return nil
		}
		var ev extract.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return fmt.Errorf("bad event line %q: %v", line, err)
		}
		return emit(ev)
	}
	for {
		chunk, err := br.ReadString('\n')
		buf.WriteString(chunk)
		switch {
		case err == nil:
			line := buf.String()
			buf.Reset()
			if err := handle(line); err != nil {
				return err
			}
		case err == io.EOF && follow:
			select {
			case <-time.After(250 * time.Millisecond):
			case <-ctx.Done():
				return nil
			}
		case err == io.EOF:
			if buf.Len() > 0 {
				return handle(buf.String())
			}
			return nil
		default:
			return err
		}
	}
}

// localWatchVerify decides one extracted property with the in-process
// engine portfolio, witness-validating every verdict — the same
// policy verdictd applies, minus the shared cache.
func localWatchVerify(depth int, budget time.Duration) watch.VerifyFunc {
	return func(ctx context.Context, p extract.Property) watch.Outcome {
		prog, err := verdict.ParseModel(p.Source)
		if err != nil {
			return watch.Outcome{Verdict: watch.VerdictFailed, Err: "extracted model does not parse: " + err.Error()}
		}
		if len(prog.LTLSpecs) == 0 {
			return watch.Outcome{Verdict: watch.VerdictFailed, Err: "extracted model has no LTLSPEC"}
		}
		opts := verdict.Options{MaxDepth: depth, Timeout: budget, Context: ctx, ValidateWitness: true}
		res, err := verdict.Check(prog.Sys, prog.LTLSpecs[0], opts)
		if err != nil {
			return watch.Outcome{Verdict: watch.VerdictFailed, Err: err.Error()}
		}
		return watch.Outcome{
			Verdict: res.Status.String(), Engine: res.Engine,
			Witness: res.Witness.String(), Trace: res.Trace,
		}
	}
}

func watchLocal(ctx context.Context, src io.Reader, follow bool, debounce time.Duration, depth int, timeout, wait time.Duration, logBound int, fullTrace bool) int {
	var broke atomic.Int64
	sess := watch.New(watch.Config{
		ID:             "local",
		Verify:         localWatchVerify(depth, timeout),
		Debounce:       debounce,
		MaxIncidentLog: logBound,
		Hooks: watch.Hooks{
			Incident: func(rep incidents.Report) {
				broke.Add(1)
				printIncident(rep, fullTrace)
			},
		},
	})
	defer sess.Close(false)

	var lastSeq uint64
	if err := eachEvent(ctx, src, follow, func(ev extract.Event) error {
		seq, err := sess.Ingest([]extract.Event{ev})
		if err != nil {
			return err
		}
		lastSeq = seq
		return nil
	}); err != nil {
		log.Print(err)
		return 2
	}

	// Drain: the stream is done (or interrupted); wait for the final
	// verify pass so every ingested event has a verdict.
	if lastSeq > 0 {
		wctx, cancel := context.WithTimeout(context.Background(), wait)
		defer cancel()
		if err := sess.Wait(wctx, lastSeq); err != nil {
			log.Printf("final verify pass: %v", err)
			return 2
		}
	}
	snap := sess.Status()
	printProps(snap.Props)
	printSummary(snap.Counters)
	if broke.Load() > 0 {
		return 1
	}
	return 0
}

func watchRemote(ctx context.Context, src io.Reader, follow bool, serverURL, session, token string, debounce, wait time.Duration, retries int, retryBase time.Duration, logBound int, fullTrace bool) int {
	base := cluster.Normalize(serverURL)
	rc := newRetryClient(retries, retryBase)
	rc.token = token

	id, attached, err := openRemoteSession(ctx, rc, base, session, debounce, logBound)
	if err != nil {
		log.Print(err)
		return 2
	}
	if attached {
		fmt.Printf("watch: attached to existing session %s on %s\n", id, base)
	} else {
		fmt.Printf("watch: session %s on %s\n", id, base)
	}

	// Incidents present before this run (an attached session's
	// history) don't fail this invocation. The lifetime counter is the
	// baseline — the incident log itself is a bounded window, so its
	// length can stand still while new incidents displace old ones.
	var seen uint64
	if attached {
		var st server.WatchStatusResponse
		if err := rc.getJSON(ctx, base+"/v1/watch/"+id, &st); err == nil {
			seen = st.Counters.Incidents
		}
	}
	baseline := seen

	var lastSeq uint64
	poll := func(pctx context.Context, seq uint64) (*server.WatchStatusResponse, error) {
		var st server.WatchStatusResponse
		url := fmt.Sprintf("%s/v1/watch/%s?wait_seq=%d", base, id, seq)
		if err := rc.getJSON(pctx, url, &st); err != nil {
			return nil, err
		}
		// The log holds the most recent window; entry i is lifetime
		// incident number total-len+i. Print the ones not yet seen.
		first := st.Counters.Incidents - uint64(len(st.Incidents))
		for i, rep := range st.Incidents {
			if first+uint64(i) >= seen {
				printIncident(rep, fullTrace)
			}
		}
		if st.Counters.Incidents > seen {
			seen = st.Counters.Incidents
		}
		return &st, nil
	}

	if err := eachEvent(ctx, src, follow, func(ev extract.Event) error {
		var ack server.WatchEventsResponse
		raw, _ := json.Marshal(server.WatchEventsRequest{Session: id, Events: []extract.Event{ev}})
		status, body, err := rc.do(ctx, http.MethodPost, base+"/v1/events", raw)
		if err != nil {
			return err
		}
		if status != http.StatusAccepted {
			return fmt.Errorf("ingest: HTTP %d: %s", status, strings.TrimSpace(string(body)))
		}
		if err := json.Unmarshal(body, &ack); err != nil {
			return err
		}
		lastSeq = ack.Seq
		if follow {
			// Live mode trades batch coalescing for immediacy: settle
			// each event before reading the next so incidents surface as
			// they happen.
			if _, err := poll(ctx, lastSeq); err != nil {
				return fmt.Errorf("waiting for seq %d: %w", lastSeq, err)
			}
		}
		return nil
	}); err != nil {
		log.Print(err)
		return 2
	}

	if lastSeq == 0 {
		fmt.Println("watch: empty stream, nothing to verify")
		return 0
	}
	wctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	st, err := poll(wctx, lastSeq)
	if err != nil {
		log.Printf("final verify pass: %v", err)
		return 2
	}
	props := make([]watch.PropState, 0, len(st.Props))
	for _, p := range st.Props {
		props = append(props, watch.PropState{Name: p.Name, Detail: p.Detail, Verdict: p.Verdict, Engine: p.Engine, Witness: p.Witness, Seq: p.Seq})
	}
	printProps(props)
	printSummary(st.Counters)
	if st.Counters.Incidents > baseline {
		return 1
	}
	return 0
}

// openRemoteSession creates the watch session, or attaches when the
// caller named one that already exists (journal recovery keeps
// sessions across daemon restarts, so re-running the same pipeline
// resumes instead of starting over).
func openRemoteSession(ctx context.Context, rc *retryClient, base, session string, debounce time.Duration, logBound int) (id string, attached bool, err error) {
	raw, _ := json.Marshal(server.WatchCreateRequest{ID: session, DebounceMS: debounce.Milliseconds(), IncidentLogMax: logBound})
	status, body, err := rc.do(ctx, http.MethodPost, base+"/v1/watch", raw)
	if err != nil {
		return "", false, err
	}
	switch status {
	case http.StatusCreated:
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &created); err != nil {
			return "", false, err
		}
		return created.ID, false, nil
	case http.StatusConflict:
		if session != "" {
			return session, true, nil
		}
	}
	return "", false, fmt.Errorf("create session: HTTP %d: %s", status, strings.TrimSpace(string(body)))
}

func printIncident(rep incidents.Report, fullTrace bool) {
	fmt.Printf("INCIDENT at seq %d: %s violated — %s\n", rep.Seq, rep.Property, rep.Detail)
	if len(rep.Characteristics) > 0 {
		parts := make([]string, len(rep.Characteristics))
		for i, c := range rep.Characteristics {
			parts[i] = c.String()
		}
		fmt.Printf("  characteristics: %s\n", strings.Join(parts, ", "))
	}
	if rep.Engine != "" {
		fmt.Printf("  engine: %s, witness: %s\n", rep.Engine, rep.Witness)
	}
	if rep.Trace != nil {
		fmt.Println("  counterexample:")
		tr := rep.Trace.String()
		if fullTrace {
			tr = rep.Trace.Full()
		}
		for _, line := range strings.Split(strings.TrimRight(tr, "\n"), "\n") {
			fmt.Println("    " + line)
		}
	}
}

func printProps(props []watch.PropState) {
	for _, p := range props {
		extra := ""
		if p.Engine != "" {
			extra = fmt.Sprintf(" [%s, witness %s]", p.Engine, p.Witness)
		}
		fmt.Printf("  %-24s %-9s %s%s\n", p.Name, p.Verdict, p.Detail, extra)
	}
}

func printSummary(c watch.Counters) {
	fmt.Printf("watch: %d events, %d re-checks run, %d skipped clean, %d coalesced, %d verdict flip(s), %d incident(s)\n",
		c.Events, c.Runs, c.Skipped, c.Coalesced, c.Flips, c.Incidents)
}
