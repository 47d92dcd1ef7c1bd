package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"verdict/internal/server"
)

// Closed-loop clients. Each sends its next operation only after the
// previous one completed, over its own HTTP client, so the load never
// has more requests in flight than there are clients.

const opTimeout = 60 * time.Second

func newHTTPClient() *http.Client {
	return &http.Client{Timeout: opTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

type caller struct {
	hc    *http.Client
	token string
}

// call sends one request and decodes a JSON reply into out when the
// status is 2xx.
func (c *caller) call(method, url string, body []byte, class string, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	if class != "" {
		req.Header.Set(server.HeaderClass, class)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding reply: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// checkClient behaves like `verdict remote check -wait`: submit, then
// long-poll the verdict. Op i goes to node (i+client) mod len(nodes).
// With pace > 0 an op starts at most every pace, and an op that
// overruns its slot is followed at once, with no catch-up burst.
func checkClient(c *caller, nodes []string, gen *checkGen, client int, pace time.Duration, stop *atomic.Bool, tr *tracer) ([]opRecord, error) {
	var ops []opRecord
	next := time.Now()
	for !stop.Load() {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(pace)
		op := gen.next()
		node := nodes[(op.Index+client)%len(nodes)]
		opID := fmt.Sprintf("check%d/%d", client, op.Index)
		rec := opRecord{client: client, index: op.Index, kind: op.Kind, class: "refused", body: op.Body, want: op.Want, start: time.Now()}
		root := tr.begin(opID, "op.check", 0)
		var cr server.CheckResponse
		sub := tr.begin(opID, "http.submit", root)
		code, err := c.call(http.MethodPost, node+"/v1/checks", op.Body, op.Class, &cr)
		tr.end(sub)
		if err == nil && (code == http.StatusOK || code == http.StatusAccepted) {
			rec.class = "miss"
			if code == http.StatusOK || cr.Cached {
				rec.class = "hit"
			}
			if cr.Status != server.StatusDone && cr.Status != server.StatusFailed {
				wait := tr.begin(opID, "http.wait", root)
				code, err = c.call(http.MethodGet, node+"/v1/checks/"+cr.ID+"?wait=1", nil, "", &cr)
				tr.end(wait)
			}
		}
		rec.lat = time.Since(rec.start)
		tr.end(root)
		if code == http.StatusAccepted {
			code = http.StatusOK // settled before the submit replied
		}
		rec.why = failure(code, err, cr.Status+" "+cr.Error)
		if err == nil && code == http.StatusOK && cr.Status == server.StatusDone && cr.Result != nil {
			got := cr.Result.Status.String()
			rec.why = "verdict " + got
			if verr := checkVerdict(fmt.Sprintf("check %s (%s)", cr.ID, op.Kind), op.Want, got, cr.Witness); verr != nil {
				return ops, verr
			}
			rec.ok = got == op.Want
			rec.res = cr.Result
		}
		ops = append(ops, rec)
		if now := time.Now(); next.Before(now) {
			next = now
		}
	}
	return ops, nil
}

// watchClient behaves like `verdict watch -server`: post each event
// batch, then wait for its verify pass. The op is timed from the POST
// until the wait returns.
func watchClient(c *caller, node string, gen *watchGen, stop *atomic.Bool, tr *tracer) ([]opRecord, error) {
	var ops []opRecord
	for !stop.Load() {
		b := gen.next()
		opID := fmt.Sprintf("watch/%d", b.Index)
		rec := opRecord{client: -1, index: b.Index, kind: b.Kind, class: "watch", events: b.Events, start: time.Now()}
		root := tr.begin(opID, "op.watch", 0)
		var ack server.WatchEventsResponse
		var st server.WatchStatusResponse
		sub := tr.begin(opID, "http.submit", root)
		code, err := c.call(http.MethodPost, node+"/v1/events", b.Body, "", &ack)
		tr.end(sub)
		if err == nil && code == http.StatusAccepted {
			wait := tr.begin(opID, "http.wait", root)
			code, err = c.call(http.MethodGet, node+"/v1/watch/"+watchSession+"?wait_seq="+strconv.FormatUint(ack.Seq, 10), nil, "", &st)
			tr.end(wait)
		}
		rec.lat = time.Since(rec.start)
		tr.end(root)
		rec.why = failure(code, err, fmt.Sprintf("verified seq %d < %d", st.VerifiedSeq, ack.Seq))
		if err == nil && code == http.StatusOK && st.VerifiedSeq >= ack.Seq {
			rec.why = "inconclusive or missing property"
			ok, verr := watchVerdicts(b, st)
			if verr != nil {
				return ops, verr
			}
			rec.ok = ok
		}
		ops = append(ops, rec)
	}
	return ops, nil
}

// failure describes why an op did not settle.
func failure(code int, err error, settled string) string {
	switch {
	case err != nil:
		return err.Error()
	case code != http.StatusOK:
		return fmt.Sprintf("HTTP %d", code)
	}
	return settled
}

// watchVerdicts checks a settled session against the batch's known
// answers; ok is false when a property is missing or inconclusive.
func watchVerdicts(b watchBatch, st server.WatchStatusResponse) (bool, error) {
	ok := true
	for _, name := range sortedKeys(b.Want) {
		found := false
		for _, p := range st.Props {
			if p.Name != name {
				continue
			}
			found = true
			if err := checkVerdict(fmt.Sprintf("watch batch %d (%s) %s", b.Index, b.Kind, name), b.Want[name], p.Verdict, p.Witness); err != nil {
				return false, err
			}
			ok = ok && p.Verdict == b.Want[name]
		}
		ok = ok && found
	}
	return ok, nil
}

// clientFunc is one closed-loop client of a phase.
type clientFunc func(stop *atomic.Bool, tr *tracer) ([]opRecord, error)

// phase is one measured window against a running fleet.
type phase struct {
	all      []opRecord // every op, warm-up included, in client order
	measured []opRecord // ops started inside the window
	wall     time.Duration
	delta    []promSample // per node, over the window
	mon      monitorStats
	rss      float64
}

const warmup = time.Second

// runPhase starts the clients, lets them warm up, then measures for
// the workload's seconds: /metrics is scraped at both ends of the
// window and sampled each second in between.
func runPhase(e *env, f fleet, clients []clientFunc, tr *tracer) (*phase, error) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	results := make([][]opRecord, len(clients))
	errs := make([]error, len(clients))
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl clientFunc) {
			defer wg.Done()
			results[i], errs[i] = cl(&stop, tr)
			if errs[i] != nil {
				stop.Store(true)
			}
		}(i, cl)
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	time.Sleep(warmup)
	before, err := f.scrape(hc)
	if err != nil {
		stop.Store(true)
		wg.Wait()
		return nil, err
	}
	from := time.Now()
	mon := startMonitor(f, hc)
	for time.Since(from) < e.seconds && !stop.Load() {
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	wall := time.Since(from)
	monStats := mon.stop()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	after, err := f.scrape(hc)
	if err != nil {
		return nil, err
	}
	p := &phase{wall: wall, mon: monStats, rss: f.peakRSSMB()}
	for i := range f {
		p.delta = append(p.delta, delta(before[i], after[i]))
	}
	for _, ops := range results {
		p.all = append(p.all, ops...)
		for _, o := range ops {
			if !o.start.Before(from) {
				p.measured = append(p.measured, o)
			}
		}
	}
	return p, nil
}

// monitorStats are the per-second samples of a window.
type monitorStats struct {
	samples        int
	brownoutMax    float64
	peersMin       float64
	suspectSamples int // node samples with fewer than fleet−1 healthy peers
}

type monitor struct {
	done chan struct{}
	out  chan monitorStats
}

func startMonitor(f fleet, hc *http.Client) *monitor {
	m := &monitor{done: make(chan struct{}), out: make(chan monitorStats, 1)}
	go func() {
		st := monitorStats{peersMin: float64(len(f) - 1)}
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-m.done:
				m.out <- st
				return
			case <-tick.C:
			}
			for _, d := range f {
				s, err := scrape(hc, d.url)
				if err != nil {
					continue
				}
				st.samples++
				st.brownoutMax = max(st.brownoutMax, s.sum("verdictd_brownout_level"))
				if len(f) > 1 {
					peers := s.sum("verdictd_cluster_peers_healthy")
					st.peersMin = min(st.peersMin, peers)
					if peers < float64(len(f)-1) {
						st.suspectSamples++
					}
				}
			}
		}
	}()
	return m
}

func (m *monitor) stop() monitorStats {
	close(m.done)
	return <-m.out
}

// healthzRTT is the median GET /healthz round trip in microseconds:
// the transport floor under every request.
func healthzRTT(base string) float64 {
	hc := newHTTPClient()
	var xs []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		resp, err := hc.Get(base + "/healthz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		xs = append(xs, float64(time.Since(start))/float64(time.Microsecond))
	}
	return median(xs)
}
