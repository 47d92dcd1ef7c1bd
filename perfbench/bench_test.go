package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"verdict/internal/mc"
	"verdict/internal/server"
	"verdict/internal/smvlang"
	"verdict/internal/watch/extract"
)

func checkBodies(seed uint64, client int, n int) [][]byte {
	g := newCheckGen(seed, client, 400, 200, 1)
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, g.next().Body)
	}
	return out
}

func watchBodies(seed uint64, n int) [][]byte {
	g := newWatchGen(seed)
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, g.next().Body)
	}
	return out
}

func TestStreamsAreSeeded(t *testing.T) {
	for name, gen := range map[string]func(seed uint64) [][]byte{
		"check": func(seed uint64) [][]byte { return checkBodies(seed, 0, 2000) },
		"watch": func(seed uint64) [][]byte { return watchBodies(seed, 2000) },
	} {
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(bytes.Join(a, []byte{'\n'}), bytes.Join(b, []byte{'\n'})) {
			t.Errorf("%s stream: the same seed gave different bytes", name)
		}
		if bytes.Equal(bytes.Join(a, []byte{'\n'}), bytes.Join(c, []byte{'\n'})) {
			t.Errorf("%s stream: seeds 7 and 8 gave identical bytes", name)
		}
	}
}

func TestCheckStreamMix(t *testing.T) {
	g := newCheckGen(1, 0, 400, 200, 1)
	kinds := map[string]int{}
	wants := map[string]int{}
	seen := map[string]bool{}
	for i := 0; i < 4000; i++ {
		op := g.next()
		kinds[op.Kind]++
		wants[op.Want]++
		if op.Kind != "resubmit" {
			if seen[string(op.Body)] && op.Kind != "scenario" {
				t.Fatalf("op %d repeats an earlier textual model", i)
			}
			seen[string(op.Body)] = true
		}
	}
	if r := float64(kinds["resubmit"]) / 4000; r < 0.45 || r > 0.55 {
		t.Errorf("resubmission share %.2f, want about half", r)
	}
	if kinds["scenario"] == 0 || kinds["counter"] == 0 || kinds["guard"] == 0 {
		t.Errorf("kinds %v miss a family", kinds)
	}
	if wants[verdictHolds] == 0 || wants[verdictViolated] == 0 {
		t.Errorf("verdicts %v lack a polarity", wants)
	}
}

// TestKnownAnswers runs the engine on generated inputs and checks the
// oracle agrees: it guards the benchmark against aborting on a correct
// program.
func TestKnownAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine")
	}
	g := newCheckGen(5, 0, 100, 0, 5)
	for i := 0; i < 150; i++ {
		op := g.next()
		var req server.CheckRequest
		if err := json.Unmarshal(op.Body, &req); err != nil {
			t.Fatal(err)
		}
		var res *mc.Result
		var err error
		if req.Scenario != nil {
			cells := fig6CellsFor(req.Scenario.Topo, req.Scenario.K)
			m, berr := buildFig6(cells)
			if berr != nil {
				t.Fatal(berr)
			}
			fm := m[cells[0].Name]
			res, err = mc.Portfolio(fm.model.Sys, fm.model.Property, mc.Options{MaxDepth: req.Options.MaxDepth, Timeout: time.Minute, ValidateWitness: true})
		} else {
			prog, perr := smvlang.Parse(req.Model)
			if perr != nil {
				t.Fatalf("op %d does not parse: %v\n%s", i, perr, req.Model)
			}
			res, err = mc.Portfolio(prog.Sys, prog.LTLSpecs[0], mc.Options{MaxDepth: req.Options.MaxDepth, Timeout: time.Minute, ValidateWitness: true})
		}
		if err != nil {
			t.Fatal(err)
		}
		if verr := checkVerdict(op.Kind, op.Want, res.Status.String(), string(res.Witness)); verr != nil || res.Status == mc.Unknown {
			t.Fatalf("op %d: %v (status %s)\n%s", i, verr, res.Status, req.Model)
		}
	}

	w := newWatchGen(5)
	cfg := extract.NewConfig()
	verdicts := map[string]string{}
	for i := 0; i < 300; i++ {
		b := w.next()
		for _, ev := range b.Events {
			if err := cfg.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		props, err := extract.Extract(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(props) != len(b.Want) {
			t.Fatalf("batch %d: %d properties, oracle knows %d", i, len(props), len(b.Want))
		}
		for _, p := range props {
			got, ok := verdicts[p.Source]
			if !ok {
				prog, err := smvlang.Parse(p.Source)
				if err != nil {
					t.Fatal(err)
				}
				res, err := mc.Portfolio(prog.Sys, prog.LTLSpecs[0], mc.Options{Timeout: time.Minute, ValidateWitness: true})
				if err != nil {
					t.Fatal(err)
				}
				got = res.Status.String()
				verdicts[p.Source] = got
			}
			if got != b.Want[p.Name] {
				t.Fatalf("batch %d (%s): %s is %s, oracle says %s", i, b.Kind, p.Name, got, b.Want[p.Name])
			}
		}
	}
}

func fig6CellsFor(topoName string, k int) []fig6Cell {
	return []fig6Cell{{Name: topoName, Topo: topoName, K: k}}
}

func TestCriticalK(t *testing.T) {
	want := map[string]int{"test": 2, "fattree4": 2, "fattree6": 3, "fattree12": 6}
	for _, c := range fig6Cells() {
		crit := want[c.Topo]
		if (c.K >= crit) != (c.Want == verdictViolated) {
			t.Errorf("%s: want %s with critical k %d", c.Name, c.Want, crit)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON pins the printed metric names and
// units to the benchmark definition at the repository root.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: printed %s (%s), BENCHMARK.json has %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, def.EndToEnd)
	compare("per_layer", perLayer, def.PerLayer)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, the program runs %s", got, want)
	}
	// Every printed metric is measured: rendering a report that lacks
	// one fails.
	if _, err := render(&report{attempted: 1, metrics: map[string]float64{}}, endToEnd); err == nil {
		t.Error("render accepted a report with no metrics")
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP verdictd_checks_total x
# TYPE verdictd_checks_total counter
verdictd_checks_total{verdict="holds"} 3
verdictd_checks_total{verdict="violated"} 4
verdictd_queue_wait_seconds_sum{class="interactive"} 0.5
verdictd_queue_wait_seconds_count{class="interactive"} 5
verdictd_queue_wait_seconds_sum{class="bulk"} 8e-01
verdictd_queue_wait_seconds_count{class="bulk"} 2
verdictd_brownout_level 1
`
	after, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	before := promSample{`verdictd_checks_total{verdict="holds"}`: 1}
	d := delta(before, after)
	if got := d.sum("verdictd_checks_total"); got != 6 {
		t.Errorf("checks delta %g, want 6", got)
	}
	if got := d.sum("verdictd_checks_total", `verdict="violated"`); got != 4 {
		t.Errorf("violated %g, want 4", got)
	}
	if got := d.histMeanMS("verdictd_queue_wait_seconds", `class="interactive"`); got != 100 {
		t.Errorf("interactive mean %g ms, want 100", got)
	}
	if got := d.histMeanMS("verdictd_queue_wait_seconds"); got != 1300.0/7 {
		t.Errorf("mean over classes %g ms, want %g", got, 1300.0/7)
	}
	if got := d.sum("verdictd_brownout_level"); got != 1 {
		t.Errorf("gauge %g, want 1", got)
	}
	if _, err := parseProm(strings.NewReader("verdictd_x{a=\"b\"}\n")); err == nil {
		t.Error("a series without a value parsed")
	}
}

func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]float64{5: 0.5, 39: 0.5, 40: 0.75, 99: 0.75, 100: 0.9, 20000: 0.9} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %g, want %g", n, got, want)
		}
	}
}
