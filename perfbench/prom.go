package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition: series →
// value, where a series is the metric name followed by its label set
// exactly as exposed, e.g. `verdictd_checks_total{verdict="holds"}`.
type promSample map[string]float64

// parseProm reads the text format: comments and blank lines are
// skipped, every other line is `series value [timestamp]`.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces.
		cut := strings.LastIndexByte(line, '}')
		rest := line[cut+1:]
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		series := strings.TrimSpace(line[:cut+1])
		if cut < 0 {
			series = fields[0]
			fields = fields[1:]
			if len(fields) == 0 {
				return nil, fmt.Errorf("metrics: no value in %q", line)
			}
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

func scrape(hc *http.Client, base string) (promSample, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseProm(resp.Body)
}

// sum adds every series of the metric whose labels contain each of the
// given `key="value"` pairs.
func (p promSample) sum(name string, labels ...string) float64 {
	var total float64
	for series, v := range p {
		if seriesName(series) != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(series, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

func seriesName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// delta is after − before per series: the counters and histogram
// sums/counts accumulated between two scrapes. Gauges keep their
// after value.
func delta(before, after promSample) promSample {
	out := promSample{}
	for series, v := range after {
		out[series] = v - before[series]
	}
	return out
}

// merge adds samples of several nodes series by series.
func merge(samples ...promSample) promSample {
	out := promSample{}
	for _, s := range samples {
		for series, v := range s {
			out[series] += v
		}
	}
	return out
}

// histMeanMS is a histogram's mean in milliseconds over the series
// matching the labels (sum/count of seconds), 0 without observations.
func (p promSample) histMeanMS(name string, labels ...string) float64 {
	count := p.sum(name+"_count", labels...)
	if count == 0 {
		return 0
	}
	return 1000 * p.sum(name+"_sum", labels...) / count
}
