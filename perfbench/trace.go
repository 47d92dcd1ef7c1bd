package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Tracing. Spans are recorded in memory from the benchmark's own code,
// around every call into the program, and written out when the run
// ends. A nil *tracer records nothing, which is the untraced mode.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     string `json:"op"`     // the operation the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(op, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(op, name string, parent int, fn func()) {
	id := t.begin(op, name, parent)
	fn()
	t.end(id)
}

// selfTimes is each span's duration minus the time its children
// cover. Children of one span run one after another on one goroutine,
// so their durations add without overlap.
func (t *tracer) selfTimes() map[int]time.Duration {
	self := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] += time.Duration(s.End - s.Start)
		if s.Parent != 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// selfByName groups self times by span name.
func (t *tracer) selfByName() map[string][]time.Duration {
	self := t.selfTimes()
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], self[s.ID])
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durationsMS converts to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
