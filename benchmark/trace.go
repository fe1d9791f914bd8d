package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed interval around a call the benchmark makes into a
// layer. Spans of one operation share Op; Parent is the enclosing span's
// ID (0 for an operation's root). Times are nanoseconds since the tracer
// was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so traced and untraced variants share their call sites.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allots the identifier the spans of one operation share.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its ID for end (and for children to name
// as their parent).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += float64(s.End - s.Start - child[s.ID])
	}
	return self
}

// durations returns every span's duration by name, in nanoseconds.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
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

// The share groups of the per-layer report: which part of the stack a
// span's self time is charged to. Anything else — the operation's root
// span, whose self time is generating inputs and checking outputs — is the
// benchmark's own.
var shareGroups = []struct {
	group    string
	prefixes []string
}{
	{"offline", []string{"splitvm.compile"}},
	{"sim", []string{"sim.", "splitvm.run"}},
	{"online", []string{"splitvm.", "core.instantiate"}},
	// A request span is HTTP time unless the serving ladder has measured how
	// it divides among simulator, server, HTTP and router (see shares).
	{"server", nil},
	{"http", []string{"request."}},
	{"router", nil},
}

func shareGroup(spanName string) string {
	for _, g := range shareGroups {
		for _, p := range g.prefixes {
			if strings.HasPrefix(spanName, p) {
				return g.group
			}
		}
	}
	return "bench"
}

// shares turns self times by span name into percentages by share group. A
// span the serving ladder has split is charged to several groups in the
// measured proportions; every other span goes whole to its own group.
func shares(self map[string]float64, split map[string]map[string]float64) map[string]float64 {
	out := map[string]float64{"bench": 0}
	for _, g := range shareGroups {
		out[g.group] = 0
	}
	for name, ns := range self {
		if parts, ok := split[name]; ok {
			for g, f := range parts {
				out[g] += ns * f
			}
			continue
		}
		out[shareGroup(name)] += ns
	}
	total := 0.0
	for _, ns := range out {
		total += ns
	}
	for g := range out {
		out[g] = 100 * out[g] / total
	}
	return out
}
