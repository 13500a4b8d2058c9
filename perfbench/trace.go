package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark's own code around the call. Name is "layer.function"; Run
// identifies the request or job the call served; Parent is the span that
// caused it (0 for none).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Run    int64         `json:"run"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID and a function that closes it.
func (t *tracer) begin(name string, parent, run int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.next.Add(1)
	start := time.Since(t.epoch)
	return id, func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: run, Start: start, End: end})
		t.mu.Unlock()
	}
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, run int64, fn func()) {
	_, end := t.begin(name, parent, run)
	fn()
	end()
}

// mark returns the current offset, to select the spans of one phase.
func (t *tracer) mark() time.Duration { return time.Since(t.epoch) }

// window returns the spans that started at or after from and ended at or
// before to.
func (t *tracer) window(from, to time.Duration) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Start >= from && s.End <= to {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.all())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// union returns the total length covered by the intervals.
func union(iv []interval) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
			continue
		}
		if x.hi > cur.hi {
			cur.hi = x.hi
		}
	}
	return total + cur.hi - cur.lo
}

// selfTimes returns each layer's self time: the duration of its spans
// minus the part of each span that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		var clipped []interval
		for _, c := range children[s.ID] {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if hi > lo {
				clipped = append(clipped, interval{lo, hi})
			}
		}
		out[s.layer()] += s.dur() - union(clipped)
	}
	return out
}

// coverage returns the wall time the spans cover (at least one span open).
func coverage(spans []span) time.Duration {
	iv := make([]interval, len(spans))
	for i, s := range spans {
		iv[i] = interval{s.Start, s.End}
	}
	return union(iv)
}

// byName groups span durations by span name.
func byName(spans []span) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur())
	}
	return out
}

// medianUS is the median duration in microseconds (0 for none).
func medianUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	return median(seconds(ds)) * 1e6
}

// total sums durations.
func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
