package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call from the benchmark into a layer.
// Times are offsets from the tracer's origin.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Run    int // the cold study, server or load phase the span belongs to
	Name   string
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written once, at exit. A nil
// *tracer records nothing, which is how untraced runs call the same
// code paths at no cost.
type tracer struct {
	clk clock

	mu    sync.Mutex
	spans []span
}

func newTracer(clk clock) *tracer { return &tracer{clk: clk} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return 0
	}
	start := t.clk.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: start, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	stop := t.clk.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = stop
	return t.spans[id-1].dur()
}

// snapshot copies the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[s.ID] = s.dur() - covered
	}
	return self
}

// selfByName aggregates self time by span name.
type nameSelf struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

func selfByName(spans []span) []nameSelf {
	self := selfTimes(spans)
	agg := map[string]*nameSelf{}
	var names []string
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &nameSelf{Name: s.Name}
			agg[s.Name] = a
			names = append(names, s.Name)
		}
		a.Count++
		a.Total += s.dur()
		a.Self += self[s.ID]
	}
	sort.Slice(names, func(i, j int) bool { return agg[names[i]].Self > agg[names[j]].Self })
	out := make([]nameSelf, len(names))
	for i, n := range names {
		out[i] = *agg[n]
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open offline.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes spans as a Chrome trace-event JSON file. Each
// run id becomes a track; parent and self time travel in args.
func writeChromeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.Run,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "run": s.Run, "self_us": float64(self[s.ID]) / 1e3},
		})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
