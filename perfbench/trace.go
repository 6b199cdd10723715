package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark makes into a layer.
type span struct {
	Name   string
	ID     int
	Parent int // 0 for a root span
	Start  time.Duration
	End    time.Duration
}

// tracer times the benchmark's own calls. When on it keeps every span in
// memory for writeChrome; when off it only returns durations.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// span runs fn as a span named name under parent and returns its
// duration; fn receives the span's ID to parent its children (0 when
// tracing is off).
func (t *tracer) span(name string, parent int, fn func(id int)) time.Duration {
	id := 0
	if t.on {
		id = len(t.spans) + 1
		t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent})
	}
	start := time.Now()
	fn(id)
	d := time.Since(start)
	if t.on {
		s := &t.spans[id-1]
		s.Start = start.Sub(t.epoch)
		s.End = s.Start + d
	}
	return d
}

// selfTimes returns each span's duration minus the time its children
// cover, indexed by span ID - 1. Children of one span never overlap:
// the benchmark makes its calls one at a time.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent > 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	return self
}

// writeChrome writes the spans as a Chrome trace-event file, which
// chrome://tracing and Perfetto open.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent,
				"self_us": float64(self[i]) / 1e3,
			},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
