package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// maxSpans bounds the in-memory span log. Per-request spans of a long
// serve run are the only thing that can approach it; spans beyond it are
// counted, not kept.
const maxSpans = 1 << 20

// span is one timed call across a layer boundary, recorded by the
// benchmark around the layer's public function.
type span struct {
	ID     int32
	Parent int32
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. A disabled recorder
// records nothing and returns span id 0, so callers need no branches.
type recorder struct {
	on      bool
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, epoch: time.Now()}
}

// add records a finished span and returns its id (0 when disabled or
// full).
func (r *recorder) add(name string, parent int32, start, end time.Time) int32 {
	if !r.on {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return id
}

// open starts a span whose children need its id before it ends. close
// sets its end time.
func (r *recorder) open(name string, parent int32) int32 {
	now := time.Now()
	return r.add(name, parent, now, now)
}

func (r *recorder) close(id int32) {
	if id == 0 {
		return
	}
	end := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time, which is
// measured whether or not the recorder is on.
func (r *recorder) timed(name string, parent int32, fn func(id int32) error) (time.Duration, error) {
	id := r.open(name, parent)
	start := time.Now()
	err := fn(id)
	d := time.Since(start)
	r.close(id)
	return d, err
}

// children returns the spans whose parent is id.
func (r *recorder) children(id int32) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Parent == id && id != 0 {
			out = append(out, s)
		}
	}
	return out
}

// chromeEvent is one Chrome trace-event ("X" = complete event), the
// format Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write dumps every kept span as Chrome trace-event JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	events := make([]chromeEvent, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		})
	}
	dropped := r.dropped
	r.mu.Unlock()
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "droppedSpans": dropped})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
