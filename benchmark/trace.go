package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent is the id of the span that caused this one (0 = root).
type span struct {
	id, parent, req, lane int
	name, note            string
	start, end            time.Time
}

// tracer keeps spans in memory until the run ends. The harness records them
// around its own calls into each layer; nothing inside the program is
// instrumented. A nil tracer records nothing, which is the untraced run.
type tracer struct {
	// speed converts what the traced run times to reference speed (see
	// speed.go); the spans themselves keep the clock's times.
	speed *probe

	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its id for children to name as
// their parent. lane separates concurrent clients in the viewer.
func (t *tracer) add(name string, parent, req, lane int, start, end time.Time, note string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, req: req, lane: lane, name: name, note: note, start: start, end: end})
	return id
}

// extend moves the end of span id, for a parent recorded before its
// children so they could name it.
func (t *tracer) extend(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].end = end
	t.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events, microseconds), loadable in chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "request": s.req}
		if s.note != "" {
			args["note"] = s.note
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane, Args: args,
			Ts:  float64(s.start.UnixNano()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
