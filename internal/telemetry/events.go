package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// EventLog is the structured control-plane event stream: leveled,
// scoped records ("cluster: node_evicted", "cluster.ha: promotion",
// "service: drain_begin") kept in a bounded ring for the
// /v1/cluster/events endpoint and optionally mirrored as JSONL to a
// sink for post-mortems of failover runs. It is the narrative complement
// to spans (which time work) and metrics (which count it): events say
// what the control plane *decided* and why.
//
// A nil *EventLog is the disabled state — Log on nil is a no-op, the
// same convention as the rest of the package — so producers log
// unconditionally.

// EventLevel orders event severities for filtering.
type EventLevel int

const (
	LevelDebug EventLevel = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name used on the wire.
func (l EventLevel) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// ParseEventLevel parses a level name (as produced by String).
func ParseEventLevel(s string) (EventLevel, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("telemetry: unknown event level %q", s)
}

// EventRecord is one control-plane event. Seq is dense per log and
// strictly increasing, so pollers resume with ?since=<last seq>.
type EventRecord struct {
	Seq    uint64         `json:"seq"`
	TS     time.Time      `json:"ts"`
	Level  string         `json:"level"`
	Scope  string         `json:"scope"`
	Event  string         `json:"event"`
	Fields map[string]any `json:"fields,omitempty"`
}

// DefaultEventCapacity is the ring size when NewEventLog gets 0.
const DefaultEventCapacity = 1024

// EventLog is a fixed-capacity ring of EventRecords. Construct with
// NewEventLog; a nil *EventLog is a valid disabled log.
type EventLog struct {
	mu      sync.Mutex
	min     EventLevel
	ring    []EventRecord // ring[(seq-1) % len(ring)] is the record with that seq
	seq     uint64
	sink    io.Writer
	sinkErr error
}

// NewEventLog builds a log keeping the last capacity events at or above
// min severity.
func NewEventLog(capacity int, min EventLevel) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{min: min, ring: make([]EventRecord, capacity)}
}

// SetSink mirrors every retained event to w as one JSON object per line
// (in addition to the ring). Writes happen under the log's lock —
// acceptable at control-plane event rates; pass a buffered writer for
// hot sinks. A write error disables the sink (reported by SinkErr) but
// never drops ring records.
func (l *EventLog) SetSink(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = w
	l.sinkErr = nil
	l.mu.Unlock()
}

// SinkErr returns the error that disabled the sink, if any.
func (l *EventLog) SinkErr() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkErr
}

// Log appends one event. fields is retained as-is — callers pass a
// fresh map per call. No-op on nil or below the minimum level.
func (l *EventLog) Log(level EventLevel, scope, event string, fields map[string]any) {
	if l == nil || level < l.min {
		return
	}
	l.mu.Lock()
	l.seq++
	rec := EventRecord{
		Seq:    l.seq,
		TS:     time.Now().UTC(),
		Level:  level.String(),
		Scope:  scope,
		Event:  event,
		Fields: fields,
	}
	l.ring[(l.seq-1)%uint64(len(l.ring))] = rec
	if l.sink != nil && l.sinkErr == nil {
		line, err := json.Marshal(rec)
		if err == nil {
			line = append(line, '\n')
			_, err = l.sink.Write(line)
		}
		if err != nil {
			l.sinkErr = err
			l.sink = nil
		}
	}
	l.mu.Unlock()
}

// Seq returns the sequence number of the newest event (0 when empty).
func (l *EventLog) Seq() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Since returns up to max events with Seq > after, oldest first. Events
// that have already rotated out of the ring are silently absent — the
// caller sees the gap in the Seq numbering. max <= 0 means no limit
// (the whole retained window).
func (l *EventLog) Since(after uint64, max int) []EventRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	first := uint64(1)
	if n := uint64(len(l.ring)); l.seq > n {
		first = l.seq - n + 1
	}
	if after+1 > first {
		first = after + 1
	}
	if first > l.seq {
		return nil
	}
	count := int(l.seq - first + 1)
	if max > 0 && count > max {
		// Keep the newest max records of the requested window.
		first += uint64(count - max)
		count = max
	}
	out := make([]EventRecord, 0, count)
	for s := first; s <= l.seq; s++ {
		out = append(out, l.ring[(s-1)%uint64(len(l.ring))])
	}
	return out
}

// Recent returns the newest n retained events, oldest first.
func (l *EventLog) Recent(n int) []EventRecord {
	return l.Since(0, n)
}
