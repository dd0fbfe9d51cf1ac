package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// traceEvent is one entry of the Chrome trace_event format (the JSON
// Perfetto and chrome://tracing load). "X" = complete span, "i" = instant,
// "M" = metadata.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

func attrArgs(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		if a.IsInt {
			m[a.Key] = a.Int
		} else {
			m[a.Key] = a.Str
		}
	}
	return m
}

func (t *Tracer) trackName(track int32) string {
	if name, ok := t.tracks[track]; ok {
		return name
	}
	if track == TrackHost {
		return "host"
	}
	return fmt.Sprintf("device %d", int(track)-1)
}

// snapshotLocked copies the record slices under the tracer lock, closing
// still-open spans at "now" so an exported trace is always well-formed.
func (t *Tracer) snapshot() (spans []spanRec, events []eventRec, tracks map[int32]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.base).Nanoseconds()
	spans = make([]spanRec, len(t.spans))
	copy(spans, t.spans)
	for i := range spans {
		if spans[i].end < 0 {
			spans[i].end = now
		}
	}
	events = make([]eventRec, len(t.events))
	copy(events, t.events)
	tracks = make(map[int32]string, len(t.tracks))
	for k, v := range t.tracks {
		tracks[k] = v
	}
	return spans, events, tracks
}

// WriteChromeTrace renders the recorded timeline as Chrome trace_event
// JSON: one process ("gzkp"), one thread per track (host + one per
// simulated device, so device tracks read as utilization timelines), spans
// as complete ("X") events and incidents as instant ("i") events.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("telemetry: cannot export a disabled tracer")
	}
	spans, events, _ := t.snapshot()

	var evs []traceEvent
	evs = append(evs, traceEvent{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "gzkp"},
	})
	seen := map[int32]bool{}
	noteTrack := func(track int32) {
		if seen[track] {
			return
		}
		seen[track] = true
		evs = append(evs, traceEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: int(track),
			Args: map[string]any{"name": t.trackName(track)},
		})
		evs = append(evs, traceEvent{
			Name: "thread_sort_index", Ph: "M", PID: 1, TID: int(track),
			Args: map[string]any{"sort_index": int(track)},
		})
	}
	for _, s := range spans {
		noteTrack(s.track)
		dur := float64(s.end-s.start) / 1e3
		evs = append(evs, traceEvent{
			Name: s.name, Cat: "span", Ph: "X",
			TS: float64(s.start) / 1e3, Dur: &dur,
			PID: 1, TID: int(s.track),
			Args: attrArgs(s.attrs),
		})
	}
	for _, e := range events {
		noteTrack(e.track)
		evs = append(evs, traceEvent{
			Name: e.name, Cat: e.cat, Ph: "i",
			TS: float64(e.ts) / 1e3, PID: 1, TID: int(e.track), S: "t",
			Args: attrArgs(e.attrs),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{
		TraceEvents:     evs,
		DisplayTimeUnit: "ms",
		Metadata: map[string]any{
			"start-time": t.wall.Format(time.RFC3339Nano),
			"source":     "gzkp telemetry",
		},
	})
}

// jsonlRecord is one line of the JSONL event log.
type jsonlRecord struct {
	Type    string         `json:"type"` // meta | track | span | event | counter | gauge | histogram
	Name    string         `json:"name"`
	Cat     string         `json:"cat,omitempty"`
	Track   int            `json:"track"`
	ID      uint64         `json:"id,omitempty"`
	Parent  uint64         `json:"parent,omitempty"`
	StartNS int64          `json:"start_ns,omitempty"`
	EndNS   int64          `json:"end_ns,omitempty"`
	TSNS    int64          `json:"ts_ns,omitempty"`
	Value   any            `json:"value,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// WriteJSONL renders a leading meta record (the tracer's wall-clock base,
// which lets gzkp-tracecat align per-process logs on one timeline), track
// name records, then spans and events (merged in timestamp order)
// followed by the final metric values, one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("telemetry: cannot export a disabled tracer")
	}
	spans, events, tracks := t.snapshot()
	enc := json.NewEncoder(w)
	if err := enc.Encode(jsonlRecord{
		Type: "meta", Name: "gzkp",
		Attrs: map[string]any{"wall_unix_ns": t.wall.UnixNano()},
	}); err != nil {
		return err
	}
	trackIDs := make([]int32, 0, len(tracks))
	for id := range tracks {
		trackIDs = append(trackIDs, id)
	}
	sort.Slice(trackIDs, func(i, j int) bool { return trackIDs[i] < trackIDs[j] })
	for _, id := range trackIDs {
		if err := enc.Encode(jsonlRecord{Type: "track", Name: tracks[id], Track: int(id)}); err != nil {
			return err
		}
	}
	recs := make([]jsonlRecord, 0, len(spans)+len(events))
	for _, s := range spans {
		recs = append(recs, jsonlRecord{
			Type: "span", Name: s.name, Track: int(s.track),
			ID: s.id, Parent: s.parent,
			StartNS: s.start, EndNS: s.end, TSNS: s.start,
			Attrs: attrArgs(s.attrs),
		})
	}
	for _, e := range events {
		recs = append(recs, jsonlRecord{
			Type: "event", Name: e.name, Cat: e.cat, Track: int(e.track),
			TSNS: e.ts, Attrs: attrArgs(e.attrs),
		})
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].TSNS < recs[j].TSNS })
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	snap := t.metrics.Snapshot()
	for _, name := range sortedKeys(snap.Counters) {
		if err := enc.Encode(jsonlRecord{Type: "counter", Name: name, Value: snap.Counters[name]}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Gauges) {
		if err := enc.Encode(jsonlRecord{Type: "gauge", Name: name, Value: snap.Gauges[name]}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Histograms) {
		if err := enc.Encode(jsonlRecord{Type: "histogram", Name: name, Value: snap.Histograms[name]}); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary renders a human-readable report: the span tree with
// durations, per-track busy time, incident events, and the metrics
// snapshot.
func (t *Tracer) WriteSummary(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("telemetry: cannot export a disabled tracer")
	}
	spans, events, _ := t.snapshot()

	children := map[uint64][]int{}
	for i, s := range spans {
		children[s.parent] = append(children[s.parent], i)
	}
	var dump func(id uint64, depth int) error
	dump = func(id uint64, depth int) error {
		for _, i := range children[id] {
			s := spans[i]
			label := s.name
			if s.track != TrackHost {
				label = fmt.Sprintf("%s [%s]", s.name, t.trackName(s.track))
			}
			if _, err := fmt.Fprintf(w, "  %s%-*s %10s\n",
				strings.Repeat("  ", depth), 40-2*depth, label,
				fmtNS(s.end-s.start)); err != nil {
				return err
			}
			if err := dump(s.id, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	fmt.Fprintf(w, "spans (%d):\n", len(spans))
	if err := dump(0, 0); err != nil {
		return err
	}

	// Per-track busy time: spans whose parent lives on another track (or
	// none) bound that track's busy intervals; nested same-track children
	// are already inside them.
	byID := map[uint64]spanRec{}
	for _, s := range spans {
		byID[s.id] = s
	}
	busy := map[int32]int64{}
	for _, s := range spans {
		if p, ok := byID[s.parent]; ok && p.track == s.track {
			continue
		}
		busy[s.track] += s.end - s.start
	}
	if len(busy) > 0 {
		fmt.Fprintf(w, "track busy time:\n")
		tracks := make([]int32, 0, len(busy))
		for tr := range busy {
			tracks = append(tracks, tr)
		}
		sort.Slice(tracks, func(i, j int) bool { return tracks[i] < tracks[j] })
		for _, tr := range tracks {
			fmt.Fprintf(w, "  %-12s %10s\n", t.trackName(tr), fmtNS(busy[tr]))
		}
	}

	if len(events) > 0 {
		fmt.Fprintf(w, "events (%d):\n", len(events))
		for _, e := range events {
			fmt.Fprintf(w, "  %10s  %-12s %s/%s", fmtNS(e.ts), t.trackName(e.track), e.cat, e.name)
			for _, a := range e.attrs {
				if a.IsInt {
					fmt.Fprintf(w, " %s=%d", a.Key, a.Int)
				} else {
					fmt.Fprintf(w, " %s=%s", a.Key, a.Str)
				}
			}
			fmt.Fprintln(w)
		}
	}

	snap := t.metrics.Snapshot()
	if len(snap.Counters) > 0 {
		fmt.Fprintf(w, "counters:\n")
		for _, name := range sortedKeys(snap.Counters) {
			fmt.Fprintf(w, "  %-32s %d\n", name, snap.Counters[name])
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintf(w, "gauges:\n")
		for _, name := range sortedKeys(snap.Gauges) {
			fmt.Fprintf(w, "  %-32s %.3f\n", name, snap.Gauges[name])
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintf(w, "histograms:\n")
		for _, name := range sortedKeys(snap.Histograms) {
			h := snap.Histograms[name]
			fmt.Fprintf(w, "  %-32s n=%d p50=%s p95=%s p99=%s max=%s\n",
				name, h.Count, fmtNS(h.P50), fmtNS(h.P95), fmtNS(h.P99), fmtNS(h.Max))
		}
	}
	return nil
}

func fmtNS(ns int64) string {
	switch {
	case ns < 0:
		return "-"
	case ns < 1e3:
		return fmt.Sprintf("%dns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case ns < 1e9:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	}
}
