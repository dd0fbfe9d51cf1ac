// Package telemetry is the proving pipeline's unified observability
// layer: nested spans over the stages the paper measures (the POLY stage's
// seven NTTs, the MSM stage's five multi-scalar multiplications, per-device
// partition work), instant events (modeled kernel launches, the cluster's
// job migrations), and an atomic metrics registry that aggregates
// the per-op Stats structs scattered across internal/msm, internal/ntt and
// internal/gpusim into one snapshot.
//
// The package is stdlib-only and concurrency-safe. A nil *Tracer is the
// disabled state: every method on a nil Tracer, zero Span, nil Registry,
// nil Counter and nil Gauge is a no-op, and the span start/end hot path
// allocates nothing when disabled (guarded by a testing.AllocsPerRun test
// and a benchmark). Producers therefore instrument unconditionally and the
// cost is a pointer test when no tracer is attached.
//
// Tracers travel through context.Context (NewContext/FromContext), and the
// current span travels alongside so child spans nest across package
// boundaries without signature changes. Exporters render the recorded
// timeline as Chrome trace_event JSON (loadable in Perfetto or
// chrome://tracing, one track per simulated device), a JSONL event log, or
// a human-readable summary (export.go); ServeDebug exposes the registry
// over expvar plus net/http/pprof (debug.go).
package telemetry

import (
	"context"
	"sync"
	"time"
)

// Track identities for the trace timeline. TrackHost carries pipeline
// orchestration; each simulated device gets its own track so the exported
// trace shows a per-device utilization timeline.
const TrackHost = 0

// DeviceTrack maps a logical device index to its trace track.
func DeviceTrack(dev int) int { return dev + 1 }

// Attr is one key/value annotation on a span or event. Exactly one of the
// Str/Int payloads is meaningful, per IsInt.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Int: v, IsInt: true} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Str: v} }

type spanRec struct {
	id, parent uint64
	track      int32
	name       string
	start, end int64 // ns since Tracer base; end < 0 while open
	attrs      []Attr
}

type eventRec struct {
	track     int32
	cat, name string
	ts        int64
	attrs     []Attr
}

// Tracer records spans and events against a monotonic clock and owns a
// metrics Registry. The zero value is not usable; construct with New. A
// nil *Tracer is the disabled tracer.
type Tracer struct {
	wall    time.Time // wall-clock base, for export metadata
	base    time.Time // monotonic base (timestamps are time.Since(base))
	metrics *Registry

	mu     sync.Mutex
	spans  []spanRec
	events []eventRec
	tracks map[int32]string
}

// New returns an enabled tracer with a fresh metrics registry.
func New() *Tracer {
	now := time.Now()
	return &Tracer{wall: now, base: now, metrics: NewRegistry(), tracks: map[int32]string{}}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Registry returns the tracer's metrics registry (nil for a nil tracer,
// which yields no-op counters and gauges).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Counter is shorthand for Registry().Counter(name); nil-safe end to end.
func (t *Tracer) Counter(name string) *Counter { return t.Registry().Counter(name) }

// Gauge is shorthand for Registry().Gauge(name); nil-safe end to end.
func (t *Tracer) Gauge(name string) *Gauge { return t.Registry().Gauge(name) }

// NameTrack labels a track in the exported trace (e.g. "device 2").
// Unnamed tracks get a default label at export time.
func (t *Tracer) NameTrack(track int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tracks[int32(track)] = name
	t.mu.Unlock()
}

// Span is a lightweight handle to one recorded span. The zero Span (from a
// nil tracer) is valid and inert, so callers never branch.
type Span struct {
	tr    *Tracer
	idx   int32
	id    uint64
	track int32
}

// start appends a span record; the timestamp is taken under the lock so
// record order equals timestamp order (per-track monotonicity).
func (t *Tracer) start(track int32, parent uint64, name string) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	ts := time.Since(t.base).Nanoseconds()
	id := uint64(len(t.spans)) + 1
	t.spans = append(t.spans, spanRec{id: id, parent: parent, track: track, name: name, start: ts, end: -1})
	t.mu.Unlock()
	return Span{tr: t, idx: int32(id - 1), id: id, track: track}
}

// Root starts a parentless span on a track.
func (t *Tracer) Root(track int, name string) Span { return t.start(int32(track), 0, name) }

// Child starts a nested span on the same track as s.
func (s Span) Child(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.tr.start(s.track, s.id, name)
}

// ChildOn starts a nested span on an explicit track (device work forked
// from a host-side stage span).
func (s Span) ChildOn(track int, name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.tr.start(int32(track), s.id, name)
}

// End closes the span. Ending an already-ended or zero span is a no-op.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	if s.tr.spans[s.idx].end < 0 {
		s.tr.spans[s.idx].end = time.Since(s.tr.base).Nanoseconds()
	}
	s.tr.mu.Unlock()
}

// ID returns the span's process-local id (0 for a zero span). It is the
// value senders put in ParentSpanHeader when forwarding work the span
// caused to another process.
func (s Span) ID() uint64 { return s.id }

// Track returns the track the span sits on (TrackHost for a zero span).
func (s Span) Track() int { return int(s.track) }

// ElapsedNS reports nanoseconds since the span started (0 for a zero span).
func (s Span) ElapsedNS() int64 {
	if s.tr == nil {
		return 0
	}
	s.tr.mu.Lock()
	d := time.Since(s.tr.base).Nanoseconds() - s.tr.spans[s.idx].start
	s.tr.mu.Unlock()
	return d
}

// SetInt attaches an integer attribute to the span.
func (s Span) SetInt(key string, v int64) {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.spans[s.idx].attrs = append(s.tr.spans[s.idx].attrs, Int(key, v))
	s.tr.mu.Unlock()
}

// SetStr attaches a string attribute to the span.
func (s Span) SetStr(key, v string) {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.spans[s.idx].attrs = append(s.tr.spans[s.idx].attrs, Str(key, v))
	s.tr.mu.Unlock()
}

// Emit records an instant event (rendered as a Perfetto instant marker),
// e.g. a cluster job migration or a modeled kernel launch.
func (t *Tracer) Emit(track int, cat, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ts := time.Since(t.base).Nanoseconds()
	t.events = append(t.events, eventRec{track: int32(track), cat: cat, name: name, ts: ts, attrs: attrs})
	t.mu.Unlock()
}

// SpanInfo is an exported copy of one recorded span, for tests and
// programmatic consumers. EndNS < 0 means the span is still open.
type SpanInfo struct {
	ID, Parent     uint64
	Track          int
	Name           string
	StartNS, EndNS int64
	Attrs          []Attr
}

// Spans returns copies of all recorded spans in record (= start) order.
func (t *Tracer) Spans() []SpanInfo {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanInfo, len(t.spans))
	for i, s := range t.spans {
		out[i] = SpanInfo{
			ID: s.id, Parent: s.parent, Track: int(s.track), Name: s.name,
			StartNS: s.start, EndNS: s.end,
			Attrs: append([]Attr(nil), s.attrs...),
		}
	}
	return out
}

// Event is an exported copy of one instant event.
type Event struct {
	Track     int
	Cat, Name string
	TSNS      int64
	Attrs     []Attr
}

// Events returns copies of all recorded instant events in record order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	for i, e := range t.events {
		out[i] = Event{
			Track: int(e.track), Cat: e.cat, Name: e.name, TSNS: e.ts,
			Attrs: append([]Attr(nil), e.attrs...),
		}
	}
	return out
}

// ---- Context plumbing.

type tracerKey struct{}
type spanKey struct{}

// NewContext attaches a tracer to ctx. Descendant code finds it with
// FromContext / StartSpan without signature changes.
func NewContext(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// FromContext returns the tracer in ctx, or nil (the disabled tracer).
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// ContextWithSpan records s as the current span for child nesting.
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the current span in ctx (zero Span if none).
func SpanFromContext(ctx context.Context) Span {
	s, _ := ctx.Value(spanKey{}).(Span)
	return s
}

// StartSpan starts a child of ctx's current span (inheriting its track; a
// root span on TrackHost when there is none) and returns it with a context
// carrying it as the new current span. With no tracer attached it returns
// the zero Span and ctx unchanged, allocating nothing — this is the hot
// path producers call unconditionally.
func StartSpan(ctx context.Context, name string) (Span, context.Context) {
	tr := FromContext(ctx)
	if tr == nil {
		return Span{}, ctx
	}
	parent := SpanFromContext(ctx)
	var sp Span
	if parent.tr == nil {
		sp = tr.start(TrackHost, 0, name)
	} else {
		sp = parent.Child(name)
	}
	return sp, ContextWithSpan(ctx, sp)
}

// StartSpanOn is StartSpan with an explicit track — how stage code forks
// device-track work from a host-side parent span.
func StartSpanOn(ctx context.Context, track int, name string) (Span, context.Context) {
	tr := FromContext(ctx)
	if tr == nil {
		return Span{}, ctx
	}
	parent := SpanFromContext(ctx)
	var sp Span
	if parent.tr == nil {
		sp = tr.Root(track, name)
	} else {
		sp = parent.ChildOn(track, name)
	}
	return sp, ContextWithSpan(ctx, sp)
}

// ContextCounter resolves a named counter from ctx's tracer; the chain is
// nil-safe so `telemetry.ContextCounter(ctx, "par.tasks").Add(n)` costs a
// context lookup when telemetry is disabled.
func ContextCounter(ctx context.Context, name string) *Counter {
	return FromContext(ctx).Registry().Counter(name)
}
