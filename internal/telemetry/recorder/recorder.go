// Package recorder is the in-process flight recorder behind the
// conversation tracing of PR 1: a bounded ring buffer of completed spans
// plus a trace store that assembles spans sharing a trace ID into trace
// trees (entry hop → forwarded hops, per-hop durations, error status),
// and keeps the trace's decisions beside the tree for explain reports.
//
// The recorder implements telemetry.SpanRecorder; installing one with
// telemetry.SetSpanRecorder makes every instrumented hop in the process —
// agent dispatch, client RPCs, broker searches at every forwarding depth,
// MRQ fan-out, resource query execution, and every decision made on the
// way — record into it, and entries carried back on reply envelopes are
// mirrored in by the transport layer, so one traced user query yields one
// assembled tree spanning user agent, brokers and resources. Daemons
// expose it at /traces (summaries) and /traces/{id} (the full tree) on
// the metrics endpoint; `isquery -trace-dump` and `experiments -run
// traces` render the same tree as text.
//
// Everything is bounded: the span ring holds SpanCapacity spans (oldest
// overwritten, drops counted), traces are evicted by count and age, and a
// single trace keeps at most MaxSpansPerTrace spans and MaxDecisionsPerTrace
// decisions — a recorder can run in a loaded broker indefinitely without
// growing.
package recorder

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/telemetry"
)

// The recorder's bounds.
const (
	// SpanCapacity is the span ring size; when full the oldest span is
	// overwritten and the drop counter incremented.
	SpanCapacity = 4096
	// MaxTraces bounds how many distinct traces are kept assembled; the
	// least recently updated whole trace is evicted first.
	MaxTraces = 256
	// MaxSpansPerTrace bounds one trace's stored spans (a runaway fan-out
	// cannot monopolize the store); further spans are counted as dropped
	// on that trace.
	MaxSpansPerTrace = 512
	// MaxDecisionsPerTrace bounds one trace's stored decisions the same
	// way.
	MaxDecisionsPerTrace = 256
	// MaxTraceAge evicts traces not updated for this long.
	MaxTraceAge = 10 * time.Minute
	// SlowlogCapacity bounds the tail-sampled slow-query log ring (see
	// slowlog.go); oldest pinned entries are overwritten.
	SlowlogCapacity = 128
)

// spanKey identifies an entry within a trace for deduplication: on an
// in-process transport the same span or decision reaches the recorder
// twice — once recorded locally by the agent that produced it and once
// mirrored from the reply envelope it rode back on. A decision's start is
// unique within the process that emitted it, so the key tells two equal
// decisions apart.
type spanKey struct {
	agent string
	op    string
	hop   int
	start int64
	dur   int64
}

func keyOf(s *kqml.TraceSpan) spanKey {
	return spanKey{agent: s.Agent, op: s.Op, hop: s.Hop, start: s.Start, dur: s.DurationMicros}
}

// trace is one trace ID's accumulated state.
type trace struct {
	id         string
	spans      []kqml.TraceSpan
	decisions  []kqml.ProvEvent
	seen       map[spanKey]struct{}
	dropped    int64 // envelope-marker drops + per-trace overflow
	errors     int
	lastUpdate time.Time
}

// Recorder is a bounded flight recorder; create one with New. It is safe
// for concurrent use and never blocks on record.
type Recorder struct {
	drops atomic.Int64 // ring overwrites

	mu     sync.Mutex
	ring   []kqml.TraceSpan
	head   int // next write index
	filled bool
	traces map[string]*trace

	// Tail-sampled slow-query log (see slowlog.go). The sampler keeps the
	// rolling per-operation p99 thresholds; the slow ring holds pinned
	// entries under its own lock so pinning never contends with span
	// recording.
	sampler    *telemetry.TailSampler
	slowMu     sync.Mutex
	slow       []SlowEntry
	slowHead   int
	slowFilled bool

	// The per-trace bounds and the clock; tests shrink or swap them.
	maxTraces            int
	maxTraceAge          time.Duration
	maxSpansPerTrace     int
	maxDecisionsPerTrace int
	now                  func() time.Time
}

// New returns a Recorder with the package's bounds.
func New() *Recorder {
	return &Recorder{
		ring:                 make([]kqml.TraceSpan, SpanCapacity),
		traces:               make(map[string]*trace),
		sampler:              telemetry.NewTailSampler(),
		slow:                 make([]SlowEntry, SlowlogCapacity),
		maxTraces:            MaxTraces,
		maxTraceAge:          MaxTraceAge,
		maxSpansPerTrace:     MaxSpansPerTrace,
		maxDecisionsPerTrace: MaxDecisionsPerTrace,
		now:                  time.Now,
	}
}

// RecordSpan implements telemetry.SpanRecorder. A timing span enters the
// ring (evicting the oldest when full) and its trace's span tree; a
// decision joins its trace's decisions, kept apart from the tree; a drop
// marker is accounted, not stored.
func (r *Recorder) RecordSpan(traceID string, s kqml.TraceSpan) {
	if traceID == "" {
		return
	}
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()

	if s.Decision == nil {
		// Ring: fixed capacity, oldest overwritten, drops counted.
		if r.filled {
			r.drops.Add(1)
		}
		r.ring[r.head] = s
		r.head++
		if r.head == len(r.ring) {
			r.head = 0
			r.filled = true
		}
	}

	// Trace store.
	t, ok := r.traces[traceID]
	if !ok {
		r.evictLocked(now)
		t = &trace{id: traceID, seen: make(map[spanKey]struct{})}
		r.traces[traceID] = t
	}
	t.lastUpdate = now
	if s.Op == kqml.OpTraceDropped {
		t.dropped += int64(s.Dropped)
		return
	}
	k := keyOf(&s)
	if _, dup := t.seen[k]; dup {
		return
	}
	if s.Decision != nil {
		if len(t.decisions) >= r.maxDecisionsPerTrace {
			t.dropped++
			return
		}
		t.seen[k] = struct{}{}
		t.decisions = append(t.decisions, *s.Decision)
		return
	}
	if len(t.spans) >= r.maxSpansPerTrace {
		t.dropped++
		return
	}
	t.seen[k] = struct{}{}
	t.spans = append(t.spans, s)
	if s.Err != "" {
		t.errors++
	}
}

// evictLocked drops aged-out traces, then the least recently updated ones
// until a new trace fits under maxTraces. Called with r.mu held.
func (r *Recorder) evictLocked(now time.Time) {
	cutoff := now.Add(-r.maxTraceAge)
	for id, t := range r.traces {
		if t.lastUpdate.Before(cutoff) {
			delete(r.traces, id)
		}
	}
	for len(r.traces) >= r.maxTraces {
		var oldest *trace
		for _, t := range r.traces {
			if oldest == nil || t.lastUpdate.Before(oldest.lastUpdate) {
				oldest = t
			}
		}
		if oldest == nil {
			return
		}
		delete(r.traces, oldest.id)
	}
}

// Drops returns how many spans the ring has overwritten since creation.
func (r *Recorder) Drops() int64 { return r.drops.Load() }

// Spans returns up to limit of the most recent ring spans, oldest first
// (limit <= 0 means all).
func (r *Recorder) Spans(limit int) []kqml.TraceSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.head
	if r.filled {
		n = len(r.ring)
	}
	out := make([]kqml.TraceSpan, 0, n)
	start := 0
	if r.filled {
		start = r.head
	}
	for i := 0; i < n; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Summary is a one-line view of an assembled trace for listings.
type Summary struct {
	ID string `json:"id"`
	// Spans is how many distinct spans the trace holds.
	Spans int `json:"spans"`
	// Agents is how many distinct agents contributed spans.
	Agents int `json:"agents"`
	// MaxHop is the deepest inter-broker forwarding depth seen.
	MaxHop int `json:"max_hop"`
	// Errors counts spans that recorded an error.
	Errors int `json:"errors,omitempty"`
	// Dropped counts spans and decisions lost to envelope caps or
	// per-trace bounds.
	Dropped int64 `json:"dropped,omitempty"`
	// Prov counts stored decisions.
	Prov int `json:"prov,omitempty"`
	// StartUnixNano is the earliest span start; DurationMicros spans from
	// it to the latest span end.
	StartUnixNano  int64 `json:"start,omitempty"`
	DurationMicros int64 `json:"us"`
}

func (t *trace) summary() Summary {
	s := Summary{ID: t.id, Spans: len(t.spans), Errors: t.errors, Dropped: t.dropped, Prov: len(t.decisions)}
	agents := make(map[string]struct{})
	var minStart, maxEnd int64
	for _, sp := range t.spans {
		agents[sp.Agent] = struct{}{}
		if sp.Hop > s.MaxHop {
			s.MaxHop = sp.Hop
		}
		if sp.Start == 0 {
			continue
		}
		if minStart == 0 || sp.Start < minStart {
			minStart = sp.Start
		}
		if end := endOf(&sp); end > maxEnd {
			maxEnd = end
		}
	}
	s.Agents = len(agents)
	s.StartUnixNano = minStart
	if maxEnd > minStart {
		s.DurationMicros = (maxEnd - minStart) / 1000
	}
	return s
}

// Summaries returns up to limit trace summaries, most recently updated
// first (limit <= 0 means all).
func (r *Recorder) Summaries(limit int) []Summary {
	r.mu.Lock()
	ordered := make([]*trace, 0, len(r.traces))
	for _, t := range r.traces {
		ordered = append(ordered, t)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if !ordered[i].lastUpdate.Equal(ordered[j].lastUpdate) {
			return ordered[i].lastUpdate.After(ordered[j].lastUpdate)
		}
		return ordered[i].id < ordered[j].id
	})
	if limit > 0 && len(ordered) > limit {
		ordered = ordered[:limit]
	}
	out := make([]Summary, len(ordered))
	for i, t := range ordered {
		out[i] = t.summary()
	}
	r.mu.Unlock()
	return out
}

// Trace assembles and returns the tree for one trace ID.
func (r *Recorder) Trace(id string) (*Tree, bool) {
	r.mu.Lock()
	t, ok := r.traces[id]
	var spans []kqml.TraceSpan
	var sum Summary
	if ok {
		spans = append([]kqml.TraceSpan(nil), t.spans...)
		sum = t.summary()
	}
	r.mu.Unlock()
	if !ok {
		return nil, false
	}
	return assemble(sum, spans), true
}

// endOf returns a span's end time in Unix nanoseconds.
func endOf(s *kqml.TraceSpan) int64 {
	return s.Start + s.DurationMicros*1000
}
