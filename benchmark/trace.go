package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/transport"
)

// Span kinds.
const (
	kindRoot   = "root"   // one whole op, opened by the harness around the call into the layer under test
	kindClient = "client" // a transport.Call, seen from the calling agent
	kindServer = "server" // a Handler invocation, seen from the serving agent
	kindCall   = "call"   // a direct call into a public function (InsertRow)
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Kind   string `json:"kind"`
	Agent  string `json:"agent"`
	Layer  string `json:"layer"`
	// Perf is the request's performative (client and server spans).
	Perf string `json:"performative,omitempty"`
	// Peer is the destination address of a client span and the sender
	// name of a server span.
	Peer       string `json:"peer,omitempty"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	ReqBytes   int    `json:"req_bytes,omitempty"`
	ReplyBytes int    `json:"reply_bytes,omitempty"`
	Err        string `json:"err,omitempty"`

	// addr is a server span's own listen address, which pairSpans matches
	// against client spans' Peer.
	addr string
	// req and reply are the messages as the calling side saw them; the
	// replay measurements re-encode and re-decode them after the run.
	req, reply *kqml.Message
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory. It is built for the traced run's
// single client: the current op is one process-wide value, and a span's
// parent is found by looking at which spans are open on the calling
// agent, which is unambiguous only while one op is in flight.
type tracer struct {
	base    time.Time
	enabled atomic.Bool
	op      atomic.Int64
	// rootID is the current op's root span, for spans that must parent
	// under it explicitly.
	rootID atomic.Int64

	mu     sync.Mutex
	nextID int64
	spans  []*span
	open   map[string][]*span // agent -> open spans, oldest first
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), open: make(map[string][]*span)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// parentInnermost asks begin to parent the span under the innermost span
// open on its own agent.
const parentInnermost = -1

// begin opens a span on agent under parent (0: no parent).
func (t *tracer) begin(kind, agent, layer string, parent int64) *span {
	s := &span{Kind: kind, Agent: agent, Layer: layer, Op: t.op.Load(), Parent: parent}
	t.mu.Lock()
	t.nextID++
	s.ID = t.nextID
	if parent == parentInnermost {
		s.Parent = 0
		if open := t.open[agent]; len(open) > 0 {
			s.Parent = open[len(open)-1].ID
		}
	}
	t.open[agent] = append(t.open[agent], s)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.Start = t.now()
	return s
}

func (t *tracer) end(s *span) {
	s.End = t.now()
	t.mu.Lock()
	open := t.open[s.Agent]
	for i := len(open) - 1; i >= 0; i-- {
		if open[i] == s {
			t.open[s.Agent] = append(open[:i], open[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// pairSpans parents every server span under the client span that caused
// it. Nothing on the wire says which call a handler invocation answers,
// and concurrent calls from one agent to one address can overtake each
// other, so pairing waits until the run is over: a server span belongs to
// a client span aimed at its address, with the same performative, whose
// interval contains it. Among several such, the one that ends first is
// taken (earliest deadline first), which leaves the longer ones for the
// server spans only they can contain. spans must be in start order.
func pairSpans(spans []*span) {
	clients := make(map[string][]*span) // address -> client spans, in start order
	for _, s := range spans {
		if s.Kind == kindClient {
			clients[s.Peer] = append(clients[s.Peer], s)
		}
	}
	next := make(map[string]int)       // address -> first client span not yet started
	active := make(map[string][]*span) // address -> started, unclaimed client spans
	for _, s := range spans {
		if s.Kind != kindServer {
			continue
		}
		cs, i := clients[s.addr], next[s.addr]
		for ; i < len(cs) && cs[i].Start <= s.Start; i++ {
			active[s.addr] = append(active[s.addr], cs[i])
		}
		next[s.addr] = i
		best, kept := -1, active[s.addr][:0]
		for _, c := range active[s.addr] {
			if c.End < s.Start {
				continue // over before this handler ran: can match nothing from here on
			}
			kept = append(kept, c)
			if c.Perf == s.Perf && c.End >= s.End && (best < 0 || c.End < kept[best].End) {
				best = len(kept) - 1
			}
		}
		if best >= 0 {
			s.Parent = kept[best].ID
			kept = append(kept[:best], kept[best+1:]...)
		}
		active[s.addr] = kept
	}
}

// snapshot returns the spans recorded so far, in start order, with
// server spans paired to their callers.
func (t *tracer) snapshot() []*span {
	t.mu.Lock()
	out := append([]*span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	pairSpans(out)
	return out
}

// writeSpans writes one JSON object per span, tagged with the workload.
func (t *tracer) writeSpans(out io.Writer, workload string) error {
	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		line := struct {
			Workload string `json:"workload"`
			*span
		}{workload, s}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return w.Flush()
}

// tracedTransport decorates one agent's transport: Call becomes a client
// span and every Handler passed to Listen is wrapped in a server span.
// With the tracer disabled both pass straight through, so one community
// serves the untraced and the traced blocks of the overhead measurement.
type tracedTransport struct {
	inner transport.Transport
	t     *tracer
	agent string
	layer string
}

func (tt *tracedTransport) Call(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error) {
	if !tt.t.enabled.Load() {
		return tt.inner.Call(ctx, addr, msg)
	}
	s := tt.t.begin(kindClient, tt.agent, tt.layer, parentInnermost)
	s.Perf = string(msg.Performative)
	s.Peer = addr
	s.req = msg
	reply, err := tt.inner.Call(ctx, addr, msg)
	if err != nil {
		s.Err = err.Error()
	}
	s.reply = reply
	tt.t.end(s)
	return reply, err
}

func (tt *tracedTransport) Listen(addr string, h transport.Handler) (transport.Listener, error) {
	var bound atomic.Value // the listener's address, known once Listen returns
	l, err := tt.inner.Listen(addr, func(msg *kqml.Message) *kqml.Message {
		if !tt.t.enabled.Load() {
			return h(msg)
		}
		self, _ := bound.Load().(string)
		s := tt.t.begin(kindServer, tt.agent, tt.layer, 0)
		s.Perf = string(msg.Performative)
		s.Peer = msg.Sender
		s.addr = self
		reply := h(msg)
		tt.t.end(s)
		return reply
	})
	if err != nil {
		return nil, err
	}
	bound.Store(l.Addr())
	return l, nil
}

// interval is a half-open time range.
type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by ivs, clipped to [lo, hi).
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of it the union of its children covers.
func selfTimes(spans []*span) map[int64]int64 {
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - unionLen(children[s.ID], s.Start, s.End)
	}
	return self
}
