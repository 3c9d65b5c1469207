// Package kqml implements the KQML-style agent communication language that
// InfoSleuth agents exchange (the paper's messages are "SQL statements
// encapsulated in KQML messages"). A Message is a performative plus
// addressing, conversation bookkeeping, and typed content.
//
// The performative set covers what the paper's agents use — advertise /
// unadvertise toward brokers, ask-all for queries, tell / sorry / error for
// replies, subscribe / update for monitoring, and the broker-ping extension
// of Section 4.2.2 — and content payloads are typed Go structs carried as
// JSON, with helpers that keep encoding errors at the call site.
package kqml

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"infosleuth/internal/constraint"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
)

// Performative is a KQML message type.
type Performative string

// The performatives used by InfoSleuth agents.
const (
	// Advertise registers the sender's capabilities with a broker.
	Advertise Performative = "advertise"
	// Unadvertise removes the sender's registration.
	Unadvertise Performative = "unadvertise"
	// AskAll requests all answers to the embedded query.
	AskAll Performative = "ask-all"
	// AskOne requests a single answer.
	AskOne Performative = "ask-one"
	// Tell carries a (partial) answer or acknowledgment.
	Tell Performative = "tell"
	// Sorry reports that the receiver has no answer.
	Sorry Performative = "sorry"
	// Error reports a processing failure.
	Error Performative = "error"
	// Subscribe asks for notifications about matching changes.
	Subscribe Performative = "subscribe"
	// Unsubscribe cancels a standing query by subscription ID (content:
	// UnsubscribeContent).
	Unsubscribe Performative = "unsubscribe"
	// Update carries changed data to a subscriber.
	Update Performative = "update"
	// Recruit asks a broker to deliver the embedded request to the best
	// provider and relay the answer.
	Recruit Performative = "recruit"
	// Ping asks whether the receiver is alive and, to a broker, whether
	// it still holds the sender's advertisement (Section 4.2.2).
	Ping Performative = "ping"
)

// Standard values for the Message.Ontology field.
const (
	// ServiceOntology marks content expressed in the InfoSleuth service
	// ontology (advertisements, broker queries).
	ServiceOntology = "infosleuth-service-ontology"
)

// Message is one KQML message.
type Message struct {
	Performative Performative `json:"performative"`
	// Sender and Receiver are agent names; ReplyTo carries the sender's
	// transport address so the receiver can respond or call back.
	Sender   string `json:"sender"`
	Receiver string `json:"receiver,omitempty"`
	ReplyTo  string `json:"reply-to,omitempty"`
	// Language names the content language ("SQL 2.0", "KQML", ...).
	Language string `json:"language,omitempty"`
	// Ontology names the vocabulary the content is expressed in.
	Ontology string `json:"ontology,omitempty"`
	// ReplyWith / InReplyTo link requests to replies.
	ReplyWith string `json:"reply-with,omitempty"`
	InReplyTo string `json:"in-reply-to,omitempty"`
	// TraceID identifies the conversation this message belongs to for
	// end-to-end tracing: where reply-with/in-reply-to link one
	// request/reply pair, the trace ID follows the whole conversation
	// (Section 2.3) across user agent, brokers and resource agents.
	// Empty means the conversation is untraced.
	TraceID string `json:"trace-id,omitempty"`
	// Trace accumulates one span per hop the conversation took, and one
	// per decision a hop made (match accept/reject, pushdown plans,
	// failovers, forwards); replies carry the entries gathered so far back
	// toward the originator. See TraceSpan and AppendSpans.
	Trace []TraceSpan `json:"trace,omitempty"`
	// Content is the typed payload, JSON-encoded.
	Content json.RawMessage `json:"content,omitempty"`
	// encoded is the slice SetContent last stored in Content. While
	// Content is still that slice, Marshal copies it into the frame
	// without looking at it again; see contentIsEncoded.
	encoded json.RawMessage
}

// TraceSpan is one entry of a traced conversation: a timing span records
// which agent did what and how long it took; a decision (Decision set, Op
// OpDecision) records why the agent chose what it did. Entries ride the
// KQML envelope next to the conversation bookkeeping fields, so any agent
// can follow a query from user agent through brokers to resource agents
// and back.
type TraceSpan struct {
	// Agent names the agent the span describes.
	Agent string `json:"agent"`
	// Op is what the agent did: a performative for dispatched messages,
	// or a finer-grained step such as "broker-search".
	Op string `json:"op"`
	// Hop is the inter-broker distance from the conversation's origin
	// broker (0 = the broker first contacted, 1 = one forward away, ...).
	// It is 0 for non-broker spans.
	Hop int `json:"hop,omitempty"`
	// Start is the span's start time in Unix nanoseconds. It lets the
	// flight recorder order and nest spans that arrive out of order, and
	// distinguishes a span observed locally from a genuinely different
	// one carried on a reply envelope. A decision's Start is the moment it
	// was emitted, unique within the emitting process.
	Start int64 `json:"start,omitempty"`
	// DurationMicros is the span's processing time in microseconds.
	DurationMicros int64 `json:"us,omitempty"`
	// Err is the error the spanned step returned, empty on success.
	Err string `json:"err,omitempty"`
	// Dropped is only set on the OpTraceDropped marker: how many entries
	// were evicted from this envelope's trace to respect MaxTraceSpans.
	Dropped int `json:"dropped,omitempty"`
	// Decision is set on decision entries only.
	Decision *ProvEvent `json:"decision,omitempty"`
}

// TimingSpans returns the entries of trace that are not decisions: the
// timing spans and the drop marker, in order.
func TimingSpans(trace []TraceSpan) []TraceSpan {
	var out []TraceSpan
	for _, s := range trace {
		if s.Decision == nil {
			out = append(out, s)
		}
	}
	return out
}

// Trace is a completed conversation trace, returned by traced query
// entry points: the ID that tied the messages together plus every timing
// span gathered on the way back to the originator.
type Trace struct {
	ID    string      `json:"id"`
	Spans []TraceSpan `json:"spans"`
}

// BrokerSpans returns the spans contributed by broker searches, in the
// order they were appended — the conversation's path through the broker
// network.
func (t *Trace) BrokerSpans() []TraceSpan {
	if t == nil {
		return nil
	}
	var out []TraceSpan
	for _, s := range t.Spans {
		if s.Op == OpBrokerSearch {
			out = append(out, s)
		}
	}
	return out
}

// OpBrokerSearch is the TraceSpan.Op recorded by a broker for one
// matchmaking search (local repository plus any inter-broker forwarding
// it initiated).
const OpBrokerSearch = "broker.search"

// OpResourceQuery is the TraceSpan.Op recorded by a resource agent for
// one query execution against its repository.
const OpResourceQuery = "resource.query"

// OpTraceDropped marks a synthetic entry standing in for entries evicted
// from an envelope's trace (see MaxTraceSpans); its Dropped field carries
// how many were folded away.
const OpTraceDropped = "trace.dropped"

// OpDecision is the TraceSpan.Op of a decision entry. No timing span uses
// it, so a decision never passes for a span of the same name.
const OpDecision = "decision"

// MaxTraceSpans bounds each kind of entry one message envelope carries:
// at most MaxTraceSpans timing spans and at most MaxTraceSpans decisions.
// A deep or pathological forwarding chain appends spans at every hop, and
// a broker with thousands of candidate ads emits a decision for each;
// without a cap either could bloat every frame on the path toward the
// transport's frame limit. Overflow drops the oldest entries of the kind
// that overflowed and accounts for them in one leading OpTraceDropped
// marker, which takes a slot of that kind.
const MaxTraceSpans = 64

// AppendSpans appends entries to an envelope trace while keeping each
// kind within MaxTraceSpans. A kind overflows when it holds more than
// MaxTraceSpans entries, or when this append adds to it and it reaches
// MaxTraceSpans beside a marker already in either input; it then keeps its
// newest MaxTraceSpans-1 entries. One marker at index 0 accumulates the
// dropped count (markers already present anywhere in either input — a
// merged peer trace can carry its own — are coalesced into it). A kind
// the append adds nothing to is never cut for the marker's sake, so a
// flood of decisions never evicts a timing span.
func AppendSpans(dst []TraceSpan, spans ...TraceSpan) []TraceSpan {
	if len(spans) == 0 && len(dst) <= MaxTraceSpans {
		return dst
	}
	var n [2]int      // entries per kind (timing spans, decisions), markers aside
	var added [2]bool // kinds spans adds to
	marker := false
	for i, in := range [2][]TraceSpan{dst, spans} {
		for j := range in {
			s := &in[j]
			if s.Op == OpTraceDropped {
				marker = true
				continue
			}
			k := kindOf(s)
			n[k]++
			added[k] = added[k] || i == 1
		}
	}
	var evict [2]int
	for k := range n {
		over := n[k] - MaxTraceSpans
		if marker && added[k] {
			over++
		}
		if over > 0 {
			evict[k] = n[k] - (MaxTraceSpans - 1)
		}
	}
	if !marker && evict == [2]int{} {
		return append(dst, spans...)
	}
	// Slow path: strip markers, summing their counts, and evict.
	dropped := evict[0] + evict[1]
	out := make([]TraceSpan, 1, 1+n[0]+n[1]-dropped)
	for _, in := range [2][]TraceSpan{dst, spans} {
		for j := range in {
			s := &in[j]
			if s.Op == OpTraceDropped {
				dropped += s.Dropped
				continue
			}
			if k := kindOf(s); evict[k] > 0 {
				evict[k]--
				continue
			}
			out = append(out, *s)
		}
	}
	if dropped == 0 {
		return out[1:]
	}
	out[0] = TraceSpan{Op: OpTraceDropped, Dropped: dropped}
	return out
}

// kindOf indexes the per-kind budgets: 0 for timing spans, 1 for
// decisions.
func kindOf(s *TraceSpan) int {
	if s.Decision != nil {
		return 1
	}
	return 0
}

// PropagateTrace copies the request's trace identity onto a reply and
// appends the given entry (respecting MaxTraceSpans); it is a no-op for
// untraced conversations, so callers can apply it unconditionally on hot
// paths.
func PropagateTrace(req, reply *Message, span TraceSpan) {
	if req == nil || reply == nil || req.TraceID == "" {
		return
	}
	reply.TraceID = req.TraceID
	reply.Trace = AppendSpans(reply.Trace, span)
}

// String renders a compact summary for logs.
func (m *Message) String() string {
	return fmt.Sprintf("%s %s->%s (%d bytes)", m.Performative, m.Sender, m.Receiver, len(m.Content))
}

// New builds a message with content, panicking only on marshaling bugs
// (payload types here are all JSON-safe).
func New(p Performative, sender string, content any) *Message {
	m := &Message{Performative: p, Sender: sender}
	if content != nil {
		if err := m.SetContent(content); err != nil {
			panic(err)
		}
	}
	return m
}

// AdvertiseContent is the payload of an advertise/unadvertise message.
type AdvertiseContent struct {
	Ad *ontology.Advertisement `json:"ad"`
}

// BrokerQuery is the payload of an ask-all sent to a broker: the service
// query plus the inter-broker bookkeeping of Section 4.3 — the remaining
// hop budget and the list of brokers already visited (loop prevention).
type BrokerQuery struct {
	Query *ontology.Query `json:"query"`
	// HopsLeft is the remaining inter-broker hop budget; it is
	// initialized from the query's policy by the first broker.
	HopsLeft int `json:"hops_left"`
	// Visited lists broker names the query has already reached.
	Visited []string `json:"visited,omitempty"`
	// Forwarded marks a broker-to-broker forward (so the receiving
	// broker applies the carried policy rather than re-initializing it).
	Forwarded bool `json:"forwarded,omitempty"`
	// Depth is the inter-broker distance from the origin broker (0 at
	// the broker first contacted, incremented on each forward). Visited
	// cannot stand in for it because a forwarding round pre-loads the
	// visited list with every sibling peer it contacts.
	Depth int `json:"depth,omitempty"`
	// Holder is the listen address of an agent that keeps the reply as a
	// located set: every broker the search reaches registers the address
	// before it matches, and sends it an update on the service ontology
	// when a change may alter the reply. Empty asks for no located set.
	Holder string `json:"holder,omitempty"`
}

// LocatedSetLease bounds how long a holder answers from a located set: it
// re-asks once the lease, measured from when it sent the query, runs out.
// A broker whose update to a holder fails waits until the lease, measured
// from its registration of the holder, has run out before it acknowledges
// the change, so a holder it cannot reach has stopped trusting the set.
const LocatedSetLease = time.Second

// BrokerReply is a broker's answer: the matching advertisements, best
// matches first.
type BrokerReply struct {
	Matches []*ontology.Advertisement `json:"matches"`
	// Brokers lists the brokers whose repositories contributed
	// (diagnostics and the Table 5/6 robustness accounting).
	Brokers []string `json:"brokers,omitempty"`
	// Degraded lists peer brokers that were skipped or unreachable during
	// forwarding, so callers know the match set may be incomplete.
	Degraded []string `json:"degraded,omitempty"`
	// Granted tells a holder (BrokerQuery.Holder) that every broker the
	// search reached registered it, so the reply stays valid until one of
	// them sends an update or the lease runs out.
	Granted bool `json:"granted,omitempty"`
}

// SQLQuery is the payload of an ask-all carrying a data query.
type SQLQuery struct {
	SQL string `json:"sql"`
}

// SQLResult is the payload of a tell answering a data query.
type SQLResult struct {
	Columns []string         `json:"columns"`
	Rows    []relational.Row `json:"rows"`
	// Partial marks a degraded answer: one or more fragment sources
	// failed with no covering replica, so rows may be missing. Degraded
	// says which classes lost data and why. A partial answer is still a
	// tell — in a dynamic community a flagged subset beats a refusal.
	Partial  bool               `json:"partial,omitempty"`
	Degraded []ClassDegradation `json:"degraded,omitempty"`
}

// ClassDegradation records one ontology class whose fragment data is
// incomplete in a partial SQLResult.
type ClassDegradation struct {
	// Class is the ontology class with missing fragment data.
	Class string `json:"class"`
	// Agents names the resource agents that could not be reached.
	Agents []string `json:"agents,omitempty"`
	// Reason summarizes the failure ("unreachable", the last error, ...).
	Reason string `json:"reason,omitempty"`
}

// PingContent asks a broker whether it still holds the named agent's
// advertisement.
type PingContent struct {
	AgentName string `json:"agent_name"`
}

// PingReply answers a ping.
type PingReply struct {
	Known bool `json:"known"`
}

// SorryContent explains a sorry/error reply.
type SorryContent struct {
	Reason string `json:"reason"`
}

// Well-known sorry/error reasons. Agents build refusals from these
// constants (possibly with detail appended after the constant prefix, e.g.
// "outside specialization; accepted by B2"), and callers classify refusals
// with IsSorry instead of pinning raw strings.
const (
	// SorryReasonMalformedAdvertisement rejects an advertise whose content
	// does not decode.
	SorryReasonMalformedAdvertisement = "malformed advertisement"
	// SorryReasonMalformedBrokerQuery rejects a service query whose
	// content does not decode.
	SorryReasonMalformedBrokerQuery = "malformed broker query"
	// SorryReasonMalformedPing rejects a ping whose content does not
	// decode.
	SorryReasonMalformedPing = "malformed ping"
	// SorryReasonMalformedRecruit rejects a recruit whose content does not
	// decode.
	SorryReasonMalformedRecruit = "malformed recruit"
	// SorryReasonMalformedQuery rejects an ask whose content does not
	// decode (resource agents).
	SorryReasonMalformedQuery = "malformed query content"
	// SorryReasonMalformedSQL rejects an ask whose content does not decode
	// (MRQ agents).
	SorryReasonMalformedSQL = "malformed SQL query content"
	// SorryReasonMalformedSubscription rejects a subscribe whose content
	// does not decode.
	SorryReasonMalformedSubscription = "malformed subscription"
	// SorryReasonNotAdvertised answers a ping for an agent the broker does
	// not know.
	SorryReasonNotAdvertised = "not advertised"
	// SorryReasonUnadvertised acknowledges an unadvertise (sent on a tell,
	// not a sorry — listed here so the string has one home).
	SorryReasonUnadvertised = "unadvertised"
	// SorryReasonOutsideSpecialization rejects an advertisement a
	// specialized broker will not accept; when the broker referred the
	// agent elsewhere, the accepting broker's name follows the prefix.
	SorryReasonOutsideSpecialization = "outside specialization"
	// SorryReasonNoProvider answers a recruit no advertisement satisfies.
	SorryReasonNoProvider = "no agent provides the requested service"
	// SorryReasonUnknownSubscription answers an unsubscribe for a
	// subscription id the resource does not hold.
	SorryReasonUnknownSubscription = "unknown subscription"
	// SorryReasonUnsupportedPerformative prefixes refusals of
	// performatives an agent does not speak.
	SorryReasonUnsupportedPerformative = "unsupported performative"
	// SorryReasonUnframeableReply is sent by a transport in place of a
	// reply it could not put on the wire (it does not encode, or exceeds
	// the frame limit); the cause follows the prefix. The handler did run.
	SorryReasonUnframeableReply = "reply could not be framed"
)

// IsSorry reports whether m is a sorry/error refusal whose reason starts
// with the given well-known reason (empty matches any refusal). Prefix
// matching lets refusals append detail ("outside specialization; accepted
// by B2") without breaking classification.
func IsSorry(m *Message, reason string) bool {
	if m == nil || (m.Performative != Sorry && m.Performative != Error) {
		return false
	}
	if reason == "" {
		return true
	}
	var sc SorryContent
	if err := m.DecodeContent(&sc); err != nil {
		return false
	}
	return strings.HasPrefix(sc.Reason, reason)
}

// ReasonOf extracts the reason from a sorry/error message, or a generic
// fallback.
func ReasonOf(m *Message) string {
	var sc SorryContent
	if err := m.DecodeContent(&sc); err == nil && sc.Reason != "" {
		return sc.Reason
	}
	return string(m.Performative) + " from " + m.Sender
}

// Ensure constraint values round-trip in message payloads (compile-time
// interface checks).
var (
	_ json.Marshaler   = constraint.Value{}
	_ json.Unmarshaler = (*constraint.Value)(nil)
)
