// Package monitor implements the monitor agent of the paper's Figure 1:
// it locates resource agents through the broker, registers standing
// queries with them (subscribe conversations), and collects the update
// notifications that arrive as the underlying data changes — the
// infrastructure behind the paper's motivating "notify me when ..."
// queries.
package monitor

import (
	"context"
	"fmt"
	"sync"
	"time"

	"infosleuth/internal/agent"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/resilience"
	"infosleuth/internal/transport"
)

// Config configures a monitor agent.
type Config struct {
	Name         string
	Address      string
	Transport    transport.Transport
	KnownBrokers []string
	Redundancy   int
	CallTimeout  time.Duration
	// CallPolicy, when set, retries outgoing calls with backoff; nil
	// calls once.
	CallPolicy *resilience.Policy

	// Ontology names the domain the monitor watches.
	Ontology string
}

// DefaultEventCapacity is the bounded event ring size when
// WithEventCapacity is not given.
const DefaultEventCapacity = 1024

// Option configures a monitor agent beyond its Config, mirroring
// agent.New's functional-option construction.
type Option func(*Agent)

// WithEventCapacity bounds the notification ring: once full, the oldest
// retained event is overwritten (and counted by DroppedEvents). A
// long-lived monitor no longer grows without bound.
func WithEventCapacity(n int) Option {
	return func(a *Agent) {
		if n > 0 {
			a.eventCap = n
		}
	}
}

// Event is one update notification received from a resource agent.
type Event struct {
	// Seq is the monitor's monotonic sequence number for this event; use
	// it with EventsSince to page through notifications without rereading.
	Seq uint64
	// Resource names the agent that sent the notification.
	Resource string
	// SubscriptionID identifies the standing query.
	SubscriptionID string
	// SQL is the monitored query.
	SQL string
	// Result is the query's new answer.
	Result kqml.SQLResult
	// UpdateSeq is the resource's change-stream sequence number.
	UpdateSeq uint64
	// Coalesced counts change events the resource folded into this
	// notification under load.
	Coalesced int
}

// WatchHandle is one active standing query at one resource, returned by
// Watch. Cancel tears it down with the typed unsubscribe wire form.
type WatchHandle struct {
	// Resource names the resource agent hosting the subscription.
	Resource string
	// Address is the resource agent's transport address.
	Address string
	// SubscriptionID names the subscription at the resource.
	SubscriptionID string

	agent *Agent
}

// Cancel unsubscribes the standing query at its resource and removes the
// handle from the monitor. Cancelling twice is a no-op.
func (h *WatchHandle) Cancel(ctx context.Context) error {
	a := h.agent
	if a == nil {
		return nil
	}
	a.mu.Lock()
	found := false
	for i, w := range a.watches {
		if w == h {
			a.watches = append(a.watches[:i], a.watches[i+1:]...)
			found = true
			break
		}
	}
	a.mu.Unlock()
	if !found {
		return nil
	}
	msg := kqml.New(kqml.Unsubscribe, a.Name(), &kqml.UnsubscribeContent{ID: h.SubscriptionID})
	msg.Receiver = h.Resource
	reply, err := a.Call(ctx, h.Address, msg)
	if err != nil {
		return fmt.Errorf("monitor %s: cancelling %s at %s: %w", a.Name(), h.SubscriptionID, h.Resource, err)
	}
	if reply.Performative != kqml.Tell {
		return fmt.Errorf("monitor %s: cancelling %s at %s: %s", a.Name(), h.SubscriptionID, h.Resource, kqml.ReasonOf(reply))
	}
	return nil
}

// Agent is a monitor agent.
type Agent struct {
	*agent.Base
	cfg      Config
	eventCap int

	mu      sync.Mutex
	ring    []Event
	next    int
	filled  bool
	seq     uint64
	dropped uint64
	watches []*WatchHandle
}

// New creates a monitor agent; call Start, then Watch.
func New(cfg Config, opts ...Option) (*Agent, error) {
	if cfg.Ontology == "" {
		return nil, fmt.Errorf("monitor: config missing Ontology")
	}
	base, err := agent.New(agent.Config{
		Name:         cfg.Name,
		Address:      cfg.Address,
		Transport:    cfg.Transport,
		KnownBrokers: cfg.KnownBrokers,
		Redundancy:   cfg.Redundancy,
		CallTimeout:  cfg.CallTimeout,
	}, agent.WithCallPolicy(cfg.CallPolicy))
	if err != nil {
		return nil, err
	}
	a := &Agent{Base: base, cfg: cfg, eventCap: DefaultEventCapacity}
	for _, o := range opts {
		o(a)
	}
	base.Handler = a.handle
	base.AdBuilder = a.buildAd
	return a, nil
}

func (a *Agent) buildAd(addr string) *ontology.Advertisement {
	return &ontology.Advertisement{
		Name:          a.cfg.Name,
		Address:       addr,
		Type:          ontology.TypeMonitor,
		CommLanguages: []string{ontology.LangKQML},
		Conversations: []string{ontology.ConvSubscribe, ontology.ConvUpdate},
	}
}

func (a *Agent) handle(msg *kqml.Message) *kqml.Message {
	switch msg.Performative {
	case kqml.Update:
		var uc kqml.UpdateContent
		if err := msg.DecodeContent(&uc); err != nil {
			return a.Reply(msg, kqml.Error, &kqml.SorryContent{Reason: "malformed update"})
		}
		a.mu.Lock()
		a.seq++
		ev := Event{
			Seq:            a.seq,
			Resource:       msg.Sender,
			SubscriptionID: uc.SubscriptionID,
			SQL:            uc.SQL,
			Result:         uc.Result,
			UpdateSeq:      uc.Seq,
			Coalesced:      uc.Coalesced,
		}
		if a.ring == nil {
			a.ring = make([]Event, 0, a.eventCap)
		}
		if len(a.ring) < a.eventCap {
			a.ring = append(a.ring, ev)
		} else {
			a.ring[a.next] = ev
			a.dropped++
			a.filled = true
		}
		a.next = (a.next + 1) % a.eventCap
		seq := a.seq
		a.mu.Unlock()
		mNotifications.Inc()
		return a.Reply(msg, kqml.Tell, &kqml.UpdateAck{SubscriptionID: uc.SubscriptionID, Seq: seq})
	default:
		return a.Reply(msg, kqml.Sorry, &kqml.SorryContent{
			Reason: fmt.Sprintf("monitor agent does not handle %s", msg.Performative),
		})
	}
}

// Watch locates the resource agents matching the query through the
// broker(s) and registers the standing SQL query with each, returning one
// WatchHandle per subscribed resource.
func (a *Agent) Watch(ctx context.Context, q *ontology.Query, sql string) ([]*WatchHandle, error) {
	// Only agents that advertise the subscribe conversation can host a
	// standing query.
	qq := q.Clone()
	qq.Conversations = append(qq.Conversations, ontology.ConvSubscribe)
	br, err := a.QueryBrokers(ctx, qq)
	if err != nil {
		return nil, fmt.Errorf("monitor %s: locating resources: %w", a.Name(), err)
	}
	var handles []*WatchHandle
	var lastErr error
	for _, ad := range br.Matches {
		msg := kqml.New(kqml.Subscribe, a.Name(), &kqml.SubscribeContent{
			SQL:               sql,
			SubscriberName:    a.Name(),
			SubscriberAddress: a.Addr(),
		})
		msg.Receiver = ad.Name
		reply, err := a.Call(ctx, ad.Address, msg)
		if err != nil {
			lastErr = err
			continue
		}
		if reply.Performative != kqml.Tell {
			lastErr = fmt.Errorf("monitor %s: %s: %s", a.Name(), ad.Name, kqml.ReasonOf(reply))
			continue
		}
		var ack kqml.SubscribeAck
		if err := reply.DecodeContent(&ack); err != nil {
			lastErr = err
			continue
		}
		h := &WatchHandle{Resource: ad.Name, Address: ad.Address, SubscriptionID: ack.ID, agent: a}
		a.mu.Lock()
		a.watches = append(a.watches, h)
		a.mu.Unlock()
		mStandingQueries.Inc()
		handles = append(handles, h)
	}
	if len(handles) == 0 {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, fmt.Errorf("monitor %s: no subscribable resources match %s", a.Name(), q)
	}
	return handles, nil
}

// Unwatch cancels every active subscription.
func (a *Agent) Unwatch(ctx context.Context) {
	a.mu.Lock()
	watches := append([]*WatchHandle(nil), a.watches...)
	a.mu.Unlock()
	for _, w := range watches {
		_ = w.Cancel(ctx)
	}
}

// Events returns the retained notifications, oldest first. The ring is
// bounded (WithEventCapacity): a long-running monitor keeps only the most
// recent window, and DroppedEvents counts what aged out.
func (a *Agent) Events() []Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.snapshotLocked()
}

// Drain returns the retained notifications, oldest first, and empties the
// ring. Sequence numbers keep increasing across drains.
func (a *Agent) Drain() []Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.snapshotLocked()
	a.ring = a.ring[:0]
	a.next = 0
	a.filled = false
	return out
}

// EventsSince returns retained events with Seq > seq, oldest first — the
// paging API: pass the last seen sequence number to read only new
// notifications.
func (a *Agent) EventsSince(seq uint64) []Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	all := a.snapshotLocked()
	for i, ev := range all {
		if ev.Seq > seq {
			return all[i:]
		}
	}
	return nil
}

func (a *Agent) snapshotLocked() []Event {
	if !a.filled {
		return append([]Event(nil), a.ring...)
	}
	out := make([]Event, 0, len(a.ring))
	out = append(out, a.ring[a.next:]...)
	out = append(out, a.ring[:a.next]...)
	return out
}

// DroppedEvents counts notifications overwritten because the bounded ring
// was full before they were read.
func (a *Agent) DroppedEvents() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}

// Watches returns the active subscription count.
func (a *Agent) Watches() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.watches)
}

// WatchHandles returns the active subscriptions.
func (a *Agent) WatchHandles() []*WatchHandle {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*WatchHandle(nil), a.watches...)
}
