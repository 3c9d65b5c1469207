package broker

import (
	"context"
	"log/slog"
	"strings"
	"sync/atomic"
	"time"

	"infosleuth/internal/broadcast"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
)

// holders is a running broker's registry of located-set holders: agents
// that keep a search's reply and answer later queries from it until this
// broker tells them a change may alter it (DESIGN.md §14). Each holder is
// a subscription on a broadcast.Hub, indexed under the query's classes
// and their subclasses; a class-less query sits in the hub's
// evaluate-all tier. A registration fires once: the update it sends
// invalidates every set the holder got from this broker, and the
// holder's next search registers it again.
type holders struct {
	hub *broadcast.Hub
	// used is set by the first registration. Until then a change has no
	// one to tell and publishes nothing: a broker whose clients keep no
	// sets pays one atomic load per change.
	used atomic.Bool
	// ctx ends with the broker's Stop: an update in flight, or a wait
	// for a lease to run out, ends with it.
	ctx    context.Context
	cancel context.CancelFunc
}

func newHolders() *holders {
	ctx, cancel := context.WithCancel(context.Background())
	return &holders{hub: broadcast.New(broadcast.Options{}), ctx: ctx, cancel: cancel}
}

// close drops every registration and waits for the senders to exit.
func (h *holders) close() {
	h.cancel()
	h.hub.Close()
	_ = h.hub.Flush(context.Background()) // a cancelled delivery returns at once
}

// register puts a holder on the hub for q before the broker matches q, so
// that a change landing after the match has someone to tell. The
// registration's ID is the holder and the query's ontology and classes,
// so a holder has one registration per class set and a new search
// replaces the last one.
func (b *Broker) register(h *holders, holder string, q *ontology.Query) {
	ont := b.cfg.World.Ontology(q.Ontology)
	classes := append([]string(nil), q.Classes...)
	if ont != nil {
		for _, c := range q.Classes {
			classes = append(classes, ont.Descendants(c)...)
		}
	}
	id := holder + "\x00" + strings.ToLower(q.Ontology) + "\x00" + strings.ToLower(strings.Join(q.Classes, "\x00"))
	registered := time.Now()
	h.used.Store(true)
	var self atomic.Pointer[broadcast.Sub]
	sub := h.hub.Subscribe(id, classes, nil, func(batch broadcast.Batch) {
		if s := self.Load(); s != nil {
			s.Close()
		}
		b.notifyHolder(h.ctx, holder, registered, batch.Last().Seq)
	})
	self.Store(sub)
}

// notifyHolder sends a holder the update that invalidates its located
// sets from this broker. A holder whose lease has run out is not called:
// it trusts none of them any more. A failed update is waited out: the
// holder stops trusting the sets when the lease, which it measures from
// before this registration, runs out, and the change is acknowledged
// only after that.
func (b *Broker) notifyHolder(ctx context.Context, holder string, registered time.Time, seq uint64) {
	deadline := registered.Add(kqml.LocatedSetLease)
	if !time.Now().Before(deadline) {
		return
	}
	cctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	msg := kqml.New(kqml.Update, b.cfg.Name, &kqml.UpdateContent{Seq: seq})
	msg.Ontology = kqml.ServiceOntology
	reply, err := b.callFn(cctx, holder, msg)
	if err == nil && reply.Performative == kqml.Tell {
		return
	}
	slog.Debug("located-set update failed; waiting out the lease", "broker", b.cfg.Name, "holder", holder, "err", err)
	<-cctx.Done()
}

// publishChange tells the holders of every class an advertisement change
// touches: the classes old served and the classes ad serves. It runs
// wherever the repository's generation advances. An advertisement with no
// classes (a broker, a user agent) can change any class-less query's
// answer, and is published to every holder.
func (b *Broker) publishChange(old, ad *ontology.Advertisement) {
	h := b.located.Load()
	if h == nil || !h.used.Load() {
		return
	}
	for _, a := range [2]*ontology.Advertisement{old, ad} {
		if a == nil {
			continue
		}
		published := false
		for i := range a.Content {
			for _, c := range a.Content[i].Classes {
				h.hub.Publish(broadcast.Event{Class: strings.ToLower(c)})
				published = true
			}
		}
		if !published {
			h.hub.Publish(broadcast.Event{})
		}
	}
}

// flushHolders returns once every update a change published has been
// delivered, or waited out: the broker acknowledges an advertise, an
// unadvertise, a peer change or a ping drop only after it.
func (b *Broker) flushHolders() {
	if h := b.located.Load(); h != nil {
		_ = h.hub.Flush(context.Background()) // every delivery ends by its lease
	}
}
