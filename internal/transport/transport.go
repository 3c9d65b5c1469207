// Package transport moves KQML messages between agents. Two
// implementations share one interface: an in-process transport used by
// tests, examples and the experiment harness (thousands of agents in one
// process), and a TCP transport with 4-byte length-prefixed JSON frames for
// the cmd/ executables, matching the paper's "contacted via the tcp
// transport protocol at port 4356 on host b1.mcc.com" addressing.
//
// Interaction is request/reply: every Call delivers one message and waits
// for one response, which is how the paper's agents converse (query in,
// result out; advertise in, confirmation out). Failure of the remote end
// surfaces as an error from Call — the signal agents use to detect dead
// brokers (Section 4.2.2).
package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"infosleuth/internal/kqml"
)

// Handler processes one incoming message and returns the reply.
type Handler func(msg *kqml.Message) *kqml.Message

// ErrUnreachable reports that no process is listening at the address —
// what an agent observes when a broker has died.
var ErrUnreachable = errors.New("transport: peer unreachable")

// safeHandle invokes a handler, converting a panic into an error reply so
// one misbehaving message cannot take an agent (or, over TCP, the whole
// process) down.
func safeHandle(h Handler, msg *kqml.Message) (reply *kqml.Message) {
	defer func() {
		if r := recover(); r != nil {
			reply = kqml.New(kqml.Error, msg.Receiver, &kqml.SorryContent{
				Reason: fmt.Sprintf("handler panic: %v", r),
			})
			reply.InReplyTo = msg.ReplyWith
		}
	}()
	return h(msg)
}

// Transport binds handlers to addresses and calls remote handlers.
type Transport interface {
	// Listen serves incoming messages at the address until the returned
	// listener is closed.
	Listen(addr string, h Handler) (Listener, error)
	// Call delivers a message to the address and returns the reply.
	Call(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error)
}

// Listener is an active binding; Close unbinds it.
type Listener interface {
	// Addr returns the bound address (useful when the requested address
	// had port 0).
	Addr() string
	Close() error
}

// InProc is an in-process Transport: addresses of the form
// "inproc://name" map to handlers in a shared registry. The zero value is
// not usable; create one with NewInProc. It is safe for concurrent use.
type InProc struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	next     int
}

// NewInProc returns an empty in-process transport.
func NewInProc() *InProc {
	return &InProc{handlers: make(map[string]Handler)}
}

type inprocListener struct {
	t    *InProc
	addr string
}

func (l *inprocListener) Addr() string { return l.addr }

func (l *inprocListener) Close() error {
	l.t.mu.Lock()
	defer l.t.mu.Unlock()
	delete(l.t.handlers, l.addr)
	return nil
}

// Listen binds a handler. An empty or "inproc://" address is assigned a
// fresh unique one.
func (t *InProc) Listen(addr string, h Handler) (Listener, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr == "" || addr == "inproc://" {
		t.next++
		addr = fmt.Sprintf("inproc://agent-%d", t.next)
	}
	if !strings.HasPrefix(addr, "inproc://") {
		return nil, fmt.Errorf("transport: in-process transport requires inproc:// address, got %q", addr)
	}
	if _, dup := t.handlers[addr]; dup {
		return nil, fmt.Errorf("transport: address %q already bound", addr)
	}
	t.handlers[addr] = h
	return &inprocListener{t: t, addr: addr}, nil
}

// Call invokes the handler bound at addr synchronously. A missing binding
// returns ErrUnreachable. Context cancellation is honored before dispatch
// (in-process handlers are assumed fast).
func (t *InProc) Call(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error) {
	stampTrace(ctx, msg)
	start := time.Now()
	reply, sent, received, err := t.doCall(ctx, addr, msg)
	recordCall("inproc", addr, start, sent, received, err)
	recordCallTrace(msg, reply, start, err)
	return reply, err
}

func (t *InProc) doCall(ctx context.Context, addr string, msg *kqml.Message) (_ *kqml.Message, sent, received int, _ error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	t.mu.RLock()
	h, ok := t.handlers[addr]
	t.mu.RUnlock()
	if !ok {
		return nil, 0, 0, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	// Round-trip through the codec so in-process behavior matches TCP
	// exactly (no shared pointers between caller and handler).
	wire, err := kqml.Marshal(msg)
	if err != nil {
		return nil, 0, 0, err
	}
	sent = len(wire)
	decoded, err := kqml.Unmarshal(wire)
	if err != nil {
		return nil, sent, 0, err
	}
	served := time.Now()
	reply := safeHandle(h, decoded)
	mServed.With("inproc").Inc()
	mServeSeconds.With("inproc").Observe(time.Since(served).Seconds())
	if reply == nil {
		return nil, sent, 0, fmt.Errorf("transport: handler at %s returned no reply", addr)
	}
	wire, err = kqml.Marshal(reply)
	if err != nil {
		return nil, sent, 0, err
	}
	received = len(wire)
	out, err := kqml.Unmarshal(wire)
	return out, sent, received, err
}
