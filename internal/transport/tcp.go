package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"infosleuth/internal/kqml"
)

// MaxFrame bounds a single message frame (16 MiB): large enough for any
// result the reproduction produces, small enough to fail fast on a
// corrupted length prefix.
const MaxFrame = 16 << 20

// ErrFrameTooLarge reports a frame whose length prefix or payload exceeds
// MaxFrame — on the read side usually a corrupted prefix or a non-KQML
// peer, on the write side a result that should have been paginated.
var ErrFrameTooLarge = errors.New("transport: frame exceeds MaxFrame")

// ErrTruncatedFrame reports a connection that closed or failed in the
// middle of a frame: the peer died mid-reply, as opposed to a clean close
// between exchanges (plain io.EOF) or a peer that never existed
// (ErrUnreachable).
var ErrTruncatedFrame = errors.New("transport: truncated frame")

// Pool and server-side idle defaults, overridable per TCP value.
const (
	// DefaultMaxIdleConnsPerHost bounds idle pooled connections per peer.
	DefaultMaxIdleConnsPerHost = 4
	// DefaultIdleConnTimeout is how long a pooled client connection may
	// sit idle before the reaper closes it.
	DefaultIdleConnTimeout = 60 * time.Second
	// DefaultServerIdleTimeout is how long the server side keeps a quiet
	// connection before closing it. It is deliberately longer than the
	// client pool's idle expiry so the client usually closes first and
	// never checks out a connection the server is about to kill.
	DefaultServerIdleTimeout = 2 * time.Minute
)

// TCP is a Transport over TCP with "tcp://host:port" addresses. Frames are
// a 4-byte big-endian length followed by the JSON-encoded message, built in
// one pooled buffer and written with one Write.
// Connections are pooled: a Call reuses an idle connection to its peer
// when one is parked, and parks its connection on success, so steady
// traffic to one peer pays the TCP handshake once instead of per call
// (serveConn has always served sequential exchanges per connection, so
// only this client side changed). The zero value is ready to use.
type TCP struct {
	// DialTimeout bounds connection establishment when the Call context
	// carries no deadline; zero means 5 seconds.
	DialTimeout time.Duration
	// MaxIdleConnsPerHost bounds the idle pooled connections kept per
	// peer address; zero means DefaultMaxIdleConnsPerHost, negative
	// disables pooling entirely (every Call dials — the pre-pool
	// behavior, kept for the dial-cost ablation benchmarks).
	MaxIdleConnsPerHost int
	// IdleConnTimeout is how long a pooled connection may sit idle
	// before the reaper evicts it; zero means DefaultIdleConnTimeout.
	IdleConnTimeout time.Duration
	// ServerIdleTimeout closes server-side connections that carry no
	// request for this long, so abandoned client connections cannot pin
	// a serving goroutine forever; zero means DefaultServerIdleTimeout,
	// negative disables the deadline.
	ServerIdleTimeout time.Duration

	poolOnce sync.Once
	pool     *connPool
}

type tcpListener struct {
	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{}

	// mu guards conns, the active server-side connections. Close closes
	// them so a listener shutdown does not wait out clients whose pooled
	// connections are parked open.
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func (l *tcpListener) Addr() string { return "tcp://" + l.ln.Addr().String() }

func (l *tcpListener) Close() error {
	close(l.closed)
	err := l.ln.Close()
	l.mu.Lock()
	for conn := range l.conns {
		conn.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}

func (l *tcpListener) track(conn net.Conn) {
	l.mu.Lock()
	l.conns[conn] = struct{}{}
	l.mu.Unlock()
}

func (l *tcpListener) untrack(conn net.Conn) {
	l.mu.Lock()
	delete(l.conns, conn)
	l.mu.Unlock()
}

// Listen serves at "tcp://host:port"; port 0 picks a free port, reported by
// the listener's Addr.
func (t *TCP) Listen(addr string, h Handler) (Listener, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler")
	}
	hostport, err := stripTCP(addr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", hostport)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	idle := t.ServerIdleTimeout
	if idle == 0 {
		idle = DefaultServerIdleTimeout
	}
	tl := &tcpListener{ln: ln, closed: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	tl.wg.Add(1)
	go func() {
		defer tl.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				select {
				case <-tl.closed:
					return
				default:
				}
				if errors.Is(err, net.ErrClosed) {
					return
				}
				continue
			}
			tl.wg.Add(1)
			go func() {
				defer tl.wg.Done()
				defer tl.untrack(conn)
				defer conn.Close()
				tl.track(conn)
				serveConn(conn, h, idle)
			}()
		}
	}()
	return tl, nil
}

// serveConn handles sequential request/reply exchanges on one connection
// until the peer closes it, a frame error occurs, or the connection sits
// quiet past idleTimeout — without the deadline an abandoned (now:
// pooled) client connection would pin this goroutine forever.
func serveConn(conn net.Conn, h Handler, idleTimeout time.Duration) {
	for {
		if idleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(idleTimeout))
		}
		req, err := readFrame(conn)
		if err != nil {
			switch {
			case errors.Is(err, io.EOF):
				// Clean close between exchanges.
			case errors.Is(err, os.ErrDeadlineExceeded):
				mServeIdleCloses.With("tcp").Inc()
			default:
				mServeErrors.With("tcp").Inc()
			}
			return
		}
		msg, err := kqml.Unmarshal(req)
		if err != nil {
			mServeErrors.With("tcp").Inc()
			return
		}
		start := time.Now()
		reply := safeHandle(h, msg)
		mServed.With("tcp").Inc()
		mServeSeconds.With("tcp").Observe(time.Since(start).Seconds())
		if reply == nil {
			reply = &kqml.Message{Performative: kqml.Error, Sender: msg.Receiver}
		}
		frame, err := encodeFrame(reply)
		if err != nil {
			// The handler has run. Closing the connection instead would
			// make a client on a reused connection take it for stale and
			// send the request again, so it is told what happened.
			mServeErrors.With("tcp").Inc()
			sorry := kqml.New(kqml.Error, msg.Receiver, &kqml.SorryContent{
				Reason: kqml.SorryReasonUnframeableReply + ": " + err.Error(),
			})
			sorry.InReplyTo = msg.ReplyWith
			if frame, err = encodeFrame(sorry); err != nil {
				return
			}
		}
		_, err = conn.Write(*frame)
		releaseFrame(frame)
		if err != nil {
			mServeErrors.With("tcp").Inc()
			return
		}
	}
}

// Call sends the message to the address and waits for the reply, reusing
// a pooled connection when one is parked and dialing otherwise.
// Connection refusals surface as ErrUnreachable. The write and read both
// run under a deadline derived from the context, and cancellation aborts
// an in-flight exchange, so a hung remote returns the context's error
// instead of blocking the caller forever. An exchange that fails on a
// reused connection — typically one the peer closed while it sat idle —
// is evicted and retried once on a fresh dial.
func (t *TCP) Call(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error) {
	stampTrace(ctx, msg)
	start := time.Now()
	reply, sent, received, err := t.doCall(ctx, addr, msg)
	recordCall("tcp", addr, start, sent, received, err)
	recordCallTrace(msg, reply, start, err)
	return reply, err
}

func (t *TCP) doCall(ctx context.Context, addr string, msg *kqml.Message) (_ *kqml.Message, sent, received int, _ error) {
	hostport, err := stripTCP(addr)
	if err != nil {
		return nil, 0, 0, err
	}
	frame, err := encodeFrame(msg)
	if err != nil {
		return nil, 0, 0, err
	}
	defer releaseFrame(frame)
	out := *frame
	conn, reused, err := t.checkout(ctx, hostport)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, err)
	}
	reply, sent, received, err := t.exchange(ctx, conn, addr, hostport, out)
	if err != nil && reused && ctx.Err() == nil && !errors.Is(err, ErrFrameTooLarge) {
		// The parked connection had gone stale under us (the peer's idle
		// timeout, a restart). The request is re-sent verbatim on a
		// fresh dial — once: a second failure is a real peer problem.
		mPoolEvictions.With("broken").Inc()
		conn, err = t.dial(ctx, hostport)
		if err != nil {
			return nil, sent, received, fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, err)
		}
		var sent2, received2 int
		reply, sent2, received2, err = t.exchange(ctx, conn, addr, hostport, out)
		sent += sent2
		received += received2
	}
	return reply, sent, received, err
}

// exchange performs one request/reply on the connection; out is the whole
// request frame, length prefix included. On success the connection is
// parked for reuse; on failure it is closed.
func (t *TCP) exchange(ctx context.Context, conn net.Conn, addr, hostport string, out []byte) (_ *kqml.Message, sent, received int, _ error) {
	// Derive the read/write deadline from the context by watching it rather
	// than with conn.SetDeadline(ctx.Deadline()): ctx.Done() closes only
	// after ctx.Err() is set, so when a blocked write or read wakes up the
	// cause is unambiguous. This also covers cancellation without a
	// deadline. A context that can never be done needs no watch.
	var watch *deadlineWatch
	if ctx.Done() != nil {
		watch = watchDeadline(ctx, conn)
	}
	// ctxWrap prefers the context's error once it has fired, so callers
	// see context.DeadlineExceeded / context.Canceled rather than an
	// opaque i/o timeout.
	ctxWrap := func(op string, err error) error {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("transport: %s %s: %w", op, addr, ctxErr)
		}
		return fmt.Errorf("transport: %s %s: %w", op, addr, err)
	}
	if _, err := conn.Write(out); err != nil {
		watch.stop()
		conn.Close()
		return nil, 0, 0, ctxWrap("writing to", err)
	}
	sent = len(out) - frameHeader
	in, err := readFrame(conn)
	// The watch is joined, not just signaled, before the connection is
	// parked, so a late cancellation cannot poison a pooled connection's
	// deadline after it has been reset.
	watch.stop()
	if err != nil {
		conn.Close()
		return nil, sent, 0, ctxWrap("reading reply from", err)
	}
	reply, err := kqml.Unmarshal(in)
	if err != nil {
		conn.Close()
		return nil, sent, len(in), err
	}
	_ = conn.SetDeadline(time.Time{})
	t.checkin(hostport, conn)
	return reply, sent, len(in), nil
}

// deadlineWatch expires a connection's deadline when a context is done, so
// that a blocked read or write returns. A nil watch watches nothing.
type deadlineWatch struct {
	cancel func() bool
	// mu orders expire against stop: once stop has returned, expire does
	// nothing, even if the context fired and expire is about to run.
	mu      sync.Mutex
	stopped bool
	conn    net.Conn
}

func watchDeadline(ctx context.Context, conn net.Conn) *deadlineWatch {
	w := &deadlineWatch{conn: conn}
	w.cancel = context.AfterFunc(ctx, w.expire)
	return w
}

func (w *deadlineWatch) expire() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.stopped {
		_ = w.conn.SetDeadline(time.Now())
	}
}

// stop ends the watch. When it returns the watch has either expired the
// deadline already or never will.
func (w *deadlineWatch) stop() {
	if w == nil || w.cancel() {
		return
	}
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
}

func stripTCP(addr string) (string, error) {
	if !strings.HasPrefix(addr, "tcp://") {
		return "", fmt.Errorf("transport: TCP transport requires tcp:// address, got %q", addr)
	}
	return strings.TrimPrefix(addr, "tcp://"), nil
}

// frameHeader is the length prefix of a frame.
const frameHeader = 4

// maxPooledFrame is the largest encode buffer kept for reuse; one grown
// for a rare huge result is left to the collector.
const maxPooledFrame = 1 << 20

// framePool holds encode buffers between frames. Only the encode side
// pools: a decoded message keeps the frame it was read into.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// encodeFrame encodes m behind its length prefix in a pooled buffer, ready
// for one Write. The caller hands the buffer to releaseFrame once written.
func encodeFrame(m *kqml.Message) (*[]byte, error) {
	frame := framePool.Get().(*[]byte)
	var prefix [frameHeader]byte
	b, err := kqml.AppendMessage(append((*frame)[:0], prefix[:]...), m)
	*frame = b
	n := len(b) - frameHeader
	if err == nil && n > MaxFrame {
		err = fmt.Errorf("%w: writing %d bytes (limit %d)", ErrFrameTooLarge, n, MaxFrame)
	}
	if err != nil {
		releaseFrame(frame)
		return nil, err
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	return frame, nil
}

func releaseFrame(frame *[]byte) {
	if cap(*frame) <= maxPooledFrame {
		framePool.Put(frame)
	}
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			// Bytes arrived, then the stream died: a peer failing
			// mid-frame, not a clean between-exchanges close.
			return nil, fmt.Errorf("%w: connection closed mid-header: %v", ErrTruncatedFrame, err)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: reading %d bytes (limit %d)", ErrFrameTooLarge, n, MaxFrame)
	}
	payload := make([]byte, n)
	if m, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: got %d of %d payload bytes: %v", ErrTruncatedFrame, m, n, err)
	}
	return payload, nil
}
