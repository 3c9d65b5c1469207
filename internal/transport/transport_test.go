package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infosleuth/internal/kqml"
)

func echoHandler(name string) Handler {
	return func(msg *kqml.Message) *kqml.Message {
		reply := &kqml.Message{
			Performative: kqml.Tell,
			Sender:       name,
			Receiver:     msg.Sender,
			InReplyTo:    msg.ReplyWith,
			Content:      msg.Content,
		}
		return reply
	}
}

func testCall(t *testing.T, tr Transport, addr string) {
	t.Helper()
	msg := kqml.New(kqml.AskAll, "caller", &kqml.SQLQuery{SQL: "select * from C2"})
	msg.ReplyWith = "m1"
	reply, err := tr.Call(context.Background(), addr, msg)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if reply.Performative != kqml.Tell || reply.InReplyTo != "m1" {
		t.Errorf("reply = %+v", reply)
	}
	var q kqml.SQLQuery
	if err := reply.DecodeContent(&q); err != nil {
		t.Fatal(err)
	}
	if q.SQL != "select * from C2" {
		t.Errorf("echoed content = %q", q.SQL)
	}
}

func TestInProcCall(t *testing.T) {
	tr := NewInProc()
	l, err := tr.Listen("inproc://echo", echoHandler("echo"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	testCall(t, tr, "inproc://echo")
}

func TestInProcUnreachable(t *testing.T) {
	tr := NewInProc()
	_, err := tr.Call(context.Background(), "inproc://nobody", kqml.New(kqml.Ping, "x", &kqml.PingContent{}))
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestInProcCloseUnbinds(t *testing.T) {
	tr := NewInProc()
	l, err := tr.Listen("inproc://a", echoHandler("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = tr.Call(context.Background(), "inproc://a", kqml.New(kqml.Ping, "x", &kqml.PingContent{}))
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("after close, err = %v, want ErrUnreachable", err)
	}
	// Address can be reused after close — agents restart at the same
	// address in the robustness experiments.
	if _, err := tr.Listen("inproc://a", echoHandler("a")); err != nil {
		t.Errorf("rebind after close: %v", err)
	}
}

func TestInProcDuplicateBind(t *testing.T) {
	tr := NewInProc()
	if _, err := tr.Listen("inproc://a", echoHandler("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Listen("inproc://a", echoHandler("a2")); err == nil {
		t.Error("duplicate bind should fail")
	}
}

func TestInProcAutoAddress(t *testing.T) {
	tr := NewInProc()
	l1, err := tr.Listen("", echoHandler("x"))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := tr.Listen("", echoHandler("y"))
	if err != nil {
		t.Fatal(err)
	}
	if l1.Addr() == l2.Addr() {
		t.Errorf("auto addresses collide: %s", l1.Addr())
	}
	testCall(t, tr, l1.Addr())
}

func TestInProcRejectsWrongScheme(t *testing.T) {
	tr := NewInProc()
	if _, err := tr.Listen("tcp://x:1", echoHandler("x")); err == nil {
		t.Error("inproc transport should reject tcp addresses")
	}
}

func TestInProcNoSharedPointers(t *testing.T) {
	// The in-process transport must behave like the wire: mutations by
	// the handler must not leak back into the caller's message.
	tr := NewInProc()
	var got *kqml.Message
	_, err := tr.Listen("inproc://m", func(msg *kqml.Message) *kqml.Message {
		got = msg
		msg.Sender = "mutated"
		return &kqml.Message{Performative: kqml.Tell, Sender: "m"}
	})
	if err != nil {
		t.Fatal(err)
	}
	orig := kqml.New(kqml.Ping, "caller", &kqml.PingContent{AgentName: "caller"})
	if _, err := tr.Call(context.Background(), "inproc://m", orig); err != nil {
		t.Fatal(err)
	}
	if orig.Sender != "caller" {
		t.Error("handler mutation leaked into the caller's message")
	}
	if got == orig {
		t.Error("handler received the caller's pointer")
	}
}

func TestInProcConcurrentCalls(t *testing.T) {
	tr := NewInProc()
	if _, err := tr.Listen("inproc://echo", echoHandler("echo")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := kqml.New(kqml.AskAll, fmt.Sprintf("caller-%d", i), &kqml.SQLQuery{SQL: "q"})
			if _, err := tr.Call(context.Background(), "inproc://echo", m); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestInProcContextCancelled(t *testing.T) {
	tr := NewInProc()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := tr.Call(ctx, "inproc://x", kqml.New(kqml.Ping, "x", &kqml.PingContent{}))
	if err == nil {
		t.Error("cancelled context should fail the call")
	}
}

func TestTCPCall(t *testing.T) {
	tr := &TCP{}
	l, err := tr.Listen("tcp://127.0.0.1:0", echoHandler("echo"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	testCall(t, tr, l.Addr())
}

func TestTCPUnreachable(t *testing.T) {
	tr := &TCP{DialTimeout: 200 * time.Millisecond}
	// A port that nothing listens on.
	_, err := tr.Call(context.Background(), "tcp://127.0.0.1:1", kqml.New(kqml.Ping, "x", &kqml.PingContent{}))
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestTCPListenerCloseStops(t *testing.T) {
	tr := &TCP{}
	l, err := tr.Listen("tcp://127.0.0.1:0", echoHandler("echo"))
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tr2 := &TCP{DialTimeout: 200 * time.Millisecond}
	if _, err := tr2.Call(context.Background(), addr, kqml.New(kqml.Ping, "x", &kqml.PingContent{})); err == nil {
		t.Error("call to closed listener should fail")
	}
}

func TestTCPSequentialCallsOnManyConnections(t *testing.T) {
	tr := &TCP{}
	l, err := tr.Listen("tcp://127.0.0.1:0", echoHandler("echo"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		testCall(t, tr, l.Addr())
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	tr := &TCP{}
	l, err := tr.Listen("tcp://127.0.0.1:0", echoHandler("echo"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := kqml.New(kqml.AskAll, "c", &kqml.SQLQuery{SQL: "q"})
			if _, err := tr.Call(context.Background(), l.Addr(), m); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPDeadline(t *testing.T) {
	tr := &TCP{}
	slow := func(msg *kqml.Message) *kqml.Message {
		time.Sleep(300 * time.Millisecond)
		return &kqml.Message{Performative: kqml.Tell, Sender: "slow"}
	}
	l, err := tr.Listen("tcp://127.0.0.1:0", slow)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := tr.Call(ctx, l.Addr(), kqml.New(kqml.Ping, "x", &kqml.PingContent{})); err == nil {
		t.Error("deadline should abort the slow call")
	}
}

func TestTCPRejectsWrongScheme(t *testing.T) {
	tr := &TCP{}
	if _, err := tr.Listen("inproc://x", echoHandler("x")); err == nil {
		t.Error("TCP transport should reject inproc addresses")
	}
	if _, err := tr.Call(context.Background(), "inproc://x", &kqml.Message{Performative: kqml.Ping, Sender: "s"}); err == nil {
		t.Error("TCP call should reject inproc addresses")
	}
}

func TestFrameSizeLimit(t *testing.T) {
	msg := kqml.New(kqml.Tell, "s", &kqml.SorryContent{Reason: strings.Repeat("x", MaxFrame)})
	if _, err := encodeFrame(msg); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame err = %v, want ErrFrameTooLarge", err)
	}
}

// hungListener accepts TCP connections and never replies — the shape of a
// remote that wedged after accepting (distinct from a dead peer, which
// refuses the connection outright).
func hungListener(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go func() {
				// Drain the request but never answer.
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
					select {
					case <-done:
						return
					default:
					}
				}
			}()
		}
	}()
	return "tcp://" + ln.Addr().String(), func() {
		close(done)
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	}
}

// TestTCPHungRemoteReturnsContextError is the regression test for the
// read-path deadline: a remote that accepts the connection and then hangs
// must fail the Call with the context's error once the deadline passes,
// not block forever on the read.
func TestTCPHungRemoteReturnsContextError(t *testing.T) {
	addr, stop := hungListener(t)
	defer stop()
	tr := &TCP{}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tr.Call(ctx, addr, kqml.New(kqml.Ping, "x", &kqml.PingContent{}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("call took %v: the read did not honor the deadline", elapsed)
	}
}

// TestTCPCancelAbortsInFlightCall covers cancellation without a deadline:
// before the hardening, a context with no deadline left the connection
// with no read deadline at all, so a hung remote blocked the caller
// forever regardless of cancellation.
func TestTCPCancelAbortsInFlightCall(t *testing.T) {
	addr, stop := hungListener(t)
	defer stop()
	tr := &TCP{}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := tr.Call(ctx, addr, kqml.New(kqml.Ping, "x", &kqml.PingContent{}))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("call took %v: cancellation did not abort the read", elapsed)
	}
}

// TestReadFrameOversized covers the read side of the frame limit: a
// length prefix beyond MaxFrame (a corrupted prefix or a non-KQML peer)
// surfaces as ErrFrameTooLarge.
func TestReadFrameOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	_, err := readFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestReadFrameMidFrameEOF covers a peer dying mid-frame: both a
// truncated header and a truncated payload surface as ErrTruncatedFrame,
// while a clean close between exchanges stays plain io.EOF (which is how
// serveConn tells the difference).
func TestReadFrameMidFrameEOF(t *testing.T) {
	// Truncated header: two of four length bytes.
	_, err := readFrame(bytes.NewReader([]byte{0, 0}))
	if !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("mid-header err = %v, want ErrTruncatedFrame", err)
	}
	// Truncated payload: header promises 100 bytes, 10 arrive.
	var frame bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	frame.Write(hdr[:])
	frame.Write(make([]byte, 10))
	_, err = readFrame(&frame)
	if !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("mid-payload err = %v, want ErrTruncatedFrame", err)
	}
	// Clean close between exchanges: plain io.EOF, not a frame error.
	_, err = readFrame(bytes.NewReader(nil))
	if !errors.Is(err, io.EOF) || errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("clean close err = %v, want plain io.EOF", err)
	}
}

// FuzzReadFrame holds readFrame to its contract on arbitrary input: it
// never panics; it fails with ErrFrameTooLarge exactly when the length
// prefix exceeds MaxFrame and with ErrTruncatedFrame exactly when fewer
// bytes arrive than the header or its prefix promised (no bytes at all is
// a clean io.EOF); otherwise it returns the prefixed payload. And a frame
// encodeFrame writes for a message reads back as that message's bytes.
func FuzzReadFrame(f *testing.F) {
	frame := func(payload []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	traced := kqml.New(kqml.Tell, "Broker1", &kqml.PingReply{Known: true})
	traced.TraceID = "t-1"
	traced.Trace = []kqml.TraceSpan{{Op: kqml.OpTraceDropped, Dropped: 3},
		{Agent: "Broker1", Op: kqml.OpBrokerSearch, Start: 1, DurationMicros: 2}}
	wire, err := kqml.Marshal(traced)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		nil, {0}, {0, 0, 0}, frame(nil), frame(wire), append(frame(wire), 'x'), frame(wire)[:len(wire)],
		binary.BigEndian.AppendUint32(nil, MaxFrame), binary.BigEndian.AppendUint32(nil, MaxFrame+1), wire,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data))
		switch {
		case len(data) == 0:
			if err != io.EOF {
				t.Fatalf("empty input: err = %v, want io.EOF", err)
			}
		case len(data) < frameHeader:
			if !errors.Is(err, ErrTruncatedFrame) {
				t.Fatalf("%d header bytes: err = %v, want ErrTruncatedFrame", len(data), err)
			}
		default:
			n := uint64(binary.BigEndian.Uint32(data))
			switch {
			case n > MaxFrame:
				if !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("prefix %d: err = %v, want ErrFrameTooLarge", n, err)
				}
			case uint64(len(data)-frameHeader) < n:
				if !errors.Is(err, ErrTruncatedFrame) {
					t.Fatalf("prefix %d over %d bytes: err = %v, want ErrTruncatedFrame", n, len(data)-frameHeader, err)
				}
			case err != nil || !bytes.Equal(payload, data[frameHeader:frameHeader+n]):
				t.Fatalf("prefix %d: got %q, %v; want the prefixed payload", n, payload, err)
			}
		}
		m, err := kqml.Unmarshal(data)
		if err != nil {
			return
		}
		want, err := kqml.Marshal(m)
		if err != nil {
			return
		}
		written, err := encodeFrame(m)
		if err != nil {
			t.Fatalf("encodeFrame of a %d-byte message: %v", len(want), err)
		}
		defer releaseFrame(written)
		if got, err := readFrame(bytes.NewReader(*written)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round trip: got %q, %v; want %q", got, err, want)
		}
	})
}

// TestErrorPathsAreDistinct pins the taxonomy: unreachable peers,
// oversized frames, and truncated frames are three different conditions
// and must never alias (agents treat unreachable as broker death, the
// others as protocol damage).
func TestErrorPathsAreDistinct(t *testing.T) {
	tr := &TCP{DialTimeout: 200 * time.Millisecond}
	_, refusedErr := tr.Call(context.Background(), "tcp://127.0.0.1:1",
		kqml.New(kqml.Ping, "x", &kqml.PingContent{}))
	if !errors.Is(refusedErr, ErrUnreachable) {
		t.Fatalf("refused err = %v, want ErrUnreachable", refusedErr)
	}
	if errors.Is(refusedErr, ErrFrameTooLarge) || errors.Is(refusedErr, ErrTruncatedFrame) {
		t.Errorf("refused error aliases a frame error: %v", refusedErr)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	_, oversizedErr := readFrame(bytes.NewReader(hdr[:]))
	if errors.Is(oversizedErr, ErrTruncatedFrame) || errors.Is(oversizedErr, ErrUnreachable) {
		t.Errorf("oversized error aliases another sentinel: %v", oversizedErr)
	}
	_, truncatedErr := readFrame(bytes.NewReader([]byte{0, 0}))
	if errors.Is(truncatedErr, ErrFrameTooLarge) || errors.Is(truncatedErr, ErrUnreachable) {
		t.Errorf("truncated error aliases another sentinel: %v", truncatedErr)
	}
}

// TestOversizedReplySurfacesOnClient sends a request to a server whose
// reply frame claims to exceed MaxFrame; the client must fail with
// ErrFrameTooLarge rather than allocating the bogus size.
func TestOversizedReplySurfacesOnClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readFrame(conn); err != nil {
			return
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
		_, _ = conn.Write(hdr[:])
	}()
	tr := &TCP{}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err = tr.Call(ctx, "tcp://"+ln.Addr().String(), kqml.New(kqml.Ping, "x", &kqml.PingContent{}))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestPeerFailureCounter checks the telemetry feed behind dead-broker
// detection: failed calls are counted against the remote address.
func TestPeerFailureCounter(t *testing.T) {
	tr := &TCP{DialTimeout: 200 * time.Millisecond}
	const addr = "tcp://127.0.0.1:1"
	before := PeerFailures(addr)
	_, _ = tr.Call(context.Background(), addr, kqml.New(kqml.Ping, "x", &kqml.PingContent{}))
	if got := PeerFailures(addr); got != before+1 {
		t.Errorf("PeerFailures(%s) = %d, want %d", addr, got, before+1)
	}
}

// TestUnframeableReplyIsNotRetried: when the handler's reply cannot be put
// on the wire, the server must say so rather than close the connection. A
// close on a reused connection looks like a stale one to the client, which
// would send the request again and run the handler twice.
func TestUnframeableReplyIsNotRetried(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply func() *kqml.Message
	}{
		{"oversized", func() *kqml.Message {
			return kqml.New(kqml.Tell, "big", &kqml.SorryContent{Reason: strings.Repeat("x", MaxFrame)})
		}},
		{"unencodable", func() *kqml.Message {
			return &kqml.Message{Performative: kqml.Tell, Sender: "big", Content: []byte(`{"truncated":`)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var handled atomic.Int32
			tr := &TCP{}
			l, err := tr.Listen("tcp://127.0.0.1:0", func(msg *kqml.Message) *kqml.Message {
				if msg.Performative == kqml.Ping {
					return echoHandler("big")(msg)
				}
				handled.Add(1)
				return tc.reply()
			})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			ping := kqml.New(kqml.Ping, "caller", &kqml.PingContent{})
			if _, err := tr.Call(context.Background(), l.Addr(), ping); err != nil {
				t.Fatal(err)
			}
			before := SnapshotPoolStats()
			ask := kqml.New(kqml.AskAll, "caller", &kqml.SQLQuery{SQL: "select everything"})
			ask.ReplyWith = "q-1"
			reply, err := tr.Call(context.Background(), l.Addr(), ask)
			if err != nil {
				t.Fatalf("Call: %v", err)
			}
			after := SnapshotPoolStats()
			if after.Dials != before.Dials || after.Broken != before.Broken {
				t.Errorf("call did not stay on the parked connection: %+v -> %+v", before, after)
			}
			if n := handled.Load(); n != 1 {
				t.Errorf("handler ran %d times, want 1", n)
			}
			if !kqml.IsSorry(reply, kqml.SorryReasonUnframeableReply) || reply.Performative != kqml.Error {
				t.Errorf("reply = %s %q, want an error with reason %q", reply.Performative, kqml.ReasonOf(reply), kqml.SorryReasonUnframeableReply)
			}
			if reply.InReplyTo != "q-1" {
				t.Errorf("in-reply-to = %q, want q-1", reply.InReplyTo)
			}
			// The connection survived and still serves.
			if _, err := tr.Call(context.Background(), l.Addr(), ping); err != nil {
				t.Errorf("call after the refusal: %v", err)
			}
		})
	}
}

// writeCounter counts the Write calls a connection sees.
type writeCounter struct {
	net.Conn
	writes atomic.Int32
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestOneWritePerFrame: a frame leaves in a single Write, header and
// payload together, on both the client and the server side.
func TestOneWritePerFrame(t *testing.T) {
	client, server := net.Pipe()
	cw, sw := &writeCounter{Conn: client}, &writeCounter{Conn: server}
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveConn(sw, echoHandler("echo"), 0)
	}()
	tr := &TCP{MaxIdleConnsPerHost: -1}
	frame, err := encodeFrame(kqml.New(kqml.AskAll, "caller", &kqml.SQLQuery{SQL: "select 1"}))
	if err != nil {
		t.Fatal(err)
	}
	defer releaseFrame(frame)
	reply, sent, received, err := tr.exchange(context.Background(), cw, "pipe", "pipe", *frame)
	if err != nil || reply.Performative != kqml.Tell {
		t.Fatalf("exchange = %v, %v", reply, err)
	}
	if sent != len(*frame)-frameHeader || received == 0 {
		t.Errorf("sent, received = %d, %d; frame payload is %d bytes", sent, received, len(*frame)-frameHeader)
	}
	<-done // exchange closed the unpooled connection, which ends serveConn
	if c, s := cw.writes.Load(), sw.writes.Load(); c != 1 || s != 1 {
		t.Errorf("writes: client %d, server %d; want 1 and 1", c, s)
	}
}

func TestHandlerPanicBecomesErrorReply(t *testing.T) {
	tr := NewInProc()
	_, err := tr.Listen("inproc://panicky", func(msg *kqml.Message) *kqml.Message {
		panic("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := tr.Call(context.Background(), "inproc://panicky",
		kqml.New(kqml.AskAll, "x", &kqml.SQLQuery{SQL: "s"}))
	if err != nil {
		t.Fatalf("panic should become a reply, not a call error: %v", err)
	}
	if reply.Performative != kqml.Error {
		t.Errorf("reply = %s, want error", reply.Performative)
	}
}

func TestTCPHandlerPanicKeepsServerAlive(t *testing.T) {
	tr := &TCP{}
	calls := 0
	l, err := tr.Listen("tcp://127.0.0.1:0", func(msg *kqml.Message) *kqml.Message {
		calls++
		if calls == 1 {
			panic("first call explodes")
		}
		return kqml.New(kqml.Tell, "s", &kqml.PingReply{Known: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reply, err := tr.Call(context.Background(), l.Addr(), kqml.New(kqml.Ping, "x", &kqml.PingContent{}))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Error {
		t.Errorf("first reply = %s, want error", reply.Performative)
	}
	// The listener survived; the next call succeeds.
	reply, err = tr.Call(context.Background(), l.Addr(), kqml.New(kqml.Ping, "x", &kqml.PingContent{}))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Tell {
		t.Errorf("second reply = %s, want tell", reply.Performative)
	}
}
