// Package des is a discrete-event simulation kernel: a simulated clock and
// a priority queue of scheduled callbacks. The agent simulator of
// internal/sim (Section 5.2 of the paper) is built on it.
//
// Events scheduled for the same instant fire in scheduling order, so
// simulations are deterministic given deterministic inputs.
package des

import (
	"container/heap"
	"fmt"
)

// Time is simulated time in seconds since the simulation epoch.
type Time = float64

// Event is a scheduled callback; it can be cancelled before it fires.
type Event struct {
	time      Time
	seq       uint64
	fn        func()
	index     int // heap index, -1 when not queued
	cancelled bool
}

// Time returns the instant the event fires.
func (e *Event) Time() Time { return e.time }

// Simulator owns the clock and the event queue. The zero value is not
// usable; create one with New.
type Simulator struct {
	now   Time
	queue eventQueue
	seq   uint64
	// fired counts executed events (diagnostics and runaway guards).
	fired uint64
}

// New returns a simulator at time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule queues fn to run after delay. A negative delay panics — it
// would mean travelling into the past.
func (s *Simulator) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	return s.At(s.now+delay, fn)
}

// At queues fn to run at the absolute time t, which must not precede the
// current time.
func (s *Simulator) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("des: nil event callback")
	}
	s.seq++
	e := &Event{time: t, seq: s.seq, fn: fn, index: -1}
	heap.Push(&s.queue, e)
	return e
}

// Cancel prevents a queued event from firing; cancelling a fired or
// already-cancelled event is a no-op.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.cancelled || e.index < 0 {
		if e != nil {
			e.cancelled = true
		}
		return
	}
	e.cancelled = true
	heap.Remove(&s.queue, e.index)
}

// Step executes the next event; it reports false when the queue is empty.
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		e := heap.Pop(&s.queue).(*Event)
		if e.cancelled {
			continue
		}
		s.now = e.time
		s.fired++
		e.fn()
		return true
	}
	return false
}

// Run executes events until the clock would pass `until` or the queue
// drains; the clock finishes at exactly `until` if it was reached.
func (s *Simulator) Run(until Time) {
	for len(s.queue) > 0 {
		// The head of the heap is the next event to fire.
		e := s.queue[0]
		if e.time > until {
			break
		}
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
}

// eventQueue is a min-heap ordered by (time, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}
