package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"infosleuth/internal/broker"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resource"
	"infosleuth/internal/transport"
)

// subscribe_stream's geometry, after subbench: standing queries each
// select a window of the value domain, placed by seed, and 80% of the
// inserted values land in the hot 10% of the domain. The windows are a
// quarter of subbench's 1% of the domain, so that a change re-evaluates
// about 10 standing queries instead of 40 and a run's phases fit enough
// changes for steady percentiles; the publish step still tests all 4,000.
const (
	subCount     = 4000
	subDomain    = 100_000
	subWidth     = subDomain / 400
	subBaseRows  = 128
	subHotFrac   = 0.10
	subHotTenths = 8 // tenths of the inserts that land in the hot slice

	subWarmupChanges = 100
	// subDrainTimeout bounds every wait for notifications; a change still
	// unconfirmed after it is a failed op.
	subDrainTimeout = 60 * time.Second
)

// change is one inserted row and the bookkeeping that decides when the
// op is complete: when every subscriber whose window covers the value has
// received an update whose result contains the new id. That holds under
// coalescing: a coalesced update carries the newest answer, which
// contains every id inserted before it was evaluated.
type change struct {
	id        string
	due       time.Time
	remaining atomic.Int32
	doneAt    atomic.Int64 // ns since the workload's clock base; 0 = not yet
	done      chan struct{}
}

// wait blocks until the change is confirmed or the drain timeout passes,
// and reports which.
func (ch *change) wait() bool {
	t := time.NewTimer(subDrainTimeout)
	defer t.Stop()
	select {
	case <-ch.done:
		return true
	case <-t.C:
		return false
	}
}

// valueStream draws the skewed insert values: the hot and the cold
// region are dealt from a deck in exact shares, the value within the
// region is uniform.
type valueStream struct {
	r      *rand.Rand
	region *deck // 0: anywhere in the domain, 1: in the hot slice
}

func (s *valueStream) next() op {
	if s.region.next() == 1 {
		return op{Kind: 1, Arg: int32(s.r.Float64() * subDomain * subHotFrac)}
	}
	return op{Arg: int32(s.r.Float64() * subDomain)}
}

type subsWorkload struct {
	seed int64
	// los are the standing queries' window starts, sorted; sub i selects
	// a BETWEEN los[i] AND los[i]+subWidth.
	los []int

	ra        *resource.Agent
	subIndex  map[string]int // subscription ID -> index into los
	streams   []*valueStream
	nextID    atomic.Int64
	clockBase time.Time

	mu      sync.Mutex
	pending map[int][]*change // sub index -> changes awaiting an update

	handles layerHandles
}

func newSubsWorkload(seed int64) *subsWorkload {
	w := &subsWorkload{seed: seed}
	// Placed by seed on a jittered grid: one window start per cell. Every
	// value is then covered by about subCount*subWidth/subDomain = 10
	// windows on every seed, so the work one change causes does not depend
	// on where the seed happened to bunch the windows.
	r := rand.New(rand.NewSource(streamSeed(seed, wlSubscribeStream+"/place", 0)))
	cell := float64(subDomain-subWidth) / subCount
	for i := 0; i < subCount; i++ {
		w.los = append(w.los, int((float64(i)+r.Float64())*cell))
	}
	return w
}

func (w *subsWorkload) name() string { return wlSubscribeStream }

func (w *subsWorkload) stream(purpose string, client int) *valueStream {
	r := rand.New(rand.NewSource(streamSeed(w.seed, w.name()+"/"+purpose, client)))
	return &valueStream{r: r, region: newDeck(r, 10-subHotTenths, subHotTenths)}
}

func subSQL(lo int) string {
	return fmt.Sprintf("SELECT id FROM C2 WHERE a BETWEEN %d AND %d", lo, lo+subWidth)
}

// covering returns the indexes of the standing queries whose window
// holds v: ground truth from the placement, not from the program.
func (w *subsWorkload) covering(v int) (from, to int) {
	from = sort.SearchInts(w.los, v-subWidth)
	to = sort.SearchInts(w.los, v+1)
	return from, to
}

func (w *subsWorkload) setup(e *env) error {
	ctx := context.Background()
	w.handles = layerHandles{resources: make(map[string]*resource.Agent)}
	w.subIndex = make(map[string]int, subCount)
	w.pending = make(map[int][]*change)
	w.clockBase = time.Now()
	w.nextID.Store(0)

	b, err := broker.New(broker.Config{
		Name: "broker-1", Address: loopback, Transport: e.transport("broker-1", layerBroker), World: e.world,
	})
	if err != nil {
		return err
	}
	if err := e.start("broker-1", b); err != nil {
		return err
	}
	w.handles.brokers = []*broker.Broker{b}

	db := relational.NewDatabase()
	tbl, err := db.Create(relational.Schema{
		Name: "C2",
		Columns: []relational.Column{
			{Name: "id", Type: relational.TypeString},
			{Name: "a", Type: relational.TypeNumber},
		},
		Key: "id",
	})
	if err != nil {
		return err
	}
	for i := 0; i < subBaseRows; i++ {
		if err := tbl.Insert(relational.Row{
			relational.Str(fmt.Sprintf("base-%04d", i)), relational.Num(float64(i * subDomain / subBaseRows)),
		}); err != nil {
			return err
		}
	}
	const raName = "ra-c2"
	ra, err := resource.New(resource.Config{
		Name: raName, Address: loopback, Transport: e.transport(raName, layerResource),
		KnownBrokers: []string{b.Addr()},
		DB:           db,
		Fragment:     ontology.Fragment{Ontology: "generic", Classes: []string{"C2"}},
	})
	if err != nil {
		return err
	}
	if err := e.start(raName, ra); err != nil {
		return err
	}
	if _, err := ra.Advertise(ctx); err != nil {
		return fmt.Errorf("advertising %s: %w", raName, err)
	}
	w.ra = ra
	w.handles.resources[raName] = ra

	// One bare listener endpoint per client acks every update.
	var listeners []string
	for c := 0; c < e.clients; c++ {
		name := fmt.Sprintf("subscriber-%d", c+1)
		l, err := e.transport(name, layerListener).Listen(loopback, w.onUpdate)
		if err != nil {
			return err
		}
		e.onStop(func() { _ = l.Close() }) // teardown: nothing to do about a failed unbind
		listeners = append(listeners, l.Addr())
	}

	// Register the standing queries through the subscribe wire form.
	var heapBefore uint64
	if e.tracer != nil {
		heapBefore = liveHeap()
	}
	caller := e.transport("subscriber", layerListener)
	started := time.Now()
	for i, lo := range w.los {
		id, err := subscribe(ctx, caller, ra.Addr(), subSQL(lo), listeners[i%len(listeners)])
		if err != nil {
			return fmt.Errorf("registering standing query %d: %w", i, err)
		}
		w.subIndex[id] = i
	}
	w.handles.subscribeUs = float64(time.Since(started).Microseconds()) / subCount
	if e.tracer != nil {
		if after := liveHeap(); after > heapBefore {
			w.handles.heapPerSub = float64(after-heapBefore) / subCount
		}
	}
	for _, lo := range w.los {
		w.handles.subWindows = append(w.handles.subWindows, [2]int{lo, lo + subWidth})
	}

	warm := w.stream("warmup", 0)
	var warmed []*change
	for i := 0; i < subWarmupChanges; i++ {
		ch, err := w.insert(int(warm.next().Arg), time.Now())
		if err != nil {
			return err
		}
		warmed = append(warmed, ch)
	}
	if failed := w.drain(warmed); failed > 0 {
		return fmt.Errorf("%s: %d of %d warm-up changes were not confirmed", w.name(), failed, len(warmed))
	}
	w.streams = nil
	for c := 0; c < e.clients; c++ {
		w.streams = append(w.streams, w.stream("load", c))
	}
	return nil
}

func subscribe(ctx context.Context, tr transport.Transport, addr, sql, listener string) (string, error) {
	msg := kqml.New(kqml.Subscribe, "subscriber", &kqml.SubscribeContent{
		SQL: sql, SubscriberName: "subscriber", SubscriberAddress: listener,
	})
	reply, err := tr.Call(ctx, addr, msg)
	if err != nil {
		return "", err
	}
	if reply.Performative != kqml.Tell {
		return "", fmt.Errorf("subscribe = %s: %s", reply.Performative, kqml.ReasonOf(reply))
	}
	var ack kqml.SubscribeAck
	if err := reply.DecodeContent(&ack); err != nil {
		return "", err
	}
	return ack.ID, nil
}

// onUpdate is the subscribers' handler: it ticks off every pending
// change the update's result confirms, and acks.
func (w *subsWorkload) onUpdate(msg *kqml.Message) *kqml.Message {
	var uc kqml.UpdateContent
	if msg.Performative == kqml.Update && msg.DecodeContent(&uc) == nil {
		w.mu.Lock()
		if idx, ok := w.subIndex[uc.SubscriptionID]; ok {
			waiting := w.pending[idx]
			kept := waiting[:0]
			for _, ch := range waiting {
				if resultHasID(uc.Result.Rows, ch.id) {
					if ch.remaining.Add(-1) == 0 {
						ch.doneAt.Store(int64(time.Since(w.clockBase)))
						close(ch.done)
					}
				} else {
					kept = append(kept, ch)
				}
			}
			if len(kept) == 0 {
				delete(w.pending, idx)
			} else {
				w.pending[idx] = kept
			}
		}
		w.mu.Unlock()
	}
	return kqml.New(kqml.Tell, "subscriber", &kqml.UpdateAck{SubscriptionID: uc.SubscriptionID, Seq: uc.Seq})
}

func resultHasID(rows []relational.Row, id string) bool {
	for _, row := range rows {
		if len(row) > 0 && row[0].Text() == id {
			return true
		}
	}
	return false
}

// insert registers what must happen for the change to count as done, then
// inserts the row. due is when the op was scheduled to start.
func (w *subsWorkload) insert(v int, due time.Time) (*change, error) {
	ch := &change{
		id:   fmt.Sprintf("n%07d", w.nextID.Add(1)),
		due:  due,
		done: make(chan struct{}),
	}
	from, to := w.covering(v)
	ch.remaining.Store(int32(to - from))
	w.mu.Lock()
	for i := from; i < to; i++ {
		w.pending[i] = append(w.pending[i], ch)
	}
	w.mu.Unlock()
	row := relational.Row{relational.Str(ch.id), relational.Num(float64(v))}
	if err := w.ra.InsertRow(context.Background(), "C2", row); err != nil {
		ch.remaining.Store(-1) // never confirmed: doneAt stays 0
		close(ch.done)
		return ch, err
	}
	if to == from {
		ch.doneAt.Store(int64(time.Since(w.clockBase)))
		close(ch.done)
	}
	return ch, nil
}

// drain waits for the notification pipeline to empty and returns how
// many of the changes were never fully confirmed.
func (w *subsWorkload) drain(changes []*change) (failed int) {
	ctx, cancel := context.WithTimeout(context.Background(), subDrainTimeout)
	defer cancel()
	// A flush error means the timeout fired; the unconfirmed changes are
	// counted as failed below either way.
	_ = w.ra.FlushNotifications(ctx)
	for _, ch := range changes {
		if ch.doneAt.Load() == 0 {
			failed++
		}
	}
	return failed
}

// run inserts count changes from the clients' streams. With a positive
// rate each client follows its own schedule and never waits for a change
// to be confirmed (the open loop); with rate 0 each client waits for its
// change to be confirmed before inserting the next (the closed loop: an
// agent that asked to be told waits to be told). Both phases are
// count-based: the table grows with every insert,
// so a phase that ran for a fixed time would end at a different table
// size on a faster commit.
func (w *subsWorkload) run(count int, rate float64) phaseResult {
	n := len(w.streams)
	per := count / n
	all := make([][]*change, n)
	lags := make([][]float64, n)
	var res phaseResult
	var begin time.Time
	res.Seconds, res.Usage = measure(func(start time.Time) {
		begin = start
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var gap time.Duration
				if rate > 0 {
					gap = time.Duration(float64(time.Second) / rate)
				}
				for j := 0; j < per; j++ {
					due := time.Now()
					if rate > 0 {
						due = start.Add(time.Duration(j*n+c) * gap)
						if wait := time.Until(due); wait > 0 {
							time.Sleep(wait)
						}
						lags[c] = append(lags[c], ms(time.Since(due)))
					}
					// A failed insert leaves the change unconfirmed, which
					// the drain below counts as a failed op.
					ch, _ := w.insert(int(w.streams[c].next().Arg), due)
					all[c] = append(all[c], ch)
					if rate == 0 {
						ch.wait()
					}
				}
			}(c)
		}
		wg.Wait()
		var changes []*change
		for _, cs := range all {
			changes = append(changes, cs...)
		}
		w.drain(changes)
	})
	for c := range all {
		for _, ch := range all[c] {
			rec := opRecord{At: ch.due.Sub(begin)}
			if at := ch.doneAt.Load(); at != 0 {
				rec.OK, rec.LatMs = true, ms(w.clockBase.Add(time.Duration(at)).Sub(ch.due))
			}
			res.Ops = append(res.Ops, rec)
		}
		res.LagMs = append(res.LagMs, lags[c]...)
	}
	return res
}

func (w *subsWorkload) paced(dur time.Duration) phaseResult {
	rate := pacedRate[w.name()]
	return w.run(int(rate*dur.Seconds()), rate)
}

func (w *subsWorkload) saturate(dur time.Duration) phaseResult {
	return w.run(int(subSaturateRate*dur.Seconds()), 0)
}

// traced runs one client closed-loop: insert, wait for the change to be
// confirmed, repeat. The root span belongs to the resource layer: the
// harness calls resource.InsertRow directly, and the wait that follows
// is the resource's notification pipeline at work.
func (w *subsWorkload) traced(tr *tracer, dur time.Duration) tracedResult {
	s := w.stream("trace", 0)
	root := w.ra.Name()
	return traceClosedLoop(tr, root, layerResource, dur, func() bool {
		v := int(s.next().Arg)
		var call *span
		if tr.enabled.Load() {
			// The insert span sits on a pseudo-agent so update calls the
			// resource's senders start meanwhile parent under the root.
			call = tr.begin(kindCall, root+"#insert", layerResource, tr.rootID.Load())
			w.handles.changeValues = append(w.handles.changeValues, v)
		}
		ch, err := w.insert(v, time.Now())
		if call != nil {
			tr.end(call)
		}
		if err != nil {
			return false
		}
		return ch.wait()
	})
}

func (w *subsWorkload) layers() *layerHandles { return &w.handles }

func (w *subsWorkload) mechanism(d counters, ops int) []string {
	var bad []string
	evals := d.get("infosleuth_monitor_eval_total", "")
	skipped := d.get("infosleuth_monitor_eval_skipped_total", "")
	if evals+skipped == 0 || skipped/(evals+skipped) < 0.9 {
		bad = append(bad, fmt.Sprintf("index skipped %.0f of %.0f re-evaluations, want at least 90%%", skipped, evals+skipped))
	}
	if dropped := d.get("infosleuth_broadcast_dropped_total", ""); dropped != 0 {
		bad = append(bad, fmt.Sprintf("broadcast.dropped = %.0f, want 0", dropped))
	}
	return bad
}
