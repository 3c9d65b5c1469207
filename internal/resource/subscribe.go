package resource

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"infosleuth/internal/broadcast"
	"infosleuth/internal/constraint"
	"infosleuth/internal/kqml"
	"infosleuth/internal/relational"
	"infosleuth/internal/sqlparse"
	"infosleuth/internal/telemetry"
)

// mSubscriptionEvals counts standing-query re-evaluations after data
// changes, whether or not the answer changed — the cost side of the
// subscribe conversation, next to the monitor agent's notification
// counters.
var mSubscriptionEvals = telemetry.Default.Counter("infosleuth_monitor_eval_total",
	"Standing-query re-evaluations performed by resource agents after data changes.")

// mEvalSkipped counts the re-evaluations the CDC index avoided: indexed
// subscriptions whose constraint region did not overlap a change's region.
// Together with eval_total it measures the index's selectivity: without
// the index, eval + skipped evaluations would have run.
var mEvalSkipped = telemetry.Default.Counter("infosleuth_monitor_eval_skipped_total",
	"Standing-query re-evaluations skipped because the change region did not overlap the subscription's constraint region.")

// mNotifyErrors counts update notifications that failed to reach their
// subscriber (the send, not the evaluation).
var mNotifyErrors = telemetry.Default.Counter("infosleuth_monitor_notify_errors_total",
	"Update notifications resource agents failed to deliver to subscribers.")

// notifyLogSize bounds the /subs recent-notification ring.
const notifyLogSize = 256

// subscription is one standing query registered by a subscriber.
type subscription struct {
	id   string
	sql  string
	lang string // sql's content language, which every re-evaluation parses
	name string
	addr string
	// classes lists the lowercased served classes the query reads; empty
	// means the query could not be indexed (see indexStandingQuery) and
	// the subscription sits in the evaluate-all tier.
	classes []string
	// region is the query's pushable constraint region, nil when
	// unconstrained.
	region *constraint.Set
	// sub is the broadcast registration feeding this subscription's
	// sender goroutine.
	sub *broadcast.Sub

	mu       sync.Mutex
	lastHash resultDigest
	evals    uint64
	updates  uint64
	errors   uint64
	lastSeq  uint64
}

// subscriptions tracks a resource agent's standing queries and the
// broadcast hub fanning change events out to them; lazily initialized on
// the first subscribe.
type subscriptions struct {
	hub *broadcast.Hub
	log *notifyLog

	mu   sync.Mutex
	next int
	byID map[string]*subscription
}

func (a *Agent) subs() *subscriptions {
	a.subMu.Lock()
	defer a.subMu.Unlock()
	if a.subState == nil {
		a.subState = &subscriptions{
			byID: make(map[string]*subscription),
			hub:  broadcast.New(broadcast.Options{}),
			log:  newNotifyLog(notifyLogSize),
		}
	}
	return a.subState
}

// handleSubscribe registers a standing query (the subscribe conversation
// the agent advertises) and returns the current answer as the baseline.
// The query is parsed in the message's content language (the primary one
// when it names none) and indexed at registration: the classes it reads
// and its pushable constraint region decide which change events reach it.
func (a *Agent) handleSubscribe(msg *kqml.Message) *kqml.Message {
	var sc kqml.SubscribeContent
	if err := msg.DecodeContent(&sc); err != nil || sc.SQL == "" || sc.SubscriberAddress == "" {
		return a.Reply(msg, kqml.Error, &kqml.SorryContent{Reason: kqml.SorryReasonMalformedSubscription})
	}
	lang := a.language(msg)
	stmt, err := a.compile(lang, sc.SQL)
	if err != nil {
		return a.Reply(msg, kqml.Error, &kqml.SorryContent{Reason: err.Error()})
	}
	// Index before execute retargets a superclass onto its subclass.
	classes, region := a.indexStandingQuery(stmt)
	res, err := a.execute(stmt)
	if err != nil {
		return a.Reply(msg, kqml.Error, &kqml.SorryContent{Reason: err.Error()})
	}
	sub := &subscription{
		sql:      sc.SQL,
		lang:     lang,
		name:     sc.SubscriberName,
		addr:     sc.SubscriberAddress,
		classes:  classes,
		region:   region,
		lastHash: resultHash(res),
	}
	// The hub registration is in place before the id is published, so an
	// unsubscribe racing this one always finds it to close.
	s := a.subs()
	s.mu.Lock()
	s.next++
	sub.id = fmt.Sprintf("%s-sub-%d", a.Name(), s.next)
	sub.sub = s.hub.Subscribe(sub.id, classes, region, func(b broadcast.Batch) {
		a.deliverBatch(sub, b)
	})
	s.byID[sub.id] = sub
	s.mu.Unlock()
	return a.Reply(msg, kqml.Tell, &kqml.SubscribeAck{
		ID:      sub.id,
		Initial: kqml.SQLResult{Columns: res.Columns, Rows: res.Rows},
	})
}

// indexStandingQuery derives a subscription's index entry from its
// compiled query: the lowercased served classes whose changes can affect
// it and its pushable constraint region (sqlparse.WhereConstraints). A
// (nil, nil) return routes the subscription to the evaluate-all tier.
//
// Soundness: skipping a re-evaluation is only safe when the changed rows
// provably cannot alter the query's answer. A changed row failing any
// literal WHERE conjunct never participates in the result (including
// aggregates), and WhereConstraints under-approximates the WHERE clause
// (conjuncts it cannot express are dropped), so the region is a superset
// of the satisfiable rows — overlap errs toward re-evaluating. UNION
// queries cannot be indexed and fall back: WhereConstraints conjoins the
// branches, which would over-narrow the region.
func (a *Agent) indexStandingQuery(stmt *sqlparse.Select) ([]string, *constraint.Set) {
	if stmt.Union != nil {
		return nil, nil
	}
	var classes []string
	for _, table := range stmt.Tables() {
		if a.servesClass(table) {
			classes = append(classes, strings.ToLower(table))
			continue
		}
		// A superclass query is answered from a served subclass table, so
		// its changes are published under the subclass name — index there.
		// (The region keys keep the superclass prefix and simply never
		// match the change region's subclass-prefixed fields, which the
		// overlap test treats as unconstrained: sound, never skips.)
		sub, ok := a.servedSubclassOf(table)
		if !ok {
			return nil, nil
		}
		classes = append(classes, strings.ToLower(sub))
	}
	if len(classes) == 0 {
		return nil, nil
	}
	return classes, stmt.WhereConstraints()
}

// Change describes one mutation to a served class, for NotifyChange.
type Change struct {
	// Class is the mutated table.
	Class string
	// Rows holds the changed rows (inserted, deleted, or post-update
	// values). Empty means the extent of the change within the class is
	// unknown and every subscription on the class re-evaluates.
	Rows []relational.Row
}

// NotifyChange publishes a typed change event into the subscription
// pipeline: subscriptions indexed on the class whose constraint region
// overlaps the changed rows are re-evaluated asynchronously on their own
// sender goroutines; everything else is skipped. It returns how many
// subscriptions were enqueued and how many the index skipped. The
// mutation path never blocks on a subscriber — use FlushNotifications to
// wait for deliveries when sequencing matters (tests, shutdown).
func (a *Agent) NotifyChange(ctx context.Context, ch Change) (matched, skipped int) {
	s := a.subs()
	ev := broadcast.Event{
		Class:   strings.ToLower(ch.Class),
		Region:  a.changeRegion(ch),
		Rows:    len(ch.Rows),
		TraceID: telemetry.TraceIDFrom(ctx),
	}
	if ev.Rows == 0 {
		ev.Rows = 1
	}
	matched, skipped = s.hub.Publish(ev)
	mEvalSkipped.Add(int64(skipped))
	return matched, skipped
}

// changeRegion summarizes changed rows as a constraint region keyed like
// sqlparse.WhereConstraints ("class.column", lowercased): per column, the
// min..max interval of numeric values or the set of string values. A nil
// return means the whole class. Columns with many distinct strings are
// left unconstrained rather than carrying large value lists.
func (a *Agent) changeRegion(ch Change) *constraint.Set {
	if len(ch.Rows) == 0 {
		return nil
	}
	tbl, ok := a.cfg.DB.Table(ch.Class)
	if !ok {
		return nil
	}
	const maxAllowed = 16
	schema := tbl.Schema()
	prefix := strings.ToLower(ch.Class) + "."
	var atoms []constraint.Atom
	for i, col := range schema.Columns {
		var (
			lo, hi   float64
			nums     int
			strs     []constraint.Value
			overflow bool
		)
		for _, row := range ch.Rows {
			if i >= len(row) {
				overflow = true
				break
			}
			v := row[i]
			switch v.Kind() {
			case constraint.KindNumber:
				n := v.Number()
				if nums == 0 || n < lo {
					lo = n
				}
				if nums == 0 || n > hi {
					hi = n
				}
				nums++
			case constraint.KindString:
				dup := false
				for _, s := range strs {
					if s.Equal(v) {
						dup = true
						break
					}
				}
				if !dup {
					if len(strs) >= maxAllowed {
						overflow = true
						break
					}
					strs = append(strs, v)
				}
			default:
				overflow = true
			}
			if overflow {
				break
			}
		}
		field := prefix + strings.ToLower(col.Name)
		switch {
		case overflow || (nums > 0 && len(strs) > 0):
			// Mixed or unsummarizable column: leave it unconstrained
			// (absent fields never rule an overlap out).
		case nums > 0:
			atoms = append(atoms, constraint.Atom{Field: field, Interval: constraint.NewRange(lo, hi)})
		case len(strs) > 0:
			atoms = append(atoms, constraint.Atom{Field: field, Allowed: strs})
		}
	}
	if len(atoms) == 0 {
		return nil
	}
	return constraint.NewSet(atoms...)
}

// FlushNotifications blocks until every pending subscription delivery has
// drained (or ctx expires). Tests and shutdown sequencing use it; the
// mutation path never waits.
func (a *Agent) FlushNotifications(ctx context.Context) error {
	return a.subs().hub.Flush(ctx)
}

// deliverBatch runs on a subscription's sender goroutine: re-evaluate the
// standing query once for the batch (however many change events it
// coalesced) and push an update if the answer changed.
func (a *Agent) deliverBatch(sub *subscription, b broadcast.Batch) {
	last := b.Last()
	start := time.Now()
	res, err := a.RunIn(sub.lang, sub.sql)
	mSubscriptionEvals.Inc()
	sub.mu.Lock()
	sub.evals++
	sub.lastSeq = last.Seq
	sub.mu.Unlock()

	changed := false
	var callErr error
	if err == nil {
		h := resultHash(res)
		sub.mu.Lock()
		changed = h != sub.lastHash
		if changed {
			sub.lastHash = h
		}
		sub.mu.Unlock()
		if changed {
			msg := kqml.New(kqml.Update, a.Name(), &kqml.UpdateContent{
				SubscriptionID: sub.id,
				SQL:            sub.sql,
				Result:         kqml.SQLResult{Columns: res.Columns, Rows: res.Rows},
				Seq:            last.Seq,
				Coalesced:      b.Coalesced,
			})
			msg.Receiver = sub.name
			ctx := telemetry.WithTraceID(context.Background(), last.TraceID)
			_, callErr = a.Call(ctx, sub.addr, msg)
			sub.mu.Lock()
			if callErr != nil {
				sub.errors++
				mNotifyErrors.Inc()
			} else {
				sub.updates++
			}
			sub.mu.Unlock()
		}
	}
	if last.TraceID != "" {
		span := kqml.TraceSpan{
			Agent:          a.Name(),
			Op:             telemetry.OpSubscribeEval,
			Start:          start.UnixNano(),
			DurationMicros: time.Since(start).Microseconds(),
		}
		if err != nil {
			span.Err = err.Error()
		} else if callErr != nil {
			span.Err = fmt.Sprintf("notify %s: %v", sub.addr, callErr)
		}
		telemetry.RecordSpan(last.TraceID, span)
	}
	entry := notifyEntry{
		Time:           time.Now().UTC().Format(time.RFC3339Nano),
		SubscriptionID: sub.id,
		Seq:            last.Seq,
		Coalesced:      b.Coalesced,
		Changed:        changed,
	}
	if res != nil {
		entry.Rows = len(res.Rows)
	}
	if err != nil {
		entry.Err = err.Error()
	} else if callErr != nil {
		entry.Err = fmt.Sprintf("notify %s: %v", sub.addr, callErr)
	}
	a.subs().log.add(entry)
}

// unsubscribe removes a standing query by id; it reports whether the id
// existed. An in-flight delivery completes; pending queued events are
// discarded.
func (a *Agent) unsubscribe(id string) bool {
	s := a.subs()
	s.mu.Lock()
	sub, ok := s.byID[id]
	if ok {
		delete(s.byID, id)
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	sub.sub.Close()
	return true
}

// Subscriptions returns the active subscription ids, for inspection.
func (a *Agent) Subscriptions() []string {
	s := a.subs()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.byID))
	for id := range s.byID {
		out = append(out, id)
	}
	return out
}

// resultDigest fingerprints a result for change detection: its shape and
// a commutative combination of per-row hashes, so row order is normalized
// out. The zero value stands for no result.
type resultDigest struct {
	rows, cols int
	sum        uint64
}

// resultHash digests a result: the sum of its rows' relational.Row.Hash,
// so row order is normalized out; it allocates nothing.
func resultHash(res *sqlparse.Result) resultDigest {
	if res == nil {
		return resultDigest{}
	}
	var acc uint64
	for _, row := range res.Rows {
		acc += row.Hash()
	}
	return resultDigest{rows: len(res.Rows), cols: len(res.Columns), sum: acc}
}

// notifyEntry is one record in the hot ring of recent notification
// deliveries, served by the /subs handler.
type notifyEntry struct {
	Time           string `json:"time"`
	SubscriptionID string `json:"subscription_id"`
	Seq            uint64 `json:"seq,omitempty"`
	Coalesced      int    `json:"coalesced,omitempty"`
	// Rows is the standing query's result size at this evaluation.
	Rows    int    `json:"rows"`
	Changed bool   `json:"changed"`
	Err     string `json:"err,omitempty"`
}

// notifyLog is a fixed-size ring of recent deliveries: the hot window is
// queryable at /subs while history ages out.
type notifyLog struct {
	mu      sync.Mutex
	entries []notifyEntry
	next    int
	filled  bool
}

func newNotifyLog(size int) *notifyLog {
	return &notifyLog{entries: make([]notifyEntry, size)}
}

func (l *notifyLog) add(e notifyEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries[l.next] = e
	l.next++
	if l.next == len(l.entries) {
		l.next = 0
		l.filled = true
	}
}

// snapshot returns the retained entries, newest first.
func (l *notifyLog) snapshot() []notifyEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.filled {
		n = len(l.entries)
	}
	out := make([]notifyEntry, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, l.entries[(l.next-i+len(l.entries))%len(l.entries)])
	}
	return out
}

// subInfo is one subscription's row in the /subs report.
type subInfo struct {
	ID         string   `json:"id"`
	SQL        string   `json:"sql"`
	Subscriber string   `json:"subscriber"`
	Address    string   `json:"address"`
	Indexed    bool     `json:"indexed"`
	Classes    []string `json:"classes,omitempty"`
	Queued     int      `json:"queued"`
	Coalesced  uint64   `json:"coalesced,omitempty"`
	Dropped    uint64   `json:"dropped,omitempty"`
	Evals      uint64   `json:"evals"`
	Updates    uint64   `json:"updates"`
	Errors     uint64   `json:"errors,omitempty"`
	LastSeq    uint64   `json:"last_seq,omitempty"`
}

// subsReport is the /subs response body.
type subsReport struct {
	Agent         string          `json:"agent"`
	Hub           broadcast.Stats `json:"hub"`
	Subscriptions []subInfo       `json:"subscriptions"`
	// Recent lists the latest notification deliveries, newest first.
	Recent []notifyEntry `json:"recent"`
}

// SubsHandler serves the subscription pipeline's state as JSON: per-
// subscription index entries, queue depths and delivery counts, hub
// totals, and the ring of recent notifications. Daemons mount it at
// /subs next to /metrics.
func (a *Agent) SubsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := a.subs()
		s.mu.Lock()
		subs := make([]*subscription, 0, len(s.byID))
		for _, sub := range s.byID {
			subs = append(subs, sub)
		}
		s.mu.Unlock()
		report := subsReport{
			Agent:         a.Name(),
			Hub:           s.hub.Stats(),
			Subscriptions: make([]subInfo, 0, len(subs)),
			Recent:        s.log.snapshot(),
		}
		for _, sub := range subs {
			info := subInfo{
				ID:         sub.id,
				SQL:        sub.sql,
				Subscriber: sub.name,
				Address:    sub.addr,
				Indexed:    len(sub.classes) > 0,
				Classes:    sub.classes,
			}
			info.Queued, info.Coalesced, info.Dropped = sub.sub.QueueStats()
			sub.mu.Lock()
			info.Evals, info.Updates, info.Errors, info.LastSeq = sub.evals, sub.updates, sub.errors, sub.lastSeq
			sub.mu.Unlock()
			report.Subscriptions = append(report.Subscriptions, info)
		}
		sort.Slice(report.Subscriptions, func(i, j int) bool {
			return report.Subscriptions[i].ID < report.Subscriptions[j].ID
		})
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(report)
	})
}
