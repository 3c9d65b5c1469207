package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"infosleuth/internal/broadcast"
	"infosleuth/internal/broker"
	"infosleuth/internal/constraint"
	"infosleuth/internal/kqml"
	"infosleuth/internal/mrq"
	"infosleuth/internal/ontology"
	"infosleuth/internal/resource"
	"infosleuth/internal/sqlparse"
)

// layerHandles is what a workload hands the layer table: the agents
// whose public functions the replay measurements call, and what only
// the workload's own set-up could measure.
type layerHandles struct {
	brokers   []*broker.Broker
	resources map[string]*resource.Agent
	// subWindows are the standing queries' [lo, hi] windows and
	// changeValues the values inserted during the traced blocks
	// (subscribe_stream only).
	subWindows   [][2]int
	changeValues []int
	// subscribeUs is the mean subscribe round trip and heapPerSub the
	// GC-settled heap one registered standing query retains.
	subscribeUs float64
	heapPerSub  float64
}

// exchange is one traced RPC with both messages decoded: what the replay
// measurements run on.
type exchange struct {
	client      *span
	server      *span // nil when no server span matched
	serverLayer string
	reqBody     any
	replyBody   any
}

// contentTargets returns empty values of the request's and the reply's
// content types, which depend on who served the call.
func contentTargets(perf kqml.Performative, serverLayer string, reply *kqml.Message) (req, rep any) {
	switch perf {
	case kqml.Ping:
		req, rep = &kqml.PingContent{}, &kqml.PingReply{}
	case kqml.Advertise:
		req, rep = &kqml.AdvertiseContent{}, &kqml.AdvertiseContent{}
	case kqml.Unadvertise:
		req, rep = &kqml.AdvertiseContent{}, &kqml.SorryContent{}
	case kqml.Subscribe:
		req, rep = &kqml.SubscribeContent{}, &kqml.SubscribeAck{}
	case kqml.Update:
		req, rep = &kqml.UpdateContent{}, &kqml.UpdateAck{}
	case kqml.AskAll, kqml.AskOne:
		if serverLayer == layerBroker {
			req, rep = &kqml.BrokerQuery{}, &kqml.BrokerReply{}
		} else {
			req, rep = &kqml.SQLQuery{}, &kqml.SQLResult{}
		}
	}
	if reply != nil && reply.Performative != kqml.Tell {
		rep = &kqml.SorryContent{}
	}
	return req, rep
}

// layerTable derives every per-layer metric from the traced run.
func layerTable(e *env, h *layerHandles, res tracedResult) (map[string]float64, []string, error) {
	m := make(map[string]float64, len(perLayer))
	ops := float64(res.TracedOps)
	if ops == 0 {
		return nil, nil, fmt.Errorf("traced run completed no ops")
	}
	spans := e.tracer.snapshot()
	self := selfTimes(spans)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	brokerAddr := make(map[string]bool)
	brokerByName := make(map[string]*broker.Broker)
	for _, b := range h.brokers {
		brokerAddr[b.Addr()] = true
		brokerByName[b.Name()] = b
	}
	childrenOf := make(map[int64][]*span)
	for _, s := range spans {
		if s.Parent != 0 {
			childrenOf[s.Parent] = append(childrenOf[s.Parent], s)
		}
	}
	waitOn := func(s *span, keep func(*span) bool) (union, sum int64) {
		var ivs []interval
		for _, c := range childrenOf[s.ID] {
			if keep(c) {
				ivs = append(ivs, interval{c.Start, c.End})
				sum += c.dur()
			}
		}
		return unionLen(ivs, s.Start, s.End), sum
	}
	anyChild := func(*span) bool { return true }

	// Span-derived sums.
	var (
		rootNs, unattributedNs                        int64
		clientSelfNs                                  int64
		calls, searches, advertises, unadvertises     float64
		searchSelf, forwardWait, advSelf, unadvSelf   int64
		mrqSelf, mrqBrokerWait, mrqFetchWait, fetchNs int64
		resQueries                                    float64
		resSelf, insertNs, rootSelfRes                int64
		inserts, notifies                             float64
		uaSelf, agentSelf                             int64
		exchanges                                     []*exchange
	)
	for _, s := range spans {
		if s.Op <= 0 {
			continue
		}
		switch s.Kind {
		case kindRoot:
			rootNs += s.dur()
			switch s.Layer {
			case layerUserAgent:
				uaSelf += self[s.ID]
			case layerAgent:
				agentSelf += self[s.ID]
			case layerResource:
				rootSelfRes += self[s.ID]
			}
		case kindCall:
			inserts++
			insertNs += s.dur()
		case kindClient:
			calls++
			ex := &exchange{client: s}
			for _, c := range childrenOf[s.ID] {
				if c.Kind == kindServer {
					ex.server, ex.serverLayer = c, c.Layer
				}
			}
			if ex.server == nil {
				// Nobody accounts for what happened inside this call.
				unattributedNs += self[s.ID]
			} else {
				clientSelfNs += self[s.ID]
			}
			if s.Layer == layerResource && s.Perf == string(kqml.Update) {
				notifies++
			}
			if s.req != nil && s.reply != nil {
				exchanges = append(exchanges, ex)
			}
		case kindServer:
			switch s.Layer {
			case layerBroker:
				switch kqml.Performative(s.Perf) {
				case kqml.AskAll, kqml.AskOne:
					searches++
					searchSelf += self[s.ID]
					w, _ := waitOn(s, anyChild)
					forwardWait += w
				case kqml.Advertise:
					advertises++
					advSelf += self[s.ID]
				case kqml.Unadvertise:
					unadvertises++
					unadvSelf += self[s.ID]
				}
			case layerMRQ:
				mrqSelf += self[s.ID]
				w, _ := waitOn(s, func(c *span) bool { return brokerAddr[c.Peer] })
				mrqBrokerWait += w
				w, sum := waitOn(s, func(c *span) bool { return !brokerAddr[c.Peer] })
				mrqFetchWait += w
				fetchNs += sum
			case layerResource:
				if s.Perf == string(kqml.AskAll) || s.Perf == string(kqml.AskOne) {
					resQueries++
					resSelf += self[s.ID]
				}
			}
		}
	}

	// Decode every captured message once; the replays below reuse the
	// typed bodies.
	for _, ex := range exchanges {
		ex.reqBody, ex.replyBody = contentTargets(ex.client.req.Performative, ex.serverLayer, ex.client.reply)
		if ex.reqBody != nil && len(ex.client.req.Content) > 0 {
			if err := ex.client.req.DecodeContent(ex.reqBody); err != nil {
				return nil, nil, fmt.Errorf("replay: %w", err)
			}
		}
		if ex.replyBody != nil && len(ex.client.reply.Content) > 0 {
			if err := ex.client.reply.DecodeContent(ex.replyBody); err != nil {
				return nil, nil, fmt.Errorf("replay: %w", err)
			}
		}
	}

	codec, err := replayCodec(exchanges)
	if err != nil {
		return nil, nil, err
	}
	m["kqml.encode_us_per_op"] = codec.encodeUs / ops
	m["kqml.decode_us_per_op"] = codec.decodeUs / ops
	if codec.msgs > 0 {
		m["kqml.encode_allocs_per_msg"] = codec.encodeAllocs / codec.msgs
		m["kqml.decode_allocs_per_msg"] = codec.decodeAllocs / codec.msgs
		m["kqml.bytes_per_msg"] = codec.bytes / codec.msgs
	}
	for _, ex := range exchanges {
		ex.client.ReqBytes, ex.client.ReplyBytes = codec.sizes[ex.client.ID][0], codec.sizes[ex.client.ID][1]
	}

	d := res.Delta
	tcpCalls := d.get("infosleuth_transport_calls_total", "tcp")
	m["transport.calls_per_op"] = calls / ops
	// Span self times, less the content encoding and decoding the layer's
	// own code did inside them (the kqml rows account for that).
	net := func(spanNs int64, contentUs float64) float64 { return math.Max(0, us(spanNs)-contentUs) }
	selfUs := map[string]float64{
		layerKQML:      codec.encodeUs + codec.decodeUs,
		layerTransport: net(clientSelfNs, codec.envelopeUs),
		layerAgent:     net(agentSelf, codec.content(layerAgent)),
		layerUserAgent: net(uaSelf, codec.content(layerUserAgent)),
		layerBroker:    net(searchSelf+advSelf+unadvSelf, codec.content(layerBroker)),
		layerMRQ:       net(mrqSelf, codec.content(layerMRQ)),
		layerResource:  net(resSelf+rootSelfRes+insertNs, codec.content(layerResource)),
	}
	m["transport.rtt_self_us_per_op"] = selfUs[layerTransport] / ops
	m["transport.dials_per_op"] = d.get("infosleuth_transport_pool_dials_total", "") / ops
	if tcpCalls > 0 {
		m["transport.bytes_per_call"] = (d.get("infosleuth_transport_bytes_sent_total", "tcp") +
			d.get("infosleuth_transport_bytes_received_total", "tcp")) / tcpCalls
	}
	rtt, floor, err := pingFloor(e)
	if err != nil {
		return nil, nil, fmt.Errorf("ping floor: %w", err)
	}
	m["transport.ping_rtt_us"] = rtt
	m["agent.dispatch_floor_us"] = floor
	m["agent.client_self_us_per_op"] = selfUs[layerAgent] / ops
	m["useragent.self_us_per_op"] = selfUs[layerUserAgent] / ops

	m["broker.searches_per_op"] = searches / ops
	m["broker.search_self_us_per_op"] = net(searchSelf, codec.content(layerBroker, kqml.AskAll, kqml.AskOne)) / ops
	m["broker.forwards_per_op"] = d.sum("infosleuth_broker_forwards_total") / ops
	m["broker.forward_wait_us_per_op"] = us(forwardWait) / ops
	if advertises > 0 {
		m["broker.advertise_self_us"] = net(advSelf, codec.content(layerBroker, kqml.Advertise)) / advertises
	}
	if unadvertises > 0 {
		m["broker.unadvertise_self_us"] = net(unadvSelf, codec.content(layerBroker, kqml.Unadvertise)) / unadvertises
	}
	lookups := d.sum("infosleuth_broker_match_cache_total") + d.sum("infosleuth_broker_shard_cache_total")
	if lookups > 0 {
		m["broker.cache_hit_ratio"] = (d.get("infosleuth_broker_match_cache_total", "hit") +
			d.get("infosleuth_broker_shard_cache_total", "hit")) / lookups
	}
	m["broker.cache_invalidations_per_op"] = (d.get("infosleuth_broker_match_cache_invalidations_total", "") +
		d.get("infosleuth_broker_shard_cache_invalidations_total", "")) / ops
	replayBroker(m, e, brokerByName, exchanges)

	m["mrq.self_us_per_op"] = selfUs[layerMRQ] / ops
	m["mrq.broker_wait_us_per_op"] = us(mrqBrokerWait) / ops
	m["mrq.fetches_per_op"] = d.get("infosleuth_mrq_fetch_total", "") / ops
	m["mrq.fetch_wait_us_per_op"] = us(mrqFetchWait) / ops
	m["mrq.fetch_sum_us_per_op"] = us(fetchNs) / ops
	m["mrq.fetch_kb_per_op"] = d.get("infosleuth_mrq_fetch_bytes_total", "") / 1024 / ops
	m["mrq.semijoins_per_op"] = d.get("infosleuth_mrq_plan_semijoins_total", "") / ops
	m["mrq.agg_pushdowns_per_op"] = d.get("infosleuth_mrq_plan_aggregate_pushdowns_total", "") / ops
	m["mrq.plan_fallbacks_per_op"] = d.get("infosleuth_mrq_plan_fallbacks_total", "") / ops
	m["mrq.pushdown_saved_kb_per_op"] = d.get("infosleuth_mrq_pushdown_saved_bytes_total", "") / 1024 / ops

	m["resource.queries_per_op"] = resQueries / ops
	m["resource.query_self_us_per_op"] = net(resSelf, codec.content(layerResource, kqml.AskAll, kqml.AskOne)) / ops
	if inserts > 0 {
		m["resource.insert_us"] = us(insertNs) / inserts
	}
	m["resource.notify_self_us_per_change"] = net(rootSelfRes, codec.content(layerResource, kqml.Update)) / ops
	m["resource.subscribe_us"] = h.subscribeUs
	m["resource.heap_bytes_per_sub"] = h.heapPerSub
	m["resource.evals_per_change"] = d.get("infosleuth_monitor_eval_total", "") / ops
	m["resource.evals_skipped_per_change"] = d.get("infosleuth_monitor_eval_skipped_total", "") / ops
	m["resource.notifies_per_change"] = notifies / ops
	m["resource.notify_errors"] = d.get("infosleuth_monitor_notify_errors_total", "")
	if err := replayQueries(m, h, exchanges, ops); err != nil {
		return nil, nil, err
	}

	if enq := d.get("infosleuth_broadcast_enqueues_total", ""); enq > 0 {
		m["broadcast.enqueues_per_change"] = enq / ops
		m["broadcast.coalesced_frac"] = d.get("infosleuth_broadcast_coalesced_total", "") / enq
	}
	m["broadcast.dropped"] = d.get("infosleuth_broadcast_dropped_total", "")
	replayRegions(m, h, exchanges)

	if res.UntracedOps > 0 && res.TracedElapsed > 0 {
		untraced := float64(res.UntracedOps) / res.UntracedElapsed.Seconds()
		traced := ops / res.TracedElapsed.Seconds()
		m["trace.overhead_frac"] = 1 - traced/untraced
	}
	if rootNs > 0 {
		m["trace.unattributed_frac"] = float64(unattributedNs) / float64(rootNs)
	}
	top := topSelfLayers(selfUs, ops)
	return m, top, nil
}

// codecReplay is what re-encoding and re-decoding the run's messages
// cost. The envelope half (Marshal, Unmarshal) happens inside transport
// calls; the content half (SetContent, DecodeContent) is done by the
// agents' own code, so it is also kept per layer and request
// performative, to be taken out of that layer's span self time.
type codecReplay struct {
	msgs, bytes                float64
	encodeUs, decodeUs         float64
	envelopeUs                 float64
	contentUs                  map[string]float64 // "layer/performative" -> us
	encodeAllocs, decodeAllocs float64
	sizes                      map[int64][2]int // client span ID -> request, reply bytes
}

// content returns the content-codec time the layer spent on exchanges
// with the given request performatives (all of them when none is given).
func (c *codecReplay) content(layer string, perfs ...kqml.Performative) float64 {
	var total float64
	if len(perfs) == 0 {
		for k, v := range c.contentUs {
			if strings.HasPrefix(k, layer+"/") {
				total += v
			}
		}
		return total
	}
	for _, p := range perfs {
		total += c.contentUs[layer+"/"+string(p)]
	}
	return total
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// codecPasses is how many times the replay runs; times are the mean.
const codecPasses = 3

// replayCodec re-encodes and re-decodes every captured message the way
// the wire path does: encoding is SetContent of the typed body plus
// Marshal of the envelope, decoding is Unmarshal plus DecodeContent. A
// request's content is encoded by the caller and decoded by the server;
// a reply's the other way round.
func replayCodec(exchanges []*exchange) (codecReplay, error) {
	out := codecReplay{sizes: make(map[int64][2]int, len(exchanges)), contentUs: make(map[string]float64)}
	type captured struct {
		msg      *kqml.Message
		body     any
		wire     []byte
		enc, dec string // contentUs keys of who encodes and who decodes the content
	}
	var msgs []captured
	for _, ex := range exchanges {
		perf := "/" + string(ex.client.req.Performative)
		caller, server := ex.client.Layer+perf, ex.serverLayer+perf
		var size [2]int
		for i, c := range []captured{
			{msg: ex.client.req, body: ex.reqBody, enc: caller, dec: server},
			{msg: ex.client.reply, body: ex.replyBody, enc: server, dec: caller},
		} {
			wire, err := kqml.Marshal(c.msg)
			if err != nil {
				return out, fmt.Errorf("replay: %w", err)
			}
			c.wire = wire
			size[i] = len(wire)
			out.bytes += float64(len(wire))
			msgs = append(msgs, c)
		}
		out.sizes[ex.client.ID] = size
	}
	out.msgs = float64(len(msgs))

	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / codecPasses }
	for p := 0; p < codecPasses; p++ {
		m0 := mallocs()
		for _, c := range msgs {
			env := *c.msg
			t0 := time.Now()
			if c.body != nil && len(c.msg.Content) > 0 {
				if err := env.SetContent(c.body); err != nil {
					return out, fmt.Errorf("replay: %w", err)
				}
			}
			t1 := time.Now()
			if _, err := kqml.Marshal(&env); err != nil {
				return out, fmt.Errorf("replay: %w", err)
			}
			t2 := time.Now()
			out.contentUs[c.enc] += us(t1.Sub(t0))
			out.envelopeUs += us(t2.Sub(t1))
			out.encodeUs += us(t2.Sub(t0))
		}
		out.encodeAllocs = float64(mallocs() - m0)

		m0 = mallocs()
		for _, c := range msgs {
			t0 := time.Now()
			msg, err := kqml.Unmarshal(c.wire)
			if err != nil {
				return out, fmt.Errorf("replay: %w", err)
			}
			t1 := time.Now()
			if c.body != nil && len(msg.Content) > 0 {
				if err := msg.DecodeContent(newLike(c.body)); err != nil {
					return out, fmt.Errorf("replay: %w", err)
				}
			}
			t2 := time.Now()
			out.envelopeUs += us(t1.Sub(t0))
			out.contentUs[c.dec] += us(t2.Sub(t1))
			out.decodeUs += us(t2.Sub(t0))
		}
		out.decodeAllocs = float64(mallocs() - m0)
	}
	return out, nil
}

// newLike returns a fresh zero value of body's content type.
func newLike(body any) any { return reflect.New(reflect.TypeOf(body).Elem()).Interface() }

// replaySample bounds how many captured inputs a direct replay times.
const replaySample = 200

// replayBroker times the matcher directly on the run's repositories and
// queries and sizes the repositories.
func replayBroker(m map[string]float64, e *env, byName map[string]*broker.Broker, exchanges []*exchange) {
	type probe struct {
		b *broker.Broker
		q *ontology.Query
	}
	var probes []probe
	var searches, matches float64
	for _, ex := range exchanges {
		bq, ok := ex.reqBody.(*kqml.BrokerQuery)
		if !ok || ex.server == nil || bq.Query == nil {
			continue
		}
		if br, ok := ex.replyBody.(*kqml.BrokerReply); ok {
			searches++
			matches += float64(len(br.Matches))
		}
		if b := byName[ex.server.Agent]; b != nil && len(probes) < replaySample {
			probes = append(probes, probe{b, bq.Query})
		}
	}
	if searches > 0 {
		m["broker.matches_per_search"] = matches / searches
	}
	if len(probes) > 0 {
		direct := &broker.DirectMatcher{World: e.world}
		start := time.Now()
		for _, p := range probes {
			// The run already matched these queries on these repositories.
			_, _ = direct.Match(p.b.Repository(), p.q)
		}
		m["broker.match_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(probes))
		// A cache serves one repository: its entries carry that
		// repository's generations.
		cached := make(map[*broker.Broker]*broker.CachedMatcher)
		for _, p := range probes {
			if cached[p.b] == nil {
				cached[p.b] = broker.NewCachedMatcher(direct, len(probes))
			}
			_, _ = cached[p.b].Match(p.b.Repository(), p.q)
		}
		start = time.Now()
		for _, p := range probes {
			_, _ = cached[p.b].Match(p.b.Repository(), p.q)
		}
		m["broker.match_cached_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(probes))
	}

	// Heap per advertisement: load the same ads into a fresh repository of
	// the same shape and read the GC-settled growth.
	var ads, heap float64
	for _, b := range byName {
		all := b.Repository().All()
		before := liveHeap()
		fresh := broker.NewShardedRepository(b.Repository().Shards())
		for _, ad := range all {
			_ = fresh.Put(ad) // these ads already passed Put's validation once
		}
		after := liveHeap()
		runtime.KeepAlive(fresh)
		ads += float64(len(all))
		if after > before {
			heap += float64(after - before)
		}
	}
	m["broker.repo_ads"] = ads
	if ads > 0 {
		m["broker.heap_bytes_per_ad"] = heap / ads
	}
}

// replayQueries times, directly, the work the captured SQL caused:
// parsing every text, running every fragment query on its resource, and
// merging every class's fragment replies.
func replayQueries(m map[string]float64, h *layerHandles, exchanges []*exchange, ops float64) error {
	type fragKey struct {
		op    int64
		class string
	}
	var (
		texts        []string
		rows, runs   float64
		runNs        int64
		fragments    = make(map[fragKey][]*kqml.SQLResult)
		fragmentKeys []fragKey
	)
	for _, ex := range exchanges {
		switch body := ex.reqBody.(type) {
		case *kqml.UpdateContent:
			texts = append(texts, body.SQL)
		case *kqml.SQLQuery:
			if body.SQL == "" {
				continue
			}
			texts = append(texts, body.SQL)
			if ex.serverLayer != layerResource {
				continue
			}
			res, ok := ex.replyBody.(*kqml.SQLResult)
			if !ok {
				continue
			}
			rows += float64(len(res.Rows))
			if ra := h.resources[ex.server.Agent]; ra != nil {
				start := time.Now()
				if _, err := ra.Run(body.SQL); err != nil {
					return fmt.Errorf("replay: %s: %w", ex.server.Agent, err)
				}
				runNs += time.Since(start).Nanoseconds()
				runs++
			}
			stmt, err := sqlparse.Parse(body.SQL)
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			if len(stmt.Aggs) == 0 && len(stmt.Tables()) == 1 {
				k := fragKey{ex.client.Op, stmt.Tables()[0]}
				if _, seen := fragments[k]; !seen {
					fragmentKeys = append(fragmentKeys, k)
				}
				fragments[k] = append(fragments[k], res)
			}
		}
	}
	m["resource.rows_returned_per_op"] = rows / ops
	if runs > 0 {
		m["resource.run_us_per_query"] = float64(runNs) / 1e3 / runs
	}
	start := time.Now()
	for _, text := range texts {
		if _, err := sqlparse.Parse(text); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	m["sqlparse.parse_us_per_op"] = float64(time.Since(start).Nanoseconds()) / 1e3 / ops
	start = time.Now()
	for _, k := range fragmentKeys {
		if _, err := mrq.MergeFragments(k.class, "id", fragments[k]); err != nil {
			return fmt.Errorf("replay: merging %s: %w", k.class, err)
		}
	}
	m["mrq.merge_us_per_op"] = float64(time.Since(start).Nanoseconds()) / 1e3 / ops
	return nil
}

// overlapSink keeps the timed Overlaps calls from being optimised away.
var overlapSink int

// replayRegions times constraint.Set.Overlaps over the run's own regions
// and, for subscribe_stream, Hub.Publish on a stand-alone hub loaded
// with the same standing queries.
func replayRegions(m map[string]float64, h *layerHandles, exchanges []*exchange) {
	var left, right []*constraint.Set
	if len(h.subWindows) > 0 {
		for _, w := range h.subWindows {
			left = append(left, rangeSet("C2", w[0], w[1]))
		}
		for i, v := range h.changeValues {
			right = append(right, constraint.NewSet(
				constraint.Atom{Field: "c2.id", Allowed: []constraint.Value{constraint.Str(fmt.Sprintf("n%07d", i))}},
				constraint.Atom{Field: "c2.a", Interval: constraint.Exactly(float64(v))},
			))
		}
	} else {
		for _, ex := range exchanges {
			if bq, ok := ex.reqBody.(*kqml.BrokerQuery); ok && bq.Query != nil && bq.Query.Constraints.Len() > 0 && len(left) < replaySample {
				left = append(left, bq.Query.Constraints)
			}
		}
		for _, b := range h.brokers {
			for _, ad := range b.Repository().All() {
				if len(right) >= 5*replaySample {
					break
				}
				for _, f := range ad.Content {
					if f.Constraints.Len() > 0 {
						right = append(right, f.Constraints)
					}
				}
			}
		}
	}
	if len(right) > replaySample {
		right = right[:replaySample]
	}
	if len(left) > 0 && len(right) > 0 {
		start := time.Now()
		for _, l := range left {
			for _, r := range right {
				if l.Overlaps(r) {
					overlapSink++
				}
			}
		}
		m["constraint.overlaps_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(left)*len(right))
	}

	if len(h.subWindows) == 0 || len(right) == 0 {
		return
	}
	hub := broadcast.New(broadcast.Options{})
	for i, w := range h.subWindows {
		hub.Subscribe(fmt.Sprintf("replay-%d", i), []string{"c2"}, rangeSet("C2", w[0], w[1]), func(broadcast.Batch) {})
	}
	start := time.Now()
	for _, region := range right {
		hub.Publish(broadcast.Event{Class: "c2", Region: region, Rows: 1})
	}
	m["broadcast.publish_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(right))
	hub.Close()
}

// topSelfLayers names the three layers with the largest self time per
// op: the summary a PR description quotes before optimising a layer.
func topSelfLayers(totalUs map[string]float64, ops float64) []string {
	names := make([]string, 0, len(totalUs))
	var total float64
	for name, v := range totalUs {
		names = append(names, name)
		total += v
	}
	sort.Slice(names, func(i, j int) bool {
		if totalUs[names[i]] != totalUs[names[j]] {
			return totalUs[names[i]] > totalUs[names[j]]
		}
		return names[i] < names[j]
	})
	out := make([]string, 0, 3)
	for _, name := range names[:3] {
		out = append(out, fmt.Sprintf("%s %.0f us/op (%.0f%%)", name, totalUs[name]/ops, 100*totalUs[name]/total))
	}
	return out
}
