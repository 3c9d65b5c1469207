package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"infosleuth/internal/agent"
	"infosleuth/internal/kqml"
)

// tracedResult is what the one-client traced run measured before the
// layer table is derived from its spans.
type tracedResult struct {
	UntracedOps     int
	UntracedElapsed time.Duration
	TracedOps       int
	TracedElapsed   time.Duration
	Failed          int
	// Delta is the program's counters over the traced blocks.
	Delta counters
}

// pingOp is the op id the ping-floor spans carry, so they stay out of
// the per-op sums.
const pingOp = -1

// traceBlock is how long the tracer stays on or off before switching,
// and tracedOpCap bounds the traced ops (and so the spans and messages
// held in memory).
const (
	traceBlock  = 250 * time.Millisecond
	tracedOpCap = 4000
	// minTracedOps keeps a very short (or very slow) run going until the
	// traced ops cover a few passes of the workload's mix.
	minTracedOps = 40
)

// traceClosedLoop drives one client back to back for dur, switching the
// tracer on and off every traceBlock. Both kinds of block run on the
// same community and interleave, so drift (a growing table, a warming
// cache) falls on both alike and their throughput ratio is the tracing
// overhead. Every traced op runs inside a root span owned by rootLayer:
// the layer whose public function the harness calls.
func traceClosedLoop(tr *tracer, rootAgent, rootLayer string, dur time.Duration, op opFunc) tracedResult {
	var res tracedResult
	res.Delta = make(counters)
	begin := time.Now()
	for traced := false; (time.Since(begin) < dur || res.TracedOps < minTracedOps) && res.TracedOps < tracedOpCap; traced = !traced {
		if !traced {
			start := time.Now()
			for time.Since(start) < traceBlock {
				if !op() {
					res.Failed++
				}
				res.UntracedOps++
			}
			res.UntracedElapsed += time.Since(start)
			continue
		}
		before := readCounters()
		tr.enabled.Store(true)
		start := time.Now()
		for time.Since(start) < traceBlock {
			res.TracedOps++
			tr.op.Store(int64(res.TracedOps))
			root := tr.begin(kindRoot, rootAgent, rootLayer, 0)
			tr.rootID.Store(root.ID)
			ok := op()
			tr.end(root)
			if !ok {
				root.Err = "failed"
				res.Failed++
			}
		}
		res.TracedElapsed += time.Since(start)
		tr.enabled.Store(false)
		for k, v := range readCounters().sub(before) {
			res.Delta[k] += v
		}
	}
	return res
}

const pingCount = 200

// pingFloor times an empty ping RPC against an idle agent.Base: the
// client spans' median is the transport's round-trip floor, the server
// spans' median the agent runtime's dispatch floor.
func pingFloor(e *env) (rttUs, dispatchUs float64, err error) {
	tr := e.tracer
	target, err := agent.New(agent.Config{
		Name: "pingee", Address: loopback, Transport: e.transport("pingee", layerAgent),
	})
	if err != nil {
		return 0, 0, err
	}
	if err := e.start("pingee", target); err != nil {
		return 0, 0, err
	}
	caller := e.transport("pinger", layerListener)
	ping := func() error {
		msg := kqml.New(kqml.Ping, "pinger", &kqml.PingContent{AgentName: "pinger"})
		reply, err := caller.Call(context.Background(), target.Addr(), msg)
		if err != nil {
			return err
		}
		if reply.Performative != kqml.Tell {
			return fmt.Errorf("ping = %s", reply.Performative)
		}
		return nil
	}
	for i := 0; i < pingCount/10; i++ { // dial and warm the connection
		if err := ping(); err != nil {
			return 0, 0, err
		}
	}
	tr.op.Store(pingOp)
	tr.enabled.Store(true)
	for i := 0; i < pingCount; i++ {
		if err := ping(); err != nil {
			tr.enabled.Store(false)
			return 0, 0, err
		}
	}
	tr.enabled.Store(false)
	var client, server []float64
	for _, s := range tr.snapshot() {
		if s.Op != pingOp {
			continue
		}
		switch s.Kind {
		case kindClient:
			client = append(client, float64(s.dur())/1e3)
		case kindServer:
			server = append(server, float64(s.dur())/1e3)
		}
	}
	sort.Float64s(client)
	sort.Float64s(server)
	return percentile(client, 0.5), percentile(server, 0.5), nil
}
