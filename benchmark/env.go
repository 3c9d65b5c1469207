package main

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"infosleuth/internal/ontology"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/transport"
)

// Layer names are this repository's packages: the ones spans and self
// times are attributed to.
const (
	layerKQML      = "kqml"
	layerTransport = "transport"
	layerAgent     = "agent"
	layerUserAgent = "useragent"
	layerBroker    = "broker"
	layerMRQ       = "mrq"
	layerResource  = "resource"
	// layerListener tags the harness's own bare endpoints (subscribers,
	// the ping target); their time is not a layer of the program.
	layerListener = "listener"
)

const loopback = "tcp://127.0.0.1:0"

// env is what one community is built in: the client count, the world,
// and the transports it hands out. Every agent gets its own
// transport.TCP, as every daemon has in production, so connection pools
// are per agent. With a tracer set, each transport is decorated.
type env struct {
	clients int
	world   *ontology.World
	tracer  *tracer

	tcps  []*transport.TCP
	stops []func()
}

func newEnv(clients int, tr *tracer) *env {
	return &env{clients: clients, world: ontology.NewWorld(ontology.Generic()), tracer: tr}
}

// transport returns a fresh TCP transport for the named agent.
func (e *env) transport(agent, layer string) transport.Transport {
	tcp := &transport.TCP{}
	e.tcps = append(e.tcps, tcp)
	if e.tracer == nil {
		return tcp
	}
	return &tracedTransport{inner: tcp, t: e.tracer, agent: agent, layer: layer}
}

// onStop registers a teardown step; steps run in reverse order.
func (e *env) onStop(f func()) { e.stops = append(e.stops, f) }

// stop tears the community down and closes every pooled connection.
func (e *env) stop() {
	for i := len(e.stops) - 1; i >= 0; i-- {
		e.stops[i]()
	}
	e.stops = nil
	for _, tcp := range e.tcps {
		tcp.CloseIdleConnections()
	}
	e.tcps = nil
}

// starter is the lifecycle every agent type shares.
type starter interface {
	Start() error
	Stop() error
}

// start starts an agent and registers its stop.
func (e *env) start(name string, a starter) error {
	if err := a.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", name, err)
	}
	e.onStop(func() { _ = a.Stop() }) // teardown: nothing to do about a failed unbind
	return nil
}

// usage is the process-wide CPU, allocation and wire reading taken around
// a phase.
type usage struct {
	cpu        time.Duration // user + system
	mallocs    uint64
	totalAlloc uint64
	wire       int64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, wire: wireBytes(),
	}
}

func (u usage) sub(o usage) usage {
	return usage{
		cpu:        u.cpu - o.cpu,
		mallocs:    u.mallocs - o.mallocs,
		totalAlloc: u.totalAlloc - o.totalAlloc,
		wire:       u.wire - o.wire,
	}
}

// counters is a flat reading of the program's always-on telemetry
// counters and gauges: "family{label}" -> value.
type counters map[string]float64

func readCounters() counters {
	out := make(counters)
	for name, series := range telemetry.Default.Snapshot() {
		for label, v := range series {
			switch n := v.(type) {
			case int64:
				out[name+"{"+label+"}"] = float64(n)
			case float64:
				out[name+"{"+label+"}"] = n
			}
		}
	}
	return out
}

// get returns one series; sum adds every series of a family.
func (c counters) get(family, label string) float64 { return c[family+"{"+label+"}"] }

func (c counters) sum(family string) float64 {
	var total float64
	prefix := family + "{"
	for k, v := range c {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}

func (c counters) sub(o counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - o[k]
	}
	return out
}

// wireBytes is request plus reply payload bytes moved over TCP so far.
func wireBytes() int64 {
	c := readCounters()
	return int64(c.get("infosleuth_transport_bytes_sent_total", "tcp") + c.get("infosleuth_transport_bytes_received_total", "tcp"))
}

// liveHeap forces collection and returns the live heap in bytes. Two
// cycles, so sync.Pool victim caches are emptied too.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
