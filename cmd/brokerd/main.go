// Command brokerd runs an InfoSleuth broker agent over TCP.
//
// Usage:
//
//	brokerd -name Broker1 -listen tcp://0.0.0.0:4356
//	brokerd -name Broker2 -listen tcp://0.0.0.0:4357 -peers tcp://host1:4356
//
// Peers are joined into a consortium at startup (Section 4.1 of the
// paper); the broker pings its advertised agents periodically and drops
// the ones that have died (Section 2.2).
//
// The broker matches with the compiled matcher behind the match cache
// (DESIGN.md §7, §12); the LDL-style Datalog engine is the test oracle
// and is not selectable here.
//
// With -metrics-addr the daemon also exposes /metrics, /metrics.json,
// /healthz, /readyz (ready once the broker is listening and joined to its
// configured peers), /traces and /traces/{id} (the conversation flight
// recorder), and — with -pprof — /debug/pprof.
//
// The shared resilience flags (-retry-max-attempts, -retry-base-delay,
// -retry-max-delay, -retry-budget, -breaker-threshold, -breaker-cooldown)
// add retries and per-peer circuit breakers to the broker's outgoing calls;
// their defaults keep every call single-shot.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"infosleuth/internal/broker"
	"infosleuth/internal/daemon"
	"infosleuth/internal/ontology"
	"infosleuth/internal/telemetry/logging"
	"infosleuth/internal/transport"
)

func main() {
	var (
		name        = flag.String("name", "Broker1", "broker agent name")
		listen      = flag.String("listen", "tcp://127.0.0.1:4356", "listen address (tcp://host:port)")
		peers       = flag.String("peers", "", "comma-separated peer broker addresses to join")
		specialize  = flag.String("specialize", "", "comma-separated ontology names this broker specializes in")
		community   = flag.String("community", "default", "community name")
		consortium  = flag.String("consortium", "consortium-1", "consortium name")
		pingEvery   = flag.Duration("ping-interval", 60*time.Second, "agent liveness ping interval (0 disables)")
		maxHops     = flag.Int("max-hops", 4, "maximum inter-broker hop count")
		peerPruning = flag.Bool("peer-pruning", false, "prune peers by advertised specialization")
		opts        daemon.Options
	)
	opts.AddFlags(flag.CommandLine)
	flag.Parse()
	logger := opts.Setup("brokerd")

	// ready flips once the broker is listening and consortium joining has
	// run; /readyz reports 503 until then.
	var ready atomic.Bool
	stopTelemetry, err := opts.ServeTelemetry(logger, func() error {
		if !ready.Load() {
			return fmt.Errorf("broker still starting")
		}
		return nil
	})
	if err != nil {
		logging.Fatal(logger, "metrics endpoint failed", "err", err)
	}
	defer stopTelemetry()

	world := ontology.NewWorld(ontology.Generic(), ontology.Healthcare())
	cfg := broker.Config{
		Name:        *name,
		Address:     *listen,
		Transport:   &transport.TCP{},
		World:       world,
		MaxHopCount: *maxHops,
		Community:   *community,
		Consortia:   []string{*consortium},
		PeerPruning: *peerPruning,
		CallPolicy:  opts.CallPolicy(),
	}
	if *specialize != "" {
		cfg.Specializations = strings.Split(*specialize, ",")
	}
	b, err := broker.New(cfg)
	if err != nil {
		logging.Fatal(logger, "broker construction failed", "err", err)
	}
	if err := b.Start(); err != nil {
		logging.Fatal(logger, "broker start failed", "err", err)
	}
	defer b.Stop()
	logger.Info("broker listening", "name", b.Name(), "addr", b.Addr())

	if *peers != "" {
		addrs := strings.Split(*peers, ",")
		if err := b.JoinConsortium(context.Background(), addrs...); err != nil {
			logger.Warn("joining consortium failed", "err", err)
		} else {
			logger.Info("joined consortium", "peers", b.Peers())
		}
	}
	ready.Store(true)

	// The broker's fleet monitor bootstraps through the broker itself: it
	// advertises there like any member and polls whatever the repository
	// (plus consortium forwarding) reveals.
	_, stopFleet, err := opts.StartFleet(logger, daemon.FleetConfig{
		Owner: *name, Transport: &transport.TCP{}, KnownBrokers: []string{b.Addr()},
	})
	if err != nil {
		logging.Fatal(logger, "fleet monitor failed", "err", err)
	}
	defer stopFleet()

	stopPing := make(chan struct{})
	if *pingEvery > 0 {
		go func() {
			ticker := time.NewTicker(*pingEvery)
			defer ticker.Stop()
			for {
				select {
				case <-stopPing:
					return
				case <-ticker.C:
					if dropped := b.PingAgents(context.Background()); dropped > 0 {
						logger.Info("dropped dead agents", "count", dropped)
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	close(stopPing)
	fmt.Println()
	logger.Info("broker shutting down",
		"name", b.Name(),
		"queries_served", b.Stats.QueriesServed.Load(),
		"ads_accepted", b.Stats.AdsAccepted.Load())
}
