// Package daemon consolidates the flag wiring every InfoSleuth daemon
// repeats: structured logging, the telemetry/health endpoint, and the
// outgoing-call resilience policy. A daemon embeds one Options, registers
// its flags before flag.Parse, and afterwards asks for the pieces it needs:
//
//	var opts daemon.Options
//	opts.AddFlags(flag.CommandLine)
//	flag.Parse()
//	logger := opts.Setup("brokerd")
//	stop, err := opts.ServeTelemetry(logger, readiness)
//	cfg.CallPolicy = opts.CallPolicy()
//
// The resilience flags default to the paper-faithful single-shot behavior
// (one attempt, no breakers), in which case CallPolicy returns nil and the
// agents behave exactly as before the resilience layer existed.
package daemon

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"infosleuth/internal/fleet"
	"infosleuth/internal/resilience"
	"infosleuth/internal/slo"
	"infosleuth/internal/stats"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/logging"
	"infosleuth/internal/telemetry/recorder"
	"infosleuth/internal/transport"
)

// Options holds the daemon-wide flag values.
type Options struct {
	// MetricsAddr serves Prometheus /metrics, /traces and health probes
	// when non-empty.
	MetricsAddr string
	// Pprof exposes net/http/pprof under /debug/pprof on MetricsAddr.
	Pprof bool

	// SLO declares per-operation service-level objectives
	// ("op=latency[:budget]", comma-separated; see slo.ParseObjectives).
	// Burn rates appear at /slo and as infosleuth_slo_* gauges.
	SLO string
	// Fleet runs a fleet monitor agent alongside the daemon's own agent:
	// it discovers the community through the brokers, polls every member
	// for telemetry snapshots, and serves the aggregate at /fleet.
	Fleet bool
	// FleetInterval is the monitor's poll cadence.
	FleetInterval time.Duration

	// fleetAgent holds the running fleet monitor (set by StartFleet) so
	// the /fleet handler mounted at ServeTelemetry time can reach it.
	fleetAgent atomic.Pointer[fleet.Agent]

	// RetryMaxAttempts is the total attempts per outgoing call; <= 1
	// keeps calls single-shot.
	RetryMaxAttempts int
	// RetryBaseDelay is the full-jitter backoff base.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the backoff.
	RetryMaxDelay time.Duration
	// RetryBudget caps the retry token bucket; negative disables it.
	RetryBudget int
	// BreakerThreshold is the consecutive failures that open a peer's
	// circuit; 0 disables circuit breaking.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects calls before a
	// half-open probe.
	BreakerCooldown time.Duration

	// Log configures structured logging.
	Log logging.Options
}

// AddFlags registers every shared daemon flag on fs.
func (o *Options) AddFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.MetricsAddr, "metrics-addr", "",
		"serve Prometheus /metrics, /traces and health probes here (e.g. :9090); empty disables")
	fs.BoolVar(&o.Pprof, "pprof", false,
		"expose net/http/pprof under /debug/pprof on the metrics address")
	fs.IntVar(&o.RetryMaxAttempts, "retry-max-attempts", 1,
		"total attempts per outgoing call (1 = single-shot, no retries)")
	fs.DurationVar(&o.RetryBaseDelay, "retry-base-delay", 25*time.Millisecond,
		"full-jitter retry backoff base")
	fs.DurationVar(&o.RetryMaxDelay, "retry-max-delay", 2*time.Second,
		"retry backoff cap")
	fs.IntVar(&o.RetryBudget, "retry-budget", 64,
		"retry token bucket size (successes slowly refill it; negative = unlimited)")
	fs.IntVar(&o.BreakerThreshold, "breaker-threshold", 0,
		"consecutive call failures that open a peer's circuit (0 disables breakers)")
	fs.DurationVar(&o.BreakerCooldown, "breaker-cooldown", 5*time.Second,
		"how long an open circuit rejects calls before a half-open probe")
	fs.StringVar(&o.SLO, "slo", "",
		"per-operation SLOs as op=latency[:budget],... (e.g. mrq.run=250ms:0.01); served at /slo")
	fs.BoolVar(&o.Fleet, "fleet", false,
		"run a fleet monitor agent that polls the community for telemetry; served at /fleet")
	fs.DurationVar(&o.FleetInterval, "fleet-interval", fleet.DefaultPollInterval,
		"fleet monitor poll cadence")
	o.Log.AddFlags(fs)
}

// Setup builds the daemon's logger from the logging flags.
func (o *Options) Setup(component string) *slog.Logger {
	return logging.Setup(component, o.Log)
}

// CallPolicy builds the resilience policy the flags describe, or nil when
// both retries and circuit breaking are left off — the single-shot
// configuration every Section 5 experiment pins.
func (o *Options) CallPolicy() *resilience.Policy {
	if o.RetryMaxAttempts <= 1 && o.BreakerThreshold <= 0 {
		return nil
	}
	return resilience.New(resilience.Options{
		MaxAttempts:      o.RetryMaxAttempts,
		BaseDelay:        o.RetryBaseDelay,
		MaxDelay:         o.RetryMaxDelay,
		RetryBudget:      o.RetryBudget,
		BreakerThreshold: o.BreakerThreshold,
		BreakerCooldown:  o.BreakerCooldown,
	})
}

// ServeTelemetry starts the metrics/health endpoint when -metrics-addr is
// set: a conversation flight recorder behind /traces (with explain reports
// at /traces/{id}/explain), the tail-sampled slow-query log behind
// /slowlog, decision provenance recording, rolling per-peer query
// statistics behind /stats, SLO burn rates behind /slo (with -slo),
// the fleet dashboard behind /fleet (with -fleet, once StartFleet runs),
// runtime metrics, the supplied readiness check behind /readyz, and
// optionally pprof. The returned stop function closes the endpoint (a
// no-op when disabled).
//
// Installing the recorder turns on always-on tracing with tail sampling:
// every root operation is observed, and the slow/failed/degraded ones pin
// their traces into the slowlog. Without -metrics-addr none of this is
// active — the Section 5 experiments run with zero observers installed.
//
// extra mounts daemon-specific handlers on the same endpoint (resourced
// adds its subscription pipeline report at /subs).
func (o *Options) ServeTelemetry(logger *slog.Logger, ready func() error, extra ...telemetry.ServeOption) (func(), error) {
	if o.MetricsAddr == "" {
		return func() {}, nil
	}
	rec := recorder.New()
	telemetry.SetSpanRecorder(rec)
	telemetry.Default.EnableRuntimeMetrics()
	opts := []telemetry.ServeOption{
		telemetry.WithHandler("/traces", rec.Handler()),
		telemetry.WithHandler("/traces/", rec.Handler()),
		telemetry.WithHandler("/stats", stats.Queries.Handler()),
		telemetry.WithHandler("/slowlog", rec.SlowlogHandler()),
	}
	observers := telemetry.MultiRootObserver{rec}
	if o.SLO != "" {
		objs, err := slo.ParseObjectives(o.SLO)
		if err != nil {
			return nil, err
		}
		tracker := slo.NewTracker(objs)
		tracker.Publish(telemetry.Default)
		observers = append(observers, tracker)
		opts = append(opts, telemetry.WithHandler("/slo", tracker.Handler()))
	}
	telemetry.SetRootObserver(observers)
	if o.Fleet {
		opts = append(opts, telemetry.WithHandler("/fleet", o.fleetHandler()))
	}
	if ready != nil {
		opts = append(opts, telemetry.WithReadiness(ready))
	}
	if o.Pprof {
		opts = append(opts, telemetry.WithPprof())
	}
	opts = append(opts, extra...)
	srv, err := telemetry.Serve(o.MetricsAddr, telemetry.Default, opts...)
	if err != nil {
		return nil, err
	}
	logger.Info("metrics endpoint up", "url", "http://"+srv.Addr()+"/metrics")
	return func() { srv.Close() }, nil
}

// fleetHandler delegates /fleet to the monitor agent once StartFleet has
// run; until then it reports 503 (the endpoint is mounted before the
// daemon's transport exists).
func (o *Options) fleetHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		fa := o.fleetAgent.Load()
		if fa == nil {
			http.Error(w, "fleet monitor not running yet", http.StatusServiceUnavailable)
			return
		}
		fa.Handler().ServeHTTP(w, req)
	})
}

// FleetConfig seeds StartFleet with the daemon-specific pieces the flags
// cannot know: the transport and the broker addresses.
type FleetConfig struct {
	// Name names the monitor agent; empty derives "<owner> fleet monitor".
	Name string
	// Owner is the daemon's own agent name, used to derive Name.
	Owner string
	// Transport and KnownBrokers mirror the daemon's own agent.
	Transport    transport.Transport
	KnownBrokers []string
	// Address is where the monitor listens for replies; empty picks an
	// ephemeral loopback port ("tcp://127.0.0.1:0") on the TCP transport
	// — the monitor only needs to be reachable by the agents it polls,
	// not by operators.
	Address string
}

// StartFleet runs the fleet monitor agent when -fleet is set: it starts
// and advertises the monitor (type "monitor", discoverable like any other
// member), performs an initial discover+poll, then polls on the jittered
// -fleet-interval cadence. The returned stop function halts polling and
// the agent. A no-op returning (nil, func(){}, nil) when -fleet is off.
func (o *Options) StartFleet(logger *slog.Logger, cfg FleetConfig) (*fleet.Agent, func(), error) {
	if !o.Fleet {
		return nil, func() {}, nil
	}
	name := cfg.Name
	if name == "" {
		name = cfg.Owner + " fleet monitor"
	}
	if _, tcp := cfg.Transport.(*transport.TCP); tcp && cfg.Address == "" {
		cfg.Address = "tcp://127.0.0.1:0"
	}
	fa, err := fleet.New(fleet.Config{
		Name:         name,
		Address:      cfg.Address,
		Transport:    cfg.Transport,
		KnownBrokers: cfg.KnownBrokers,
		CallPolicy:   o.CallPolicy(),
		PollInterval: o.FleetInterval,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fleet monitor: %w", err)
	}
	if err := fa.Start(); err != nil {
		return nil, nil, fmt.Errorf("fleet monitor: %w", err)
	}
	ctx := context.Background()
	if _, err := fa.Advertise(ctx); err != nil {
		logger.Warn("fleet monitor advertising failed (will keep polling)", "err", err)
	}
	if err := fa.Discover(ctx); err != nil {
		logger.Warn("fleet discovery failed (will retry on next poll)", "err", err)
	} else {
		fa.PollOnce(ctx)
	}
	stopPoll := fa.StartPolling()
	o.fleetAgent.Store(fa)
	logger.Info("fleet monitor up", "name", fa.Name(), "interval", o.FleetInterval)
	return fa, func() {
		stopPoll()
		fa.Stop()
	}, nil
}
