// Command resourced runs an InfoSleuth resource agent over TCP: an
// in-memory relational repository filled with synthetic data, advertised
// to one or more brokers.
//
// Usage:
//
//	resourced -name "ResourceAgent5" -listen tcp://127.0.0.1:4400 \
//	    -brokers tcp://127.0.0.1:4356 \
//	    -data healthcare:500 \
//	    -constraints "patient.patient_age between 43 and 75"
//
//	resourced -name "DB1 resource agent" -listen tcp://127.0.0.1:4401 \
//	    -brokers tcp://127.0.0.1:4356 -data generic:C2:200
//
// The -data flag takes either "healthcare:<patients>" (the Section 2.4
// domain: patient, diagnosis and hospital_stay classes) or
// "generic:<class>:<rows>" (one C1..C6 toy class). With -constraints, the
// data is restricted to the matching rows and the constraint is advertised.
//
// The shared resilience flags (-retry-max-attempts, -retry-base-delay,
// -retry-max-delay, -retry-budget, -breaker-threshold, -breaker-cooldown)
// add retries and per-peer circuit breakers to the agent's outgoing calls;
// their defaults keep every call single-shot.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"infosleuth/internal/constraint"
	"infosleuth/internal/daemon"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resource"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/logging"
	"infosleuth/internal/transport"
)

func main() {
	var (
		name        = flag.String("name", "ResourceAgent1", "agent name")
		listen      = flag.String("listen", "tcp://127.0.0.1:4400", "listen address")
		brokers     = flag.String("brokers", "tcp://127.0.0.1:4356", "comma-separated broker addresses")
		redundancy  = flag.Int("redundancy", 1, "number of brokers to advertise to")
		data        = flag.String("data", "healthcare:200", "data spec: healthcare:<patients> or generic:<class>:<rows>")
		constraints = flag.String("constraints", "", "advertised data constraints, e.g. \"patient.patient_age between 43 and 75\"")
		respTime    = flag.Float64("response-time", 5, "advertised estimated response time (s)")
		seed        = flag.Int64("seed", 1, "data generation seed")
		heartbeat   = flag.Duration("heartbeat", 60*time.Second, "broker ping interval (0 disables)")
		opts        daemon.Options
	)
	opts.AddFlags(flag.CommandLine)
	flag.Parse()
	logger := opts.Setup("resourced")

	db, frag, err := buildData(*data, *seed, *constraints)
	if err != nil {
		logging.Fatal(logger, "data generation failed", "err", err)
	}
	a, err := resource.New(resource.Config{
		Name:                 *name,
		Address:              *listen,
		Transport:            &transport.TCP{},
		KnownBrokers:         strings.Split(*brokers, ","),
		Redundancy:           *redundancy,
		DB:                   db,
		Fragment:             *frag,
		World:                ontology.NewWorld(ontology.Generic(), ontology.Healthcare()),
		EstimatedResponseSec: *respTime,
		CallPolicy:           opts.CallPolicy(),
	})
	if err != nil {
		logging.Fatal(logger, "agent construction failed", "err", err)
	}

	// Ready means registered: an agent with no connected broker is alive
	// but cannot be found by queries (Section 4.2). The /subs handler
	// reports the subscription pipeline (standing queries, queue depths,
	// recent notifications) next to /metrics.
	stopTelemetry, err := opts.ServeTelemetry(logger, func() error {
		if len(a.ConnectedBrokers()) == 0 {
			return fmt.Errorf("no connected brokers")
		}
		return nil
	}, telemetry.WithHandler("/subs", a.SubsHandler()))
	if err != nil {
		logging.Fatal(logger, "metrics endpoint failed", "err", err)
	}
	defer stopTelemetry()

	if err := a.Start(); err != nil {
		logging.Fatal(logger, "agent start failed", "err", err)
	}
	defer a.Stop()
	logger.Info("resource agent listening", "name", a.Name(), "addr", a.Addr(), "rows", db.TotalRows())

	n, err := a.Advertise(context.Background())
	if err != nil {
		logger.Warn("advertising failed", "err", err)
	}
	logger.Info("advertised", "brokers", n, "connected", a.ConnectedBrokers())

	_, stopFleet, err := opts.StartFleet(logger, daemon.FleetConfig{
		Owner: *name, Transport: &transport.TCP{}, KnownBrokers: strings.Split(*brokers, ","),
	})
	if err != nil {
		logging.Fatal(logger, "fleet monitor failed", "err", err)
	}
	defer stopFleet()

	var stop func()
	if *heartbeat > 0 {
		stop = a.StartHeartbeat(*heartbeat)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println()
	if stop != nil {
		stop()
	}
	a.Unadvertise(context.Background())
	logger.Info("resource agent unregistered and shut down", "name", a.Name())
}

func buildData(spec string, seed int64, constraintText string) (*relational.Database, *ontology.Fragment, error) {
	parts := strings.Split(spec, ":")
	db := relational.NewDatabase()
	var frag ontology.Fragment
	switch parts[0] {
	case "healthcare":
		n := 200
		if len(parts) > 1 {
			v, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, nil, fmt.Errorf("bad healthcare row count %q", parts[1])
			}
			n = v
		}
		if err := relational.GenerateHealthcare(db, n, seed); err != nil {
			return nil, nil, err
		}
		frag = ontology.Fragment{
			Ontology: "healthcare",
			Classes:  []string{"patient", "diagnosis", "hospital_stay"},
		}
	case "generic":
		if len(parts) < 2 {
			return nil, nil, fmt.Errorf("generic data spec needs a class: generic:C2:200")
		}
		class := parts[1]
		n := 200
		if len(parts) > 2 {
			v, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, nil, fmt.Errorf("bad generic row count %q", parts[2])
			}
			n = v
		}
		if _, err := relational.GenerateGeneric(db, class, n, seed); err != nil {
			return nil, nil, err
		}
		frag = ontology.Fragment{Ontology: "generic", Classes: []string{class}}
	default:
		return nil, nil, fmt.Errorf("unknown data spec %q (want healthcare:<n> or generic:<class>:<n>)", spec)
	}
	if constraintText != "" {
		cs, err := constraint.Parse(constraintText)
		if err != nil {
			return nil, nil, err
		}
		frag.Constraints = cs
		// Restrict the stored rows to the advertised constraint so the
		// advertisement is truthful: rebuild every table as the
		// horizontal fragment the constraint carves out.
		filtered := relational.NewDatabase()
		for _, tableName := range db.Tables() {
			tbl, _ := db.Table(tableName)
			sub := tableConstraints(cs, tbl)
			f, err := relational.HorizontalFragment(tbl, tableName, sub)
			if err != nil {
				return nil, nil, err
			}
			if err := filtered.Attach(f); err != nil {
				return nil, nil, err
			}
		}
		db = filtered
	}
	return db, &frag, nil
}

// tableConstraints projects a constraint set onto the atoms that actually
// reference one table's columns, so a patient-age constraint doesn't empty
// the diagnosis table.
func tableConstraints(cs *constraint.Set, tbl *relational.Table) *constraint.Set {
	out := constraint.NewSet()
	name := strings.ToLower(tbl.Name())
	for _, a := range cs.Atoms() {
		field := a.Field
		if i := strings.LastIndex(field, "."); i >= 0 {
			if field[:i] != name {
				continue
			}
		}
		col := field
		if i := strings.LastIndex(field, "."); i >= 0 {
			col = field[i+1:]
		}
		if tbl.Schema().ColIndex(col) >= 0 {
			out.Add(a)
		}
	}
	return out
}
