package daemon

import (
	"flag"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"infosleuth/internal/telemetry"
	"infosleuth/internal/transport"
)

func parse(t *testing.T, args ...string) *Options {
	t.Helper()
	var o Options
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &o
}

func TestDefaultFlagsYieldNilPolicy(t *testing.T) {
	if p := parse(t).CallPolicy(); p != nil {
		t.Errorf("default flags built a policy: %+v", p)
	}
}

func TestResilienceFlagsBuildPolicy(t *testing.T) {
	cases := [][]string{
		{"-retry-max-attempts", "3"},
		{"-breaker-threshold", "2"},
		{"-retry-max-attempts", "3", "-breaker-threshold", "2", "-retry-base-delay", "5ms"},
	}
	for _, args := range cases {
		if parse(t, args...).CallPolicy() == nil {
			t.Errorf("args %v built no policy", args)
		}
	}
}

func TestServeTelemetryDisabledIsNoOp(t *testing.T) {
	o := parse(t)
	stop, err := o.ServeTelemetry(slog.New(slog.NewTextHandler(io.Discard, nil)), nil)
	if err != nil {
		t.Fatal(err)
	}
	stop() // must not panic
}

func TestObservabilityFlags(t *testing.T) {
	o := parse(t, "-slo", "mrq.run=25ms:0.05", "-fleet", "-fleet-interval", "2s")
	if o.SLO != "mrq.run=25ms:0.05" {
		t.Errorf("SLO = %q", o.SLO)
	}
	if !o.Fleet {
		t.Error("Fleet not set")
	}
	if o.FleetInterval != 2*time.Second {
		t.Errorf("FleetInterval = %v", o.FleetInterval)
	}
}

func TestServeTelemetryBadSLOSpec(t *testing.T) {
	// ServeTelemetry installs the global recorder before it parses -slo;
	// put it back so the failure path leaves no observer behind.
	defer telemetry.SetSpanRecorder(telemetry.SetSpanRecorder(nil))
	o := parse(t, "-metrics-addr", "127.0.0.1:0", "-slo", "mrq.run=banana")
	stop, err := o.ServeTelemetry(slog.New(slog.NewTextHandler(io.Discard, nil)), nil)
	if err == nil {
		stop()
		t.Fatal("bad -slo spec accepted")
	}
}

func TestStartFleetDefaultsTCPAddress(t *testing.T) {
	// The daemons pass a bare &transport.TCP{} with no listen address;
	// StartFleet must default it to an ephemeral loopback port rather
	// than fail the monitor agent's Listen (regression: brokerd -fleet
	// died with `TCP transport requires tcp:// address, got ""`).
	o := parse(t, "-fleet", "-fleet-interval", "1h")
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	fa, stop, err := o.StartFleet(logger, FleetConfig{
		Owner: "testd", Transport: &transport.TCP{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if fa == nil {
		t.Fatal("StartFleet returned no agent")
	}
	// Once the monitor is up the /fleet handler serves it.
	rr := httptest.NewRecorder()
	o.fleetHandler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/fleet", nil))
	if rr.Code != http.StatusOK {
		t.Errorf("status = %d, want %d", rr.Code, http.StatusOK)
	}
}

func TestFleetHandlerBeforeStartFleet(t *testing.T) {
	// /fleet is mounted at ServeTelemetry time, before the daemon's
	// transport (and thus the monitor agent) exists; until StartFleet runs
	// the handler must answer 503 rather than panic.
	o := parse(t, "-fleet")
	rr := httptest.NewRecorder()
	o.fleetHandler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/fleet", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want %d", rr.Code, http.StatusServiceUnavailable)
	}
}
