// Package infosleuth is a from-scratch Go reproduction of the InfoSleuth
// semantic multibrokering system ("Scalable Semantic Brokering over Dynamic
// Heterogeneous Data Sources in InfoSleuth", Nodine, Bohrer, Ngu &
// Cassandra, ICDE 1999).
//
// It provides:
//
//   - The service ontology: agent Advertisements and Queries combining the
//     syntactic knowledge of the paper's Figure 8 with the semantic
//     knowledge of Figure 9, over domain ontologies and the Figure 2
//     capability hierarchy.
//   - Constraint reasoning: advertised data constraints ("patient age
//     between 43 and 75") matched by overlap against query constraints.
//   - Broker agents with a matchmaking engine (a compiled matcher and an
//     LDL-style Datalog rule engine implementing the same relation), agent
//     liveness pings, and the peer-to-peer multibroker protocol: redundant
//     advertising, broker consortia, and inter-broker search with hop
//     counts, follow options and loop prevention.
//   - The full agent community of the paper's walkthrough: resource agents
//     over an embedded relational engine speaking a SQL 2.0 subset,
//     multiresource query agents that discover resources through brokers
//     and assemble horizontal/vertical fragments, and user agents.
//   - Transports: in-process (tests, experiments) and TCP with
//     length-prefixed JSON KQML frames (the cmd/ executables).
//   - The discrete-event agent simulator of the paper's Section 5.2 and an
//     experiment harness regenerating every table and figure of the
//     evaluation.
//
// # Quickstart
//
//	c, err := infosleuth.NewCommunity(infosleuth.CommunityConfig{Brokers: 2})
//	// add resources, an MRQ agent, a user agent...
//	res, err := user.Submit(ctx, "SELECT * FROM C2")
//
// See examples/ for complete programs and DESIGN.md for the system map.
package infosleuth

import (
	"infosleuth/internal/broker"
	"infosleuth/internal/community"
	"infosleuth/internal/constraint"
	"infosleuth/internal/experiments"
	"infosleuth/internal/fleet"
	"infosleuth/internal/kqml"
	"infosleuth/internal/miner"
	"infosleuth/internal/monitor"
	"infosleuth/internal/mrq"
	"infosleuth/internal/ontagent"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resource"
	"infosleuth/internal/sim"
	"infosleuth/internal/sqlparse"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/recorder"
	"infosleuth/internal/transport"
	"infosleuth/internal/useragent"
)

// Service-ontology types (Sections 2.1 and 2.3 of the paper).
type (
	// Advertisement is an agent's self-description sent to brokers.
	Advertisement = ontology.Advertisement
	// Query is a broker query: a partially specified advertisement
	// pattern plus search-policy controls.
	Query = ontology.Query
	// Fragment describes the portion of a domain ontology an agent
	// serves.
	Fragment = ontology.Fragment
	// Properties are pragmatic agent properties (mobility, estimated
	// response time).
	Properties = ontology.Properties
	// BrokerInfo is the multibroker service-ontology extension
	// (Figure 13).
	BrokerInfo = ontology.BrokerInfo
	// AgentType classifies agents (resource, query, user, broker...).
	AgentType = ontology.AgentType
	// World bundles the capability hierarchy and the domain ontologies
	// a matcher reasons with.
	World = ontology.World
	// Ontology is one domain model (classes, slots, subclass links).
	Ontology = ontology.Ontology
	// CapabilityHierarchy is the Figure 2 containment DAG.
	CapabilityHierarchy = ontology.CapabilityHierarchy
	// SearchPolicy is the inter-broker search policy (hop count and
	// follow option, Section 4.3).
	SearchPolicy = ontology.SearchPolicy
	// FollowOption selects which repositories an inter-broker search
	// consults.
	FollowOption = ontology.FollowOption
)

// Agent types.
const (
	TypeUser     = ontology.TypeUser
	TypeBroker   = ontology.TypeBroker
	TypeResource = ontology.TypeResource
	TypeQuery    = ontology.TypeQuery
)

// Follow options.
const (
	FollowLocal      = ontology.FollowLocal
	FollowAll        = ontology.FollowAll
	FollowUntilMatch = ontology.FollowUntilMatch
)

// NewWorld returns a World with the Figure 2 capability hierarchy and the
// given domain ontologies.
func NewWorld(onts ...*Ontology) *World { return ontology.NewWorld(onts...) }

// HealthcareOntology returns the Section 2.4 healthcare domain model.
func HealthcareOntology() *Ontology { return ontology.Healthcare() }

// GenericOntology returns the C1..C6 toy domain model of Figures 5-7.
func GenericOntology() *Ontology { return ontology.Generic() }

// Match reports whether an advertisement satisfies a query; an empty
// reason means it matched.
func Match(w *World, ad *Advertisement, q *Query) ontology.MatchReason {
	return ontology.Match(w, ad, q)
}

// Constraint reasoning.
type (
	// ConstraintSet is a conjunction of data constraints.
	ConstraintSet = constraint.Set
	// Value is a typed constant (number or string).
	Value = constraint.Value
)

// ParseConstraint reads the paper's textual constraint form, e.g.
// "(patient.age between 25 and 65) AND (patient.diagnosis_code = '40W')".
func ParseConstraint(s string) (*ConstraintSet, error) { return constraint.Parse(s) }

// MustParseConstraint is ParseConstraint, panicking on error.
func MustParseConstraint(s string) *ConstraintSet { return constraint.MustParse(s) }

// Num and Str build typed values.
var (
	Num = constraint.Num
	Str = constraint.Str
)

// Brokers and agents.
type (
	// Broker is an InfoSleuth broker agent.
	Broker = broker.Broker
	// BrokerConfig configures a broker.
	BrokerConfig = broker.Config
	// ResourceAgent proxies a relational repository.
	ResourceAgent = resource.Agent
	// ResourceConfig configures a resource agent.
	ResourceConfig = resource.Config
	// MRQAgent is a multiresource query agent.
	MRQAgent = mrq.Agent
	// MRQConfig configures an MRQ agent.
	MRQConfig = mrq.Config
	// UserAgent proxies a user.
	UserAgent = useragent.Agent
	// UserConfig configures a user agent.
	UserConfig = useragent.Config
	// MonitorAgent registers standing queries and collects update
	// notifications (Figure 1's monitor agent).
	MonitorAgent = monitor.Agent
	// MonitorConfig configures a monitor agent.
	MonitorConfig = monitor.Config
	// MonitorEvent is one update notification a monitor received.
	MonitorEvent = monitor.Event
	// MonitorOption configures a monitor agent beyond its Config.
	MonitorOption = monitor.Option
	// WatchHandle is one active standing query at one resource; Cancel
	// tears it down.
	WatchHandle = monitor.WatchHandle
	// OntologyAgent serves domain models to the community (Figure 1's
	// ontology agent).
	OntologyAgent = ontagent.Agent
	// OntologyAgentConfig configures an ontology agent.
	OntologyAgentConfig = ontagent.Config
	// MiningAgent analyzes gathered information with statistical data
	// mining or logical inferencing (Figure 1's data mining agent).
	MiningAgent = miner.Agent
	// MiningConfig configures a mining agent.
	MiningConfig = miner.Config
	// MiningRequest is one analysis task.
	MiningRequest = miner.Request
	// MiningReport is an analysis result.
	MiningReport = miner.Report
)

// Mining analysis kinds.
const (
	MineDeviation = miner.KindDeviation
	MineTrend     = miner.KindTrend
	MineDatalog   = miner.KindDatalog
)

// NewBroker creates a broker agent.
func NewBroker(cfg BrokerConfig) (*Broker, error) { return broker.New(cfg) }

// NewResourceAgent creates a resource agent.
func NewResourceAgent(cfg ResourceConfig) (*ResourceAgent, error) { return resource.New(cfg) }

// NewMRQAgent creates a multiresource query agent.
func NewMRQAgent(cfg MRQConfig) (*MRQAgent, error) { return mrq.New(cfg) }

// NewUserAgent creates a user agent.
func NewUserAgent(cfg UserConfig) (*UserAgent, error) { return useragent.New(cfg) }

// NewMonitorAgent creates a monitor agent.
func NewMonitorAgent(cfg MonitorConfig, opts ...MonitorOption) (*MonitorAgent, error) {
	return monitor.New(cfg, opts...)
}

// NewOntologyAgent creates an ontology agent.
func NewOntologyAgent(cfg OntologyAgentConfig) (*OntologyAgent, error) { return ontagent.New(cfg) }

// NewMiningAgent creates a data mining agent.
func NewMiningAgent(cfg MiningConfig) (*MiningAgent, error) { return miner.New(cfg) }

// Communities.
type (
	// Community wires brokers and agents into a running system.
	Community = community.Community
	// CommunityConfig configures a community.
	CommunityConfig = community.Config
	// ResourceSpec describes a resource agent to add to a community.
	ResourceSpec = community.ResourceSpec
)

// Community profiles (CommunityConfig.Profile).
const (
	// ProfileProduction, the zero value, builds the system the daemons
	// run: match cache, parallel fan-out, planner, CDC notifications.
	ProfileProduction = community.Production
	// ProfilePaperFaithful builds the paper's system: uncached matching
	// over a flat repository, serial unplanned gather, single-shot calls.
	ProfilePaperFaithful = community.PaperFaithful
)

// NewCommunity builds and starts the brokers of a community.
func NewCommunity(cfg CommunityConfig) (*Community, error) { return community.New(cfg) }

// Observability.
type (
	// ConversationTrace is a completed traced conversation: the trace ID
	// plus one span per agent hop (Section 2.3's conversation, made
	// visible). Returned by QueryBrokersTraced on any agent.
	ConversationTrace = kqml.Trace
	// TraceSpan is one hop of a traced conversation.
	TraceSpan = kqml.TraceSpan
	// MetricsServer serves the process-wide metrics registry over HTTP
	// (/metrics in Prometheus text format, /metrics.json, /healthz).
	MetricsServer = telemetry.Server
	// FlightRecorder collects completed conversation spans into a bounded
	// ring and assembles them into per-trace trees; install one with
	// InstallFlightRecorder.
	FlightRecorder = recorder.Recorder
	// TraceTree is a trace assembled into parent/child structure, as
	// served at /traces/{id} and rendered by its Format method.
	TraceTree = recorder.Tree
	// ExplainReport is a trace's decision provenance — matchmaking,
	// forwarding, pushdown, fetch and failover events — grouped for
	// "why did I get this result?" reporting, as served at
	// /traces/{id}/explain and rendered by its Format method.
	ExplainReport = recorder.Explain
	// FleetAgent is the community-watching monitor agent: it discovers
	// members through the brokers, polls each one's monitor-snapshot
	// conversation, and renders the fleet dashboard served at /fleet.
	// Add one to a community with Community.AddFleet.
	FleetAgent = fleet.Agent
	// FleetMemberStatus is one member's row in the fleet view.
	FleetMemberStatus = fleet.MemberStatus
)

// ServeMetrics exposes the process-wide telemetry registry at addr
// (e.g. ":9090"); close the returned server to stop.
func ServeMetrics(addr string) (*MetricsServer, error) {
	return telemetry.Serve(addr, telemetry.Default)
}

// InstallFlightRecorder creates a flight recorder and installs it
// process-wide as the one span recorder: every traced conversation from
// then on records its timing spans and its decisions into it through the
// same hook. Use
// UserAgent.SubmitTraced (or telemetry.WithTraceID on a context) to start
// a traced conversation, then read the assembled tree with the recorder's
// Trace method or the full decision report with its Explain method.
func InstallFlightRecorder() *FlightRecorder {
	rec := recorder.New()
	telemetry.SetSpanRecorder(rec)
	return rec
}

// Relational storage and SQL.
type (
	// Database is the in-memory relational store behind resource agents.
	Database = relational.Database
	// Table is one relation.
	RelTable = relational.Table
	// Schema describes a table.
	Schema = relational.Schema
	// Column describes one attribute.
	Column = relational.Column
	// Row is one tuple.
	Row = relational.Row
	// SQLResult is a query answer.
	SQLResult = sqlparse.Result
	// SQLSelect is a parsed SELECT statement.
	SQLSelect = sqlparse.Select
)

// Column types.
const (
	TypeNumber = relational.TypeNumber
	TypeString = relational.TypeString
)

// NewDatabase returns an empty relational database.
func NewDatabase() *Database { return relational.NewDatabase() }

// GenerateHealthcare fills a database with the synthetic healthcare domain.
func GenerateHealthcare(db *Database, patients int, seed int64) error {
	return relational.GenerateHealthcare(db, patients, seed)
}

// ParseSQL parses a statement in the supported SQL 2.0 subset.
func ParseSQL(s string) (*SQLSelect, error) { return sqlparse.Parse(s) }

// ExecuteSQL runs a parsed statement against a database.
func ExecuteSQL(db *Database, stmt *SQLSelect) (*SQLResult, error) {
	return sqlparse.Execute(db, stmt)
}

// Transports and messages.
type (
	// Transport moves KQML messages between agents.
	Transport = transport.Transport
	// InProcTransport is the in-process transport.
	InProcTransport = transport.InProc
	// TCPTransport is the TCP transport with length-prefixed JSON
	// frames.
	TCPTransport = transport.TCP
	// Message is one KQML message.
	Message = kqml.Message
)

// NewInProcTransport returns an empty in-process transport.
func NewInProcTransport() *InProcTransport { return transport.NewInProc() }

// Simulation (the paper's Section 5.2).
type (
	// SimConfig parameterizes a simulation run.
	SimConfig = sim.Config
	// SimMetrics are a run's measurements.
	SimMetrics = sim.Metrics
	// SimStrategy selects single/replicated/specialized brokering.
	SimStrategy = sim.Strategy
)

// Simulation strategies.
const (
	SimSingle      = sim.Single
	SimReplicated  = sim.Replicated
	SimSpecialized = sim.Specialized
)

// RunSimulation executes one simulation run.
func RunSimulation(cfg SimConfig) SimMetrics { return sim.Run(cfg) }

// RunSimulationAveraged averages several runs over consecutive seeds.
func RunSimulationAveraged(cfg SimConfig, runs int) SimMetrics { return sim.RunAveraged(cfg, runs) }

// Experiments (the paper's Section 5 tables and figures).
type (
	// ExperimentTable is a printable table result.
	ExperimentTable = experiments.Table
	// ExperimentFigure is a printable figure result.
	ExperimentFigure = experiments.Figure
	// LiveOptions tune the live-community experiments (Tables 3-4).
	LiveOptions = experiments.LiveOptions
	// SimOptions tune the simulation experiments (Figures 14-17,
	// Tables 5-6).
	SimOptions = experiments.SimOptions
)
