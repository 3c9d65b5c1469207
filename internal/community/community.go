// Package community wires complete InfoSleuth agent communities: broker
// consortia (Figure 11), resource agents over generated data, MRQ agents
// and user agents — on an in-process transport by default. The experiment
// harness and the examples build their topologies through it.
//
// A community is built in one of two profiles (see Profile): the system
// that ships, or the system the paper describes. Config.resolve is the
// only place that says what either one is.
package community

import (
	"context"
	"fmt"
	"time"

	"infosleuth/internal/broker"
	"infosleuth/internal/fleet"
	"infosleuth/internal/miner"
	"infosleuth/internal/monitor"
	"infosleuth/internal/mrq"
	"infosleuth/internal/ontagent"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resilience"
	"infosleuth/internal/resource"
	"infosleuth/internal/transport"
	"infosleuth/internal/useragent"
)

// Profile selects which system a community builds.
type Profile int

const (
	// Production, the zero value, is the system the daemons and the
	// benchmark run: whatever broker.New, mrq.New and resource.New do by
	// default (match cache on, parallel fragment fan-out, CDC
	// notifications), plus the federated planner that mrqd turns on.
	Production Profile = iota
	// PaperFaithful is the system of the paper, which the live Section 5
	// experiments measure: every broker query pays the full match over
	// the repository, the MRQ agent gathers fragments one at a time and
	// as they are, and calls are single-shot.
	PaperFaithful
)

// Config configures a community.
type Config struct {
	// Profile selects production (the zero value) or paper-faithful
	// behaviour for every broker and MRQ agent of the community.
	Profile Profile
	// Brokers is the number of brokers; they form one fully connected
	// consortium. Zero means 1.
	Brokers int
	// Transport overrides the message transport; nil uses a fresh
	// in-process transport.
	Transport transport.Transport
	// World supplies ontologies; nil uses generic + healthcare.
	World *ontology.World
	// BrokerOptions mutate each broker config before creation (index,
	// config).
	BrokerOptions func(i int, cfg *broker.Config)
	// CallTimeout for all agents; zero means 10 s.
	CallTimeout time.Duration
	// ResourceQueryDelayPerRow is the default per-row processing cost
	// applied to resources whose spec sets none.
	ResourceQueryDelayPerRow time.Duration
	// CallPolicy adds retries and per-peer circuit breakers to every
	// agent's and broker's outgoing calls. Nil keeps calls single-shot;
	// PaperFaithful accepts nothing else.
	CallPolicy *resilience.Policy
}

// resolve turns the profile into the broker and MRQ settings it stands
// for. New and AddMRQ fill in identity and wiring (names, transport,
// brokers, world) on copies of what it returns; nothing else in the
// package sets a field the two profiles disagree on.
func (cfg Config) resolve() (broker.Config, mrq.Config, error) {
	var (
		b broker.Config
		m mrq.Config
	)
	switch cfg.Profile {
	case Production:
		m.Planner = true
	case PaperFaithful:
		if cfg.CallPolicy != nil {
			return b, m, fmt.Errorf("community: the paper-faithful profile makes single-shot calls; CallPolicy must be nil")
		}
		b.DisableMatchCache = true // the LDL broker re-ran the match on every query
		m.MaxFanout = 1            // serial gather, in broker match order
		// m.Planner stays false: every fragment is fetched as it is.
	default:
		return b, m, fmt.Errorf("community: unknown profile %d", cfg.Profile)
	}
	return b, m, nil
}

// Community is a running set of agents.
type Community struct {
	Transport      transport.Transport
	World          *ontology.World
	Brokers        []*broker.Broker
	Resources      []*resource.Agent
	MRQs           []*mrq.Agent
	Users          []*useragent.Agent
	Monitors       []*monitor.Agent
	OntologyAgents []*ontagent.Agent
	Miners         []*miner.Agent
	Fleet          []*fleet.Agent

	cfg Config
	// mrqCfg is the profile's MRQ settings, resolved once in New.
	mrqCfg mrq.Config
}

// New builds and starts the brokers of a community.
func New(cfg Config) (*Community, error) {
	if cfg.Brokers <= 0 {
		cfg.Brokers = 1
	}
	if cfg.Transport == nil {
		cfg.Transport = transport.NewInProc()
	}
	if cfg.World == nil {
		cfg.World = ontology.NewWorld(ontology.Generic(), ontology.Healthcare())
	}
	brokerCfg, mrqCfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	c := &Community{Transport: cfg.Transport, World: cfg.World, cfg: cfg, mrqCfg: mrqCfg}
	for i := 0; i < cfg.Brokers; i++ {
		bcfg := brokerCfg
		bcfg.Name = fmt.Sprintf("Broker%d", i+1)
		bcfg.Transport = cfg.Transport
		bcfg.World = cfg.World
		bcfg.CallTimeout = cfg.CallTimeout
		bcfg.CallPolicy = cfg.CallPolicy
		bcfg.Consortia = []string{"consortium-1"}
		if cfg.BrokerOptions != nil {
			cfg.BrokerOptions(i, &bcfg)
		}
		b, err := broker.New(bcfg)
		if err != nil {
			return nil, err
		}
		if err := b.Start(); err != nil {
			return nil, err
		}
		c.Brokers = append(c.Brokers, b)
	}
	// Full interconnection.
	for i, b := range c.Brokers {
		var addrs []string
		for j, other := range c.Brokers {
			if i != j {
				addrs = append(addrs, other.Addr())
			}
		}
		if len(addrs) > 0 {
			if err := b.JoinConsortium(context.Background(), addrs...); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// BrokerAddrs returns all broker addresses.
func (c *Community) BrokerAddrs() []string {
	out := make([]string, len(c.Brokers))
	for i, b := range c.Brokers {
		out[i] = b.Addr()
	}
	return out
}

// ResourceSpec describes one resource agent to add.
type ResourceSpec struct {
	// Name is the agent name.
	Name string
	// DB is the backing database; required.
	DB *relational.Database
	// Fragment is the advertised ontology fragment; required.
	Fragment ontology.Fragment
	// Brokers lists the broker addresses to advertise to; nil means all
	// brokers with redundancy 1 (first succeeds), a single entry pins
	// the agent to one broker (the specialization experiments).
	Brokers []string
	// Redundancy overrides the advertising redundancy; zero means 1.
	Redundancy int
	// EstimatedResponseSec is the advertised property.
	EstimatedResponseSec float64
	// QueryDelayPerRow models resource processing cost.
	QueryDelayPerRow time.Duration
}

// AddResource creates, starts and advertises a resource agent.
func (c *Community) AddResource(ctx context.Context, spec ResourceSpec) (*resource.Agent, error) {
	brokers := spec.Brokers
	if brokers == nil {
		brokers = c.BrokerAddrs()
	}
	if spec.QueryDelayPerRow == 0 {
		spec.QueryDelayPerRow = c.cfg.ResourceQueryDelayPerRow
	}
	a, err := resource.New(resource.Config{
		Name:                 spec.Name,
		Transport:            c.Transport,
		KnownBrokers:         brokers,
		Redundancy:           spec.Redundancy,
		CallTimeout:          c.cfg.CallTimeout,
		DB:                   spec.DB,
		Fragment:             spec.Fragment,
		World:                c.World,
		EstimatedResponseSec: spec.EstimatedResponseSec,
		QueryDelayPerRow:     spec.QueryDelayPerRow,
		CallPolicy:           c.cfg.CallPolicy,
	})
	if err != nil {
		return nil, err
	}
	if err := a.Start(); err != nil {
		return nil, err
	}
	if _, err := a.Advertise(ctx); err != nil {
		return nil, fmt.Errorf("community: advertising %s: %w", spec.Name, err)
	}
	c.Resources = append(c.Resources, a)
	return a, nil
}

// AddMRQ creates, starts and advertises a multiresource query agent over
// the given ontology. specialty optionally restricts it to specific
// classes.
func (c *Community) AddMRQ(ctx context.Context, name, ontologyName string, specialty ...string) (*mrq.Agent, error) {
	mcfg := c.mrqCfg
	mcfg.Name = name
	mcfg.Transport = c.Transport
	mcfg.KnownBrokers = c.BrokerAddrs()
	mcfg.Redundancy = len(c.Brokers)
	mcfg.CallTimeout = c.cfg.CallTimeout
	mcfg.CallPolicy = c.cfg.CallPolicy
	mcfg.RandomizeBrokerChoice = true
	mcfg.World = c.World
	mcfg.Ontology = ontologyName
	mcfg.Specialty = specialty
	mcfg.PushConstraints = true
	a, err := mrq.New(mcfg)
	if err != nil {
		return nil, err
	}
	if err := a.Start(); err != nil {
		return nil, err
	}
	if _, err := a.Advertise(ctx); err != nil {
		return nil, fmt.Errorf("community: advertising %s: %w", name, err)
	}
	c.MRQs = append(c.MRQs, a)
	return a, nil
}

// AddUser creates, starts and advertises a user agent.
func (c *Community) AddUser(ctx context.Context, name, ontologyName string) (*useragent.Agent, error) {
	a, err := useragent.New(useragent.Config{
		Name:                  name,
		Transport:             c.Transport,
		KnownBrokers:          c.BrokerAddrs(),
		Redundancy:            len(c.Brokers),
		CallTimeout:           c.cfg.CallTimeout,
		RandomizeBrokerChoice: true,
		Ontology:              ontologyName,
		CallPolicy:            c.cfg.CallPolicy,
	})
	if err != nil {
		return nil, err
	}
	if err := a.Start(); err != nil {
		return nil, err
	}
	if _, err := a.Advertise(ctx); err != nil {
		return nil, fmt.Errorf("community: advertising %s: %w", name, err)
	}
	c.Users = append(c.Users, a)
	return a, nil
}

// AddMonitor creates, starts and advertises a monitor agent over the
// given ontology.
func (c *Community) AddMonitor(ctx context.Context, name, ontologyName string) (*monitor.Agent, error) {
	a, err := monitor.New(monitor.Config{
		Name:         name,
		Transport:    c.Transport,
		KnownBrokers: c.BrokerAddrs(),
		Redundancy:   len(c.Brokers),
		CallTimeout:  c.cfg.CallTimeout,
		Ontology:     ontologyName,
		CallPolicy:   c.cfg.CallPolicy,
	})
	if err != nil {
		return nil, err
	}
	if err := a.Start(); err != nil {
		return nil, err
	}
	if _, err := a.Advertise(ctx); err != nil {
		return nil, fmt.Errorf("community: advertising %s: %w", name, err)
	}
	c.Monitors = append(c.Monitors, a)
	return a, nil
}

// AddMiner creates, starts and advertises a data mining agent over the
// given ontology.
func (c *Community) AddMiner(ctx context.Context, name, ontologyName string) (*miner.Agent, error) {
	a, err := miner.New(miner.Config{
		Name:         name,
		Transport:    c.Transport,
		KnownBrokers: c.BrokerAddrs(),
		Redundancy:   len(c.Brokers),
		CallTimeout:  c.cfg.CallTimeout,
		Ontology:     ontologyName,
		CallPolicy:   c.cfg.CallPolicy,
	})
	if err != nil {
		return nil, err
	}
	if err := a.Start(); err != nil {
		return nil, err
	}
	if _, err := a.Advertise(ctx); err != nil {
		return nil, fmt.Errorf("community: advertising %s: %w", name, err)
	}
	c.Miners = append(c.Miners, a)
	return a, nil
}

// AddFleet creates, starts and advertises a fleet monitor agent: the
// telemetry watcher of the observability layer, distinct from the
// paper's subscription monitor (AddMonitor). It does not poll on its
// own — callers drive Discover/PollOnce (or StartPolling) explicitly.
func (c *Community) AddFleet(ctx context.Context, name string) (*fleet.Agent, error) {
	a, err := fleet.New(fleet.Config{
		Name:         name,
		Transport:    c.Transport,
		KnownBrokers: c.BrokerAddrs(),
		Redundancy:   len(c.Brokers),
		CallTimeout:  c.cfg.CallTimeout,
		CallPolicy:   c.cfg.CallPolicy,
	})
	if err != nil {
		return nil, err
	}
	if err := a.Start(); err != nil {
		return nil, err
	}
	if _, err := a.Advertise(ctx); err != nil {
		return nil, fmt.Errorf("community: advertising %s: %w", name, err)
	}
	c.Fleet = append(c.Fleet, a)
	return a, nil
}

// AddOntologyAgent creates, starts and advertises an ontology agent
// serving the community's world ontologies.
func (c *Community) AddOntologyAgent(ctx context.Context, name string) (*ontagent.Agent, error) {
	var onts []*ontology.Ontology
	for _, o := range c.World.Ontologies {
		onts = append(onts, o)
	}
	a, err := ontagent.New(ontagent.Config{
		Name:         name,
		Transport:    c.Transport,
		KnownBrokers: c.BrokerAddrs(),
		CallTimeout:  c.cfg.CallTimeout,
		Ontologies:   onts,
		CallPolicy:   c.cfg.CallPolicy,
	})
	if err != nil {
		return nil, err
	}
	if err := a.Start(); err != nil {
		return nil, err
	}
	if _, err := a.Advertise(ctx); err != nil {
		return nil, fmt.Errorf("community: advertising %s: %w", name, err)
	}
	c.OntologyAgents = append(c.OntologyAgents, a)
	return a, nil
}

// Close stops every agent and broker.
func (c *Community) Close() {
	for _, a := range c.Fleet {
		a.Stop()
	}
	for _, a := range c.Miners {
		a.Stop()
	}
	for _, a := range c.Monitors {
		a.Stop()
	}
	for _, a := range c.OntologyAgents {
		a.Stop()
	}
	for _, a := range c.Users {
		a.Stop()
	}
	for _, a := range c.MRQs {
		a.Stop()
	}
	for _, a := range c.Resources {
		a.Stop()
	}
	for _, b := range c.Brokers {
		b.Stop()
	}
}
