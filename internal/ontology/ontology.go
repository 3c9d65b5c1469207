// Package ontology implements InfoSleuth's common service ontology: the
// shared vocabulary agents use to describe themselves to brokers and that
// brokers reason over when matchmaking (Sections 2.1, 2.3 and 3.3 of the
// paper).
//
// It has three parts:
//
//   - Domain ontologies (e.g. "healthcare") with classes, slots, keys and a
//     class hierarchy — the vocabulary of *what information* an agent holds.
//   - The capability hierarchy (Figure 2) — the vocabulary of *what
//     operations* an agent can perform, with containment ("an agent that
//     does all query processing certainly does relational query
//     processing").
//   - Advertisements and broker queries — structured descriptions covering
//     the syntactic knowledge of Figure 8, the semantic knowledge of
//     Figure 9, and the multibroker extensions of Figure 13 — plus the
//     Match relation the broker's reasoning engine implements.
package ontology

import (
	"fmt"
	"sort"
	"strings"

	"infosleuth/internal/constraint"
)

// AgentType classifies an agent in the service ontology ("agent type" in
// Figure 8).
type AgentType string

// The agent types appearing in the paper's architecture (Figure 1).
const (
	TypeUser     AgentType = "user"
	TypeBroker   AgentType = "broker"
	TypeResource AgentType = "resource"
	TypeQuery    AgentType = "query" // multiresource query agents
	TypeMonitor  AgentType = "monitor"
	TypeOntology AgentType = "ontology"
	TypeAny      AgentType = ""
)

// Class describes one class in a domain ontology: its slots, key slot, and
// optional superclass (IsA) for class-hierarchy reasoning.
type Class struct {
	Name  string
	Slots []string
	Key   string
	// IsA names the superclass, or "" for a root class.
	IsA string
}

// Ontology is a named domain model: a set of classes with a subclass
// hierarchy. InfoSleuth communities service requests over a set of common
// ontologies such as "healthcare".
type Ontology struct {
	Name    string
	classes map[string]*Class
	// descendants lists each class's transitive subclasses, kept by
	// AddClass so that expanding a class costs a map lookup.
	descendants map[string][]string
}

// New returns an empty ontology with the given name.
func New(name string) *Ontology {
	return &Ontology{Name: name, classes: make(map[string]*Class), descendants: make(map[string][]string)}
}

// AddClass registers a class. It returns an error if the class is already
// defined or its superclass is unknown.
func (o *Ontology) AddClass(c Class) error {
	if _, dup := o.classes[c.Name]; dup {
		return fmt.Errorf("ontology %s: class %q already defined", o.Name, c.Name)
	}
	if c.IsA != "" {
		if _, ok := o.classes[c.IsA]; !ok {
			return fmt.Errorf("ontology %s: class %q declares unknown superclass %q", o.Name, c.Name, c.IsA)
		}
	}
	cp := c
	cp.Slots = append([]string(nil), c.Slots...)
	o.classes[c.Name] = &cp
	for cur := c.IsA; cur != ""; cur = o.classes[cur].IsA {
		o.descendants[cur] = append(o.descendants[cur], c.Name)
	}
	return nil
}

// MustAddClass is AddClass, panicking on error; for static ontology tables.
func (o *Ontology) MustAddClass(c Class) {
	if err := o.AddClass(c); err != nil {
		panic(err)
	}
}

// Class returns a class by name.
func (o *Ontology) Class(name string) (*Class, bool) {
	c, ok := o.classes[name]
	return c, ok
}

// Classes returns all class names in sorted order.
func (o *Ontology) Classes() []string {
	out := make([]string, 0, len(o.classes))
	for name := range o.classes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ClassDefs returns every class definition, superclasses before their
// subclasses (so the list can rebuild the ontology), ties broken by name.
// Ontology agents serve domain models to other agents in this form.
func (o *Ontology) ClassDefs() []Class {
	depth := func(name string) int {
		d := 0
		for cur := name; cur != ""; {
			c, ok := o.classes[cur]
			if !ok {
				break
			}
			cur = c.IsA
			d++
		}
		return d
	}
	names := o.Classes()
	sort.SliceStable(names, func(i, j int) bool {
		di, dj := depth(names[i]), depth(names[j])
		if di != dj {
			return di < dj
		}
		return names[i] < names[j]
	})
	out := make([]Class, 0, len(names))
	for _, n := range names {
		c := o.classes[n]
		cp := *c
		cp.Slots = append([]string(nil), c.Slots...)
		out = append(out, cp)
	}
	return out
}

// FromClasses rebuilds an ontology from class definitions (the inverse of
// ClassDefs; definitions may arrive in any order).
func FromClasses(name string, classes []Class) (*Ontology, error) {
	o := New(name)
	pending := append([]Class(nil), classes...)
	for len(pending) > 0 {
		progressed := false
		var rest []Class
		for _, c := range pending {
			if c.IsA == "" {
				if err := o.AddClass(c); err != nil {
					return nil, err
				}
				progressed = true
				continue
			}
			if _, ok := o.classes[c.IsA]; ok {
				if err := o.AddClass(c); err != nil {
					return nil, err
				}
				progressed = true
				continue
			}
			rest = append(rest, c)
		}
		if !progressed {
			return nil, fmt.Errorf("ontology %s: unresolvable superclass references in %d classes", name, len(rest))
		}
		pending = rest
	}
	return o, nil
}

// IsSubclassOf reports whether sub is super or a (transitive) subclass of
// super.
func (o *Ontology) IsSubclassOf(sub, super string) bool {
	for cur := sub; cur != ""; {
		if cur == super {
			return true
		}
		c, ok := o.classes[cur]
		if !ok {
			return false
		}
		cur = c.IsA
	}
	return false
}

// Descendants returns the transitive subclasses of a class (every other
// name for which IsSubclassOf(name, class) holds), or nil for a leaf or an
// unknown class. The slice is the ontology's own: callers must not modify
// it.
func (o *Ontology) Descendants(class string) []string { return o.descendants[class] }

// SlotsOf returns the slots of a class including those inherited from its
// superclasses, in declaration order (superclass slots first), without
// duplicates.
func (o *Ontology) SlotsOf(name string) []string {
	var chain []*Class
	for cur := name; cur != ""; {
		c, ok := o.classes[cur]
		if !ok {
			break
		}
		chain = append(chain, c)
		cur = c.IsA
	}
	seen := make(map[string]bool)
	var out []string
	for i := len(chain) - 1; i >= 0; i-- {
		for _, s := range chain[i].Slots {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// KeyOf returns the key slot of a class, walking up the hierarchy if the
// class itself declares none.
func (o *Ontology) KeyOf(name string) string {
	for cur := name; cur != ""; {
		c, ok := o.classes[cur]
		if !ok {
			return ""
		}
		if c.Key != "" {
			return c.Key
		}
		cur = c.IsA
	}
	return ""
}

// Fragment describes the portion of a domain ontology that an agent serves:
// which classes (optionally restricted to a slot subset, for vertical
// fragmentation) and which data constraints restrict the instances held
// ("patients between the age of 43 and 75").
type Fragment struct {
	// Ontology names the domain model, e.g. "healthcare".
	Ontology string
	// Classes lists the supported classes.
	Classes []string
	// Slots optionally restricts the visible slots per class; a class
	// absent from the map exposes all its slots.
	Slots map[string][]string
	// Constraints restrict the instances held. Nil means unrestricted.
	Constraints *constraint.Set
}

// HasClass reports whether the fragment serves the named class.
func (f *Fragment) HasClass(class string) bool {
	for _, c := range f.Classes {
		if c == class {
			return true
		}
	}
	return false
}

// SlotsFor returns the slots the fragment exposes for a class, given the
// full ontology; nil ontology falls back to the declared restriction only.
func (f *Fragment) SlotsFor(class string, o *Ontology) []string {
	if f.Slots != nil {
		if s, ok := f.Slots[class]; ok {
			return s
		}
	}
	if o != nil {
		return o.SlotsOf(class)
	}
	return nil
}

// String renders a compact description of the fragment.
func (f *Fragment) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s", f.Ontology, strings.Join(f.Classes, ", "))
	if f.Constraints.Len() > 0 {
		fmt.Fprintf(&b, " | %s", f.Constraints)
	}
	b.WriteString(")")
	return b.String()
}

// Properties are the pragmatic agent properties of Figure 9: adaptivity and
// processing statistics.
type Properties struct {
	Mobile    bool
	Cloneable bool
	// EstimatedResponseSec is the agent's advertised estimated response
	// time in seconds ("can return the answer within 5 seconds"); 0 means
	// unadvertised.
	EstimatedResponseSec float64
	// ThroughputQPS is the advertised processing throughput; 0 means
	// unadvertised.
	ThroughputQPS float64
	// EstimatedRows is the advertised total row count across the agent's
	// served class fragments — a sizing hint the MRQ's federated planner
	// uses to pick the build side of a semi-join. 0 means unadvertised.
	EstimatedRows int64
}

// BrokerInfo is the multibroker service-ontology extension of Figure 13,
// present only on broker advertisements.
type BrokerInfo struct {
	// Community names the agent community the broker serves.
	Community string
	// Consortia lists the broker consortia this broker belongs to.
	Consortia []string
	// AgentTypes lists the types of agents held in the broker's
	// repository (its specialization by agent type).
	AgentTypes []AgentType
	// Specializations lists the ontologies the broker specializes in;
	// empty means general-purpose.
	Specializations []string
	// SpecializationClasses optionally narrows the specialization to
	// specific ontology classes (Figure 13's "restrictions on
	// ontologies"); empty means all classes of the specialization
	// ontologies.
	SpecializationClasses []string
	// ConversationTypes lists broker conversation types supported
	// (e.g. delegation, forwarding).
	ConversationTypes []string
}

// Advertisement is the full self-description an agent sends to a broker:
// the syntactic knowledge of Figure 8, the semantic knowledge of Figure 9,
// and for brokers the Figure 13 extensions.
type Advertisement struct {
	// Agent name and location.
	Name    string
	Address string
	Type    AgentType

	// Syntactic knowledge.
	CommLanguages    []string // e.g. "KQML"
	ContentLanguages []string // e.g. "SQL 2.0", "LDL"

	// Semantic knowledge: capabilities.
	Conversations []string // e.g. "ask-all", "subscribe", "update"
	Capabilities  []string // e.g. "relational query processing"

	// Semantic knowledge: content.
	Content []Fragment

	// Pragmatic properties.
	Properties Properties

	// Broker, when non-nil, carries the multibroker extensions.
	Broker *BrokerInfo
}

// Validate checks structural well-formedness: a name, a type, and no
// fragment without an ontology name.
func (ad *Advertisement) Validate() error {
	if ad.Name == "" {
		return fmt.Errorf("advertisement missing agent name")
	}
	if ad.Type == TypeAny {
		return fmt.Errorf("advertisement for %q missing agent type", ad.Name)
	}
	for i, f := range ad.Content {
		if f.Ontology == "" {
			return fmt.Errorf("advertisement for %q: content fragment %d missing ontology name", ad.Name, i)
		}
		if len(f.Classes) == 0 {
			return fmt.Errorf("advertisement for %q: content fragment %d lists no classes", ad.Name, i)
		}
	}
	if ad.Type == TypeBroker && ad.Broker == nil {
		return fmt.Errorf("advertisement for broker %q missing broker info", ad.Name)
	}
	return nil
}

// Clone returns a deep copy of the advertisement.
func (ad *Advertisement) Clone() *Advertisement {
	cp := *ad
	cp.CommLanguages = append([]string(nil), ad.CommLanguages...)
	cp.ContentLanguages = append([]string(nil), ad.ContentLanguages...)
	cp.Conversations = append([]string(nil), ad.Conversations...)
	cp.Capabilities = append([]string(nil), ad.Capabilities...)
	cp.Content = make([]Fragment, len(ad.Content))
	for i, f := range ad.Content {
		nf := f
		nf.Classes = append([]string(nil), f.Classes...)
		if f.Slots != nil {
			nf.Slots = make(map[string][]string, len(f.Slots))
			for k, v := range f.Slots {
				nf.Slots[k] = append([]string(nil), v...)
			}
		}
		nf.Constraints = f.Constraints.Clone()
		cp.Content[i] = nf
	}
	if ad.Broker != nil {
		nb := *ad.Broker
		nb.Consortia = append([]string(nil), ad.Broker.Consortia...)
		nb.AgentTypes = append([]AgentType(nil), ad.Broker.AgentTypes...)
		nb.Specializations = append([]string(nil), ad.Broker.Specializations...)
		nb.SpecializationClasses = append([]string(nil), ad.Broker.SpecializationClasses...)
		nb.ConversationTypes = append([]string(nil), ad.Broker.ConversationTypes...)
		cp.Broker = &nb
	}
	return &cp
}

// String renders a one-line summary.
func (ad *Advertisement) String() string {
	return fmt.Sprintf("%s[%s]@%s", ad.Name, ad.Type, ad.Address)
}
