package ontology

import (
	"fmt"
	"sort"
	"strings"
)

// Standard capability names from the paper's Figure 2 hierarchy and the
// Section 2.4 advertisement example. Capability names are free-form
// strings; these constants cover the vocabulary used throughout the
// reproduction.
const (
	CapQueryProcessing           = "query processing"
	CapRelationalQueryProcessing = "relational query processing"
	CapOOQueryProcessing         = "object-oriented query processing"
	CapSelect                    = "select"
	CapProject                   = "project"
	CapJoin                      = "join"
	CapUnion                     = "union"
	CapSubscription              = "subscription"
	CapMultiresourceQuery        = "multiresource query processing"
	CapDataMining                = "data mining"
	CapBrokering                 = "brokering"
	// CapAggregation is statistical aggregation within queries — the
	// paper's canonical capability restriction ("it cannot do any
	// statistical aggregation within those queries").
	CapAggregation = "statistical aggregation"
)

// CapabilityHierarchy is the containment hierarchy over capabilities
// (Figure 2): an agent advertising a capability implicitly offers every
// capability below it, but not the ones above. It is a DAG: a capability
// may have several parents.
type CapabilityHierarchy struct {
	// parents maps a capability to its direct parents.
	parents map[string][]string
}

// NewCapabilityHierarchy returns an empty hierarchy.
func NewCapabilityHierarchy() *CapabilityHierarchy {
	return &CapabilityHierarchy{parents: make(map[string][]string)}
}

// Add declares that parent directly contains child. Both nodes are created
// if absent. It returns an error if the edge would create a cycle.
func (h *CapabilityHierarchy) Add(parent, child string) error {
	parent, child = normCap(parent), normCap(child)
	if parent == child {
		return fmt.Errorf("capability %q cannot contain itself", parent)
	}
	if h.Subsumes(child, parent) {
		return fmt.Errorf("adding %q under %q would create a cycle", child, parent)
	}
	h.touch(parent)
	h.touch(child)
	for _, p := range h.parents[child] {
		if p == parent {
			return nil
		}
	}
	h.parents[child] = append(h.parents[child], parent)
	return nil
}

// MustAdd is Add, panicking on error; for static hierarchy tables.
func (h *CapabilityHierarchy) MustAdd(parent, child string) {
	if err := h.Add(parent, child); err != nil {
		panic(err)
	}
}

func (h *CapabilityHierarchy) touch(name string) {
	if _, ok := h.parents[name]; !ok {
		h.parents[name] = nil
	}
}

// Known reports whether the capability appears in the hierarchy.
func (h *CapabilityHierarchy) Known(name string) bool {
	_, ok := h.parents[normCap(name)]
	return ok
}

// Subsumes reports whether general is specific, or transitively contains
// specific: an agent advertising `general` can perform `specific`. A
// capability absent from the hierarchy subsumes only itself.
func (h *CapabilityHierarchy) Subsumes(general, specific string) bool {
	general, specific = normCap(general), normCap(specific)
	if general == specific {
		return true
	}
	// Walk up from specific looking for general.
	seen := make(map[string]bool)
	stack := []string{specific}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		for _, p := range h.parents[cur] {
			if p == general {
				return true
			}
			stack = append(stack, p)
		}
	}
	return false
}

// Satisfies reports whether an agent advertising the given capabilities can
// perform the requested one: some advertised capability must subsume the
// request. The paper's example: advertising "query processing" satisfies a
// request for "select", but advertising "select" does not satisfy a request
// for "relational query processing".
func (h *CapabilityHierarchy) Satisfies(advertised []string, requested string) bool {
	for _, adv := range advertised {
		if h.Subsumes(adv, requested) {
			return true
		}
	}
	return false
}

// Satisfies is CapabilityHierarchy.Satisfies over the default hierarchy.
// That hierarchy is built once for the process and handed to no caller,
// so nothing can Add to it, and every agent shares it: resource agents
// check each statement they run against it, and the MRQ each aggregate
// it would push down.
func Satisfies(advertised []string, requested string) bool {
	return defaultHierarchy.Satisfies(advertised, requested)
}

var defaultHierarchy = DefaultHierarchy()

// Descendants returns every capability transitively contained by the given
// one, in sorted order, excluding the capability itself.
func (h *CapabilityHierarchy) Descendants(name string) []string {
	name = normCap(name)
	var out []string
	for c := range h.parents {
		if c != name && h.Subsumes(name, c) {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// Capabilities returns every known capability in sorted order.
func (h *CapabilityHierarchy) Capabilities() []string {
	out := make([]string, 0, len(h.parents))
	for c := range h.parents {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func normCap(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// DefaultHierarchy returns the Figure 2 capability hierarchy for query
// processing, extended with the other capabilities the paper's agents
// advertise (subscription, multiresource query processing, brokering,
// data mining).
func DefaultHierarchy() *CapabilityHierarchy {
	h := NewCapabilityHierarchy()
	h.MustAdd(CapQueryProcessing, CapRelationalQueryProcessing)
	h.MustAdd(CapQueryProcessing, CapOOQueryProcessing)
	h.MustAdd(CapRelationalQueryProcessing, CapSelect)
	h.MustAdd(CapRelationalQueryProcessing, CapProject)
	h.MustAdd(CapRelationalQueryProcessing, CapJoin)
	h.MustAdd(CapRelationalQueryProcessing, CapUnion)
	h.MustAdd(CapQueryProcessing, CapMultiresourceQuery)
	h.MustAdd(CapQueryProcessing, CapAggregation)
	h.touch(CapSubscription)
	h.touch(CapDataMining)
	h.touch(CapBrokering)
	return h
}
