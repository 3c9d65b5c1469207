package recorder

import (
	"fmt"
	"sort"
	"strings"

	"infosleuth/internal/kqml"
	"infosleuth/internal/telemetry"
)

// Node is one span in an assembled trace tree.
type Node struct {
	Agent string `json:"agent"`
	Op    string `json:"op"`
	Hop   int    `json:"hop,omitempty"`
	// StartUnixNano / DurationMicros mirror the span's timing.
	StartUnixNano  int64   `json:"start,omitempty"`
	DurationMicros int64   `json:"us"`
	Err            string  `json:"err,omitempty"`
	Children       []*Node `json:"children,omitempty"`
}

// Tree is one trace assembled into parent/child structure: the entry
// span(s) at the roots, each span's children the work it enclosed —
// forwarded broker hops under the forwarding broker, resource queries
// under the MRQ fan-out that issued them.
type Tree struct {
	Summary Summary `json:"summary"`
	Roots   []*Node `json:"roots"`
}

// assemble builds the tree from an unordered span set. Spans may arrive
// out of order (concurrent fan-out, envelope mirroring), so structure is
// recovered at read time from timing: spans are sorted by start (ties:
// longer first, then coarser op), and each span nests under the nearest
// open span whose interval contains it. Two refinements keep the
// heuristic honest where wall-clock containment is ambiguous: concurrent
// sibling RPCs issued by one agent never nest under each other, and a
// broker-search span that timing could not place still attaches under the
// nearest broker-search one hop shallower (the BrokerQuery.Depth chain).
func assemble(sum Summary, spans []kqml.TraceSpan) *Tree {
	tree := &Tree{Summary: sum}
	if len(spans) == 0 {
		return tree
	}
	nodes := make([]*Node, len(spans))
	order := make([]int, len(spans))
	for i, s := range spans {
		nodes[i] = &Node{
			Agent:          s.Agent,
			Op:             s.Op,
			Hop:            s.Hop,
			StartUnixNano:  s.Start,
			DurationMicros: s.DurationMicros,
			Err:            s.Err,
		}
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.Start != sb.Start {
			// Zero (unknown) starts sort last; they fall back to the
			// hop chain or the roots.
			if sa.Start == 0 {
				return false
			}
			if sb.Start == 0 {
				return true
			}
			return sa.Start < sb.Start
		}
		if ea, eb := endOf(&sa), endOf(&sb); ea != eb {
			return ea > eb // longer first: enclosing span before enclosed
		}
		return opRank(sa.Op) < opRank(sb.Op)
	})

	var stack []*Node
	contains := func(parent, child *Node) bool {
		if parent.StartUnixNano == 0 || child.StartUnixNano == 0 {
			return false
		}
		pEnd := parent.StartUnixNano + parent.DurationMicros*1000
		cEnd := child.StartUnixNano + child.DurationMicros*1000
		if parent.StartUnixNano > child.StartUnixNano || pEnd < cEnd {
			return false
		}
		if parent.StartUnixNano == child.StartUnixNano && pEnd == cEnd {
			// Identical intervals: only the coarser op may enclose.
			return opRank(parent.Op) < opRank(child.Op)
		}
		// Concurrent fan-out: one agent's sibling RPCs stay siblings even
		// when one call's window happens to cover another's.
		if parent.Op == telemetry.OpRPCCall && child.Op == telemetry.OpRPCCall && parent.Agent == child.Agent {
			return false
		}
		return true
	}
	attach := func(n *Node) {
		for len(stack) > 0 && !contains(stack[len(stack)-1], n) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			if !attachByHop(tree.Roots, n) {
				tree.Roots = append(tree.Roots, n)
			}
		} else {
			p := stack[len(stack)-1]
			p.Children = append(p.Children, n)
		}
		stack = append(stack, n)
	}
	for _, i := range order {
		attach(nodes[i])
	}
	return tree
}

// attachByHop places a timing-less broker-search span under the first
// broker-search span one hop shallower, anywhere in the existing forest.
// It reports whether a parent was found.
func attachByHop(roots []*Node, n *Node) bool {
	if n.Op != kqml.OpBrokerSearch || n.Hop == 0 || n.StartUnixNano != 0 {
		return false
	}
	var find func(list []*Node) *Node
	find = func(list []*Node) *Node {
		for _, c := range list {
			if c.Op == kqml.OpBrokerSearch && c.Hop == n.Hop-1 {
				return c
			}
			if hit := find(c.Children); hit != nil {
				return hit
			}
		}
		return nil
	}
	if p := find(roots); p != nil {
		p.Children = append(p.Children, n)
		return true
	}
	return false
}

// opRank orders ops from enclosing to enclosed, breaking timing ties the
// way the instrumentation actually nests.
func opRank(op string) int {
	switch {
	case op == telemetry.OpUserSubmit:
		return 0
	case op == telemetry.OpQueryBrokers:
		return 1
	case op == telemetry.OpRPCCall:
		return 2
	case strings.HasPrefix(op, telemetry.OpDispatchPrefix):
		return 3
	case op == telemetry.OpMRQRun:
		return 4
	case op == telemetry.OpMRQPlan:
		return 5
	case op == telemetry.OpMRQAssemble:
		return 6
	case op == telemetry.OpMRQFetch:
		return 7
	case op == kqml.OpBrokerSearch:
		return 8
	case op == kqml.OpResourceQuery:
		return 9
	default:
		return 10
	}
}

// Format renders the tree as indented text, one line per span:
//
//	trace 5165c4b075c28b41: 12 spans, 7 agents, max hop 1, 1840 µs
//	└─ useragent.submit      user agent        1840 µs
//	   ├─ query.brokers      user agent         412 µs
//	   ...
func (t *Tree) Format() string {
	var b strings.Builder
	s := t.Summary
	fmt.Fprintf(&b, "trace %s: %d spans, %d agents, max hop %d, %d µs",
		s.ID, s.Spans, s.Agents, s.MaxHop, s.DurationMicros)
	if s.Errors > 0 {
		fmt.Fprintf(&b, ", %d errors", s.Errors)
	}
	if s.Dropped > 0 {
		fmt.Fprintf(&b, ", %d spans dropped", s.Dropped)
	}
	b.WriteByte('\n')
	for i, n := range t.Roots {
		formatNode(&b, n, "", i == len(t.Roots)-1)
	}
	return b.String()
}

func formatNode(b *strings.Builder, n *Node, prefix string, last bool) {
	branch, childPrefix := "├─ ", prefix+"│  "
	if last {
		branch, childPrefix = "└─ ", prefix+"   "
	}
	label := n.Op
	if n.Hop > 0 {
		label = fmt.Sprintf("%s[%d]", n.Op, n.Hop)
	}
	fmt.Fprintf(b, "%s%s%-22s %-24s %8d µs", prefix, branch, label, n.Agent, n.DurationMicros)
	if n.Err != "" {
		fmt.Fprintf(b, "  ERR %s", n.Err)
	}
	b.WriteByte('\n')
	for i, c := range n.Children {
		formatNode(b, c, childPrefix, i == len(n.Children)-1)
	}
}
