package recorder

import (
	"fmt"
	"strings"

	"infosleuth/internal/kqml"
)

// Explain is one trace's decision-provenance report: every recorded
// decision event grouped by kind, plus the assembled span tree. It is
// the JSON body of /traces/{id}/explain and the structure behind
// `isquery -explain`.
type Explain struct {
	Summary   Summary          `json:"summary"`
	Matches   []kqml.ProvEvent `json:"matches,omitempty"`
	Forwards  []kqml.ProvEvent `json:"forwards,omitempty"`
	Plans     []kqml.ProvEvent `json:"plans,omitempty"`
	Pushdowns []kqml.ProvEvent `json:"pushdowns,omitempty"`
	Fetches   []kqml.ProvEvent `json:"fetches,omitempty"`
	Failovers []kqml.ProvEvent `json:"failovers,omitempty"`
	Tree      *Tree            `json:"tree,omitempty"`
}

// Explain assembles the explain report for one trace ID. It exists as
// soon as the trace holds any span or event.
func (r *Recorder) Explain(id string) (*Explain, bool) {
	r.mu.Lock()
	t, ok := r.traces[id]
	var decisions []kqml.ProvEvent
	var sum Summary
	if ok {
		decisions = append([]kqml.ProvEvent(nil), t.decisions...)
		sum = t.summary()
	}
	r.mu.Unlock()
	if !ok {
		return nil, false
	}
	tree, _ := r.Trace(id)
	ex := &Explain{Summary: sum, Tree: tree}
	for _, ev := range decisions {
		switch ev.Kind {
		case kqml.ProvMatch:
			ex.Matches = append(ex.Matches, ev)
		case kqml.ProvForward:
			ex.Forwards = append(ex.Forwards, ev)
		case kqml.ProvPlan:
			ex.Plans = append(ex.Plans, ev)
		case kqml.ProvPushdown:
			ex.Pushdowns = append(ex.Pushdowns, ev)
		case kqml.ProvFetch:
			ex.Fetches = append(ex.Fetches, ev)
		case kqml.ProvFailover:
			ex.Failovers = append(ex.Failovers, ev)
		}
	}
	return ex, true
}

// Format renders the explain report as a box-drawing text tree: one
// section per decision kind (matchmaking, forwarding, pushdown, fetch,
// failover), then the span tree.
func (e *Explain) Format() string {
	var b strings.Builder
	s := e.Summary
	decisions := len(e.Matches) + len(e.Forwards) + len(e.Plans) + len(e.Pushdowns) + len(e.Fetches) + len(e.Failovers)
	fmt.Fprintf(&b, "explain trace %s: %d decisions, %d spans, %d agents, %d µs",
		s.ID, decisions, s.Spans, s.Agents, s.DurationMicros)
	if s.Errors > 0 {
		fmt.Fprintf(&b, ", %d errors", s.Errors)
	}
	if s.Dropped > 0 {
		fmt.Fprintf(&b, ", %d dropped", s.Dropped)
	}
	b.WriteByte('\n')

	type section struct {
		title string
		lines []string
	}
	var sections []section
	add := func(title string, lines []string) {
		if len(lines) > 0 {
			sections = append(sections, section{title, lines})
		}
	}
	add("matchmaking", matchLines(e.Matches))
	add("forwarding", forwardLines(e.Forwards))
	add("plan", planLines(e.Plans))
	add("pushdown", pushdownLines(e.Pushdowns))
	add("fetch", fetchLines(e.Fetches))
	add("failover", failoverLines(e.Failovers))
	if e.Tree != nil && len(e.Tree.Roots) > 0 {
		var lines []string
		var tb strings.Builder
		for i, n := range e.Tree.Roots {
			formatNode(&tb, n, "", i == len(e.Tree.Roots)-1)
		}
		for _, l := range strings.Split(strings.TrimRight(tb.String(), "\n"), "\n") {
			lines = append(lines, l)
		}
		add("spans", lines)
	}

	for si, sec := range sections {
		branch, childPrefix := "├─ ", "│  "
		if si == len(sections)-1 {
			branch, childPrefix = "└─ ", "   "
		}
		b.WriteString(branch + sec.title + "\n")
		for li, l := range sec.lines {
			inner := "├─ "
			if li == len(sec.lines)-1 {
				inner = "└─ "
			}
			if sec.title == "spans" {
				// The span tree carries its own box-drawing structure.
				b.WriteString(childPrefix + l + "\n")
				continue
			}
			b.WriteString(childPrefix + inner + l + "\n")
		}
	}
	return b.String()
}

func matchLines(events []kqml.ProvEvent) []string {
	var out []string
	for _, ev := range events {
		m := ev.Match
		if m == nil {
			continue
		}
		verdict := "reject"
		if m.Accepted {
			verdict = "accept"
		}
		line := fmt.Sprintf("%s: %s %s", ev.Agent, verdict, m.Ad)
		if m.Accepted {
			line += fmt.Sprintf("  [specificity %d", m.Specificity)
			if m.Coverage != "" {
				line += ", constraints " + m.Coverage
			}
			line += "]"
		} else if m.Reason != "" {
			line += "  — " + m.Reason
		}
		cache := "miss"
		if m.CacheHit {
			cache = "hit"
		}
		if m.Engine != "" {
			line += fmt.Sprintf("  (%s, cache %s, gen %d)", m.Engine, cache, m.Generation)
		}
		out = append(out, line)
	}
	return out
}

func forwardLines(events []kqml.ProvEvent) []string {
	var out []string
	for _, ev := range events {
		f := ev.Forward
		if f == nil {
			continue
		}
		line := fmt.Sprintf("%s → %s", ev.Agent, f.Peer)
		switch {
		case f.Skipped != "":
			line += ": skipped (" + f.Skipped + ")"
		case f.Err != "":
			line += ": ERR " + f.Err
		default:
			line += fmt.Sprintf(": %d match(es)", f.Matches)
		}
		out = append(out, line)
	}
	return out
}

func planLines(events []kqml.ProvEvent) []string {
	var out []string
	for _, ev := range events {
		p := ev.Plan
		if p == nil {
			continue
		}
		line := p.Class
		if ev.Agent != "" {
			line = fmt.Sprintf("%s @ %s", p.Class, ev.Agent)
		}
		var parts []string
		switch {
		case p.SemiJoin:
			// Keys is 0 on plan-only reports: the count is unknown until
			// the build side is actually fetched.
			sj := fmt.Sprintf("semi-join: build %s, push %s IN keys to %s", p.Build, p.JoinColumn, p.Probe)
			if p.Keys > 0 {
				sj = fmt.Sprintf("semi-join: build %s, push %s IN (%d keys) to %s", p.Build, p.JoinColumn, p.Keys, p.Probe)
			}
			parts = append(parts, sj)
		case len(p.Aggregates) > 0:
			parts = append(parts, "push aggregates ["+strings.Join(p.Aggregates, " ")+"]")
		}
		if len(p.Order) > 0 {
			if len(p.CostsMicros) == len(p.Order) {
				ranked := make([]string, len(p.Order))
				for i, name := range p.Order {
					ranked[i] = fmt.Sprintf("%s(%dµs)", name, p.CostsMicros[i])
				}
				parts = append(parts, "fetch order ["+strings.Join(ranked, " ")+"]")
			} else {
				parts = append(parts, "fetch order ["+strings.Join(p.Order, " ")+"] (no stats signal; broker order kept)")
			}
		}
		if p.Fallback != "" {
			parts = append(parts, "fallback: "+p.Fallback)
		}
		if len(parts) == 0 {
			parts = append(parts, "no rewrite")
		}
		out = append(out, line+": "+strings.Join(parts, "; "))
	}
	return out
}

func pushdownLines(events []kqml.ProvEvent) []string {
	var out []string
	for _, ev := range events {
		p := ev.Pushdown
		if p == nil {
			continue
		}
		line := p.Class
		if ev.Agent != "" {
			line = fmt.Sprintf("%s @ %s", p.Class, ev.Agent)
		}
		var parts []string
		if len(p.Pushed) > 0 {
			parts = append(parts, "pushed ["+strings.Join(p.Pushed, " AND ")+"]")
		}
		if len(p.Columns) > 0 {
			parts = append(parts, "cols ["+strings.Join(p.Columns, " ")+"]")
		}
		for _, bl := range p.Blocked {
			parts = append(parts, "blocked "+bl)
		}
		if p.Fallback != "" {
			parts = append(parts, "fallback: "+p.Fallback)
		}
		if len(parts) == 0 {
			parts = append(parts, "nothing to push")
		}
		out = append(out, line+": "+strings.Join(parts, "; "))
	}
	return out
}

func fetchLines(events []kqml.ProvEvent) []string {
	var out []string
	for _, ev := range events {
		f := ev.Fetch
		if f == nil {
			continue
		}
		line := fmt.Sprintf("%s ← %s: %d B in %d µs", f.Class, f.Resource, f.Bytes, f.LatencyMicros)
		switch {
		case f.Err != "":
			line += "  ERR " + f.Err
		case f.Fallback:
			line += "  (pushdown rejected, fell back to SELECT *)"
		case f.Pushed:
			line += "  (pushed)"
		}
		out = append(out, line)
	}
	return out
}

func failoverLines(events []kqml.ProvEvent) []string {
	var out []string
	for _, ev := range events {
		f := ev.Failover
		if f == nil {
			continue
		}
		line := fmt.Sprintf("%s: lost %s", f.Class, f.Lost)
		if f.CoveredBy != "" {
			line += " → covered by " + f.CoveredBy
		} else {
			line += " → DEGRADED"
		}
		if f.Note != "" {
			line += " (" + f.Note + ")"
		}
		out = append(out, line)
	}
	return out
}
