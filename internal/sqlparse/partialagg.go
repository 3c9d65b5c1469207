package sqlparse

import (
	"fmt"
	"slices"
	"strings"

	"infosleuth/internal/constraint"
	"infosleuth/internal/relational"
)

// Partial-aggregate algebra for the MRQ's federated planner: a single-class
// aggregate query decomposes into per-fragment partial aggregates that the
// MRQ merges. COUNT and SUM merge by addition, MIN/MAX by comparison, and
// AVG decomposes as SUM+COUNT — the standard distributive/algebraic
// aggregate split of distributed query processing. The merged result is
// identical to evaluating the original statement over the union of the
// fragments, provided the fragments are disjoint (the planner gates on
// advertised constraint regions before using this).

// aggSlot maps one output aggregate onto the partial columns it needs.
type aggSlot struct {
	fn  string // COUNT, SUM, AVG, MIN, MAX
	arg int    // index into partials for SUM/MIN/MAX data; AVG uses arg (SUM) + count
}

// PartialAggPlan is the decomposition of one aggregate SELECT into
// per-fragment partials plus a merge step.
type PartialAggPlan struct {
	sel      *Select
	grouped  bool
	partials []Aggregate // COUNT(*) always first; SUM/MIN/MAX deduped
	slots    []aggSlot   // one per sel.Aggs, referencing partials
}

// PlanPartialAggregates decomposes an aggregate statement. It returns
// (nil, false) when the statement is not a pure single-class aggregate
// query (no aggregates, UNION, or a join): those shapes either need no
// decomposition or cannot be decomposed soundly.
func PlanPartialAggregates(sel *Select) (*PartialAggPlan, bool) {
	if sel == nil || len(sel.Aggs) == 0 || sel.Union != nil || len(sel.From) != 1 {
		return nil, false
	}
	p := &PartialAggPlan{sel: sel, grouped: sel.GroupBy.Column != ""}
	// COUNT(*) is always the first partial: the merge needs group
	// cardinalities for AVG and to drop empty-fragment placeholder rows.
	p.partials = append(p.partials, Aggregate{Func: "COUNT", Star: true})
	need := func(fn, col string) int {
		for i, pa := range p.partials {
			if pa.Func == fn && !pa.Star && strings.EqualFold(pa.Arg.Column, col) {
				return i
			}
		}
		p.partials = append(p.partials, Aggregate{Func: fn, Arg: ColRef{Column: strings.ToLower(col)}})
		return len(p.partials) - 1
	}
	for _, a := range sel.Aggs {
		switch a.Func {
		case "COUNT":
			// In this engine COUNT(col) counts tuples like COUNT(*)
			// (executeAggregates increments per tuple), so both merge
			// from the shared COUNT(*) partial.
			p.slots = append(p.slots, aggSlot{fn: "COUNT", arg: 0})
		case "SUM":
			p.slots = append(p.slots, aggSlot{fn: "SUM", arg: need("SUM", a.Arg.Column)})
		case "AVG":
			p.slots = append(p.slots, aggSlot{fn: "AVG", arg: need("SUM", a.Arg.Column)})
		case "MIN":
			p.slots = append(p.slots, aggSlot{fn: "MIN", arg: need("MIN", a.Arg.Column)})
		case "MAX":
			p.slots = append(p.slots, aggSlot{fn: "MAX", arg: need("MAX", a.Arg.Column)})
		default:
			return nil, false
		}
	}
	return p, true
}

// Items renders the partial aggregate select items, in partial order.
func (p *PartialAggPlan) Items() []string {
	out := make([]string, len(p.partials))
	for i, a := range p.partials {
		out[i] = a.String()
	}
	return out
}

// Columns lists the lowercased class columns the partials read (group
// column first when grouped), for advertisement coverage checks.
func (p *PartialAggPlan) Columns() []string {
	var out []string
	seen := make(map[string]bool)
	add := func(c string) {
		lc := strings.ToLower(c)
		if lc != "" && !seen[lc] {
			seen[lc] = true
			out = append(out, lc)
		}
	}
	if p.grouped {
		add(p.sel.GroupBy.Column)
	}
	for _, a := range p.partials {
		if !a.Star {
			add(a.Arg.Column)
		}
	}
	return out
}

// FragmentSQL renders the partial-aggregate query sent to one fragment:
// the partial select items (group column first when grouped) with the
// pushed single-class conjuncts and GROUP BY. The output round-trips
// through Parse.
func (p *PartialAggPlan) FragmentSQL(class string, conds []Cond) string {
	items := make([]string, 0, len(p.partials)+1)
	if p.grouped {
		items = append(items, strings.ToLower(p.sel.GroupBy.Column))
	}
	items = append(items, p.Items()...)
	sql := RenderFragmentSelect(class, items, conds)
	if p.grouped {
		sql += " GROUP BY " + strings.ToLower(p.sel.GroupBy.Column)
	}
	return sql
}

// Merge combines per-fragment partial results into the final aggregate
// result, matching what Execute would produce over the union of the
// fragments' tuples: same columns, same group order (group values in
// value order), AVG recomposed as SUM/COUNT. Fragment rows with COUNT 0 are
// placeholder rows from empty fragments and are skipped.
func (p *PartialAggPlan) Merge(fragments []*Result) (*Result, error) {
	type accum struct {
		count int
		sum   []float64
		min   []constraint.Value
		max   []constraint.Value
		seen  []bool
	}
	width := len(p.partials)
	groupOff := 0
	if p.grouped {
		groupOff = 1
	}

	groups := make(map[constraint.Value]*accum)
	var order []constraint.Value
	for _, fr := range fragments {
		if fr == nil {
			continue
		}
		if len(fr.Columns) != groupOff+width {
			return nil, fmt.Errorf("sql: partial fragment has %d columns, want %d", len(fr.Columns), groupOff+width)
		}
		for _, row := range fr.Rows {
			if len(row) != groupOff+width {
				return nil, fmt.Errorf("sql: partial row has %d values, want %d", len(row), groupOff+width)
			}
			cnt := row[groupOff]
			if cnt.Kind() != constraint.KindNumber {
				return nil, fmt.Errorf("sql: partial COUNT is not a number: %s", cnt)
			}
			n := int(cnt.Number())
			if n == 0 {
				// Empty-fragment placeholder (ungrouped aggregates over
				// zero tuples yield one all-zero row); contributes nothing.
				continue
			}
			var key constraint.Value
			if p.grouped {
				key = row[0]
			}
			acc, ok := groups[key]
			if !ok {
				acc = &accum{
					sum:  make([]float64, width),
					min:  make([]constraint.Value, width),
					max:  make([]constraint.Value, width),
					seen: make([]bool, width),
				}
				groups[key] = acc
				order = append(order, key)
			}
			acc.count += n
			for i := 1; i < width; i++ {
				v := row[groupOff+i]
				switch p.partials[i].Func {
				case "SUM":
					if v.Kind() == constraint.KindNumber {
						acc.sum[i] += v.Number()
					}
				case "MIN":
					if !acc.seen[i] || v.Compare(acc.min[i]) < 0 {
						acc.min[i] = v
					}
					acc.seen[i] = true
				case "MAX":
					if !acc.seen[i] || v.Compare(acc.max[i]) > 0 {
						acc.max[i] = v
					}
					acc.seen[i] = true
				}
			}
		}
	}
	slices.SortFunc(order, constraint.Value.Compare)

	var cols []string
	if p.grouped {
		cols = append(cols, p.sel.GroupBy.String())
	}
	for _, a := range p.sel.Aggs {
		cols = append(cols, a.String())
	}
	out := &Result{Columns: cols}
	// Ungrouped aggregates over zero surviving tuples still yield one row,
	// exactly as local evaluation over the empty input does.
	if len(order) == 0 && !p.grouped {
		row := make(relational.Row, 0, len(p.sel.Aggs))
		for range p.sel.Aggs {
			row = append(row, constraint.Num(0))
		}
		out.Rows = append(out.Rows, row)
		return out, nil
	}
	for _, key := range order {
		acc := groups[key]
		var row relational.Row
		if p.grouped {
			row = append(row, key)
		}
		for _, s := range p.slots {
			switch s.fn {
			case "COUNT":
				row = append(row, constraint.Num(float64(acc.count)))
			case "SUM":
				row = append(row, constraint.Num(acc.sum[s.arg]))
			case "AVG":
				if acc.count == 0 {
					row = append(row, constraint.Num(0))
				} else {
					row = append(row, constraint.Num(acc.sum[s.arg]/float64(acc.count)))
				}
			case "MIN":
				row = append(row, acc.min[s.arg])
			case "MAX":
				row = append(row, acc.max[s.arg])
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
