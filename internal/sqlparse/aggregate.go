package sqlparse

import (
	"fmt"
	"slices"
	"strings"

	"infosleuth/internal/constraint"
	"infosleuth/internal/relational"
)

// Aggregate is one aggregate select item: COUNT(*) or FUNC(column).
// The paper's introduction uses statistical aggregation as the canonical
// capability restriction ("myRelationalQueryAgent ... cannot do any
// statistical aggregation within those queries"); queries carrying
// aggregates require the "statistical aggregation" capability.
type Aggregate struct {
	// Func is COUNT, SUM, AVG, MIN or MAX (upper-cased).
	Func string
	// Star marks COUNT(*).
	Star bool
	// Arg is the aggregated column (unused for COUNT(*)).
	Arg ColRef
}

// String renders the aggregate.
func (a Aggregate) String() string {
	if a.Star {
		return a.Func + "(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Func, a.Arg)
}

// aggFuncs are the supported aggregate functions.
var aggFuncs = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

// executeAggregates evaluates the aggregate projection over the joined,
// filtered tuples. With GroupBy set, one output row per distinct group
// value, in value order (constraint.Value.Compare: numbers numerically,
// before strings); otherwise a single row. resolve maps a ColRef to its
// tuple index.
func executeAggregates(sel *Select, tuples []relational.Row, resolve func(ColRef) (int, error)) (*Result, error) {
	type accum struct {
		count int
		sum   float64
		min   constraint.Value
		max   constraint.Value
		seen  bool
	}

	groupIdx := -1
	if sel.GroupBy.Column != "" {
		i, err := resolve(sel.GroupBy)
		if err != nil {
			return nil, err
		}
		groupIdx = i
	}
	argIdx := make([]int, len(sel.Aggs))
	for i, a := range sel.Aggs {
		if a.Star {
			argIdx[i] = -1
			continue
		}
		idx, err := resolve(a.Arg)
		if err != nil {
			return nil, err
		}
		argIdx[i] = idx
	}

	groups := make(map[constraint.Value][]*accum)
	var order []constraint.Value
	for _, tuple := range tuples {
		var key constraint.Value
		if groupIdx >= 0 {
			key = tuple[groupIdx]
		}
		accs, ok := groups[key]
		if !ok {
			accs = make([]*accum, len(sel.Aggs))
			for i := range accs {
				accs[i] = &accum{}
			}
			groups[key] = accs
			order = append(order, key)
		}
		for i, a := range sel.Aggs {
			acc := accs[i]
			if a.Star {
				acc.count++
				continue
			}
			v := tuple[argIdx[i]]
			acc.count++
			if v.Kind() == constraint.KindNumber {
				acc.sum += v.Number()
			}
			if !acc.seen || v.Compare(acc.min) < 0 {
				acc.min = v
			}
			if !acc.seen || v.Compare(acc.max) > 0 {
				acc.max = v
			}
			acc.seen = true
		}
	}
	slices.SortFunc(order, constraint.Value.Compare)

	var cols []string
	if groupIdx >= 0 {
		cols = append(cols, sel.GroupBy.String())
	}
	for _, a := range sel.Aggs {
		cols = append(cols, a.String())
	}
	out := &Result{Columns: cols}
	// With no groups and no GROUP BY, aggregates over the empty input
	// still yield one row (COUNT 0, NULL-ish zeros).
	if len(order) == 0 && groupIdx < 0 {
		row := make(relational.Row, 0, len(sel.Aggs))
		for _, a := range sel.Aggs {
			if a.Func == "COUNT" {
				row = append(row, constraint.Num(0))
			} else {
				row = append(row, constraint.Num(0))
			}
		}
		out.Rows = append(out.Rows, row)
		return out, nil
	}
	for _, key := range order {
		accs := groups[key]
		var row relational.Row
		if groupIdx >= 0 {
			row = append(row, key)
		}
		for i, a := range sel.Aggs {
			acc := accs[i]
			switch a.Func {
			case "COUNT":
				row = append(row, constraint.Num(float64(acc.count)))
			case "SUM":
				row = append(row, constraint.Num(acc.sum))
			case "AVG":
				if acc.count == 0 {
					row = append(row, constraint.Num(0))
				} else {
					row = append(row, constraint.Num(acc.sum/float64(acc.count)))
				}
			case "MIN":
				row = append(row, acc.min)
			case "MAX":
				row = append(row, acc.max)
			default:
				return nil, fmt.Errorf("sql: unknown aggregate %q", a.Func)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// validateAggregates checks the aggregate/GROUP BY shape at parse time.
func validateAggregates(sel *Select) error {
	if len(sel.Aggs) == 0 {
		if sel.GroupBy.Column != "" {
			return fmt.Errorf("sql: GROUP BY without aggregates")
		}
		return nil
	}
	if sel.Star {
		return fmt.Errorf("sql: cannot mix * with aggregates")
	}
	// Plain columns are only allowed when they are the GROUP BY column.
	for _, c := range sel.Columns {
		if !strings.EqualFold(c.String(), sel.GroupBy.String()) {
			return fmt.Errorf("sql: non-aggregated column %s requires GROUP BY %s", c, c)
		}
	}
	if sel.Union != nil {
		return fmt.Errorf("sql: UNION with aggregates is not supported")
	}
	return nil
}
