package sqlparse

import (
	"fmt"
	"sort"
	"strings"

	"infosleuth/internal/constraint"
	"infosleuth/internal/relational"
)

// Result is the answer to a query: named output columns and rows. Its rows
// may be the stored rows of the tables the query read (Execute returns them
// whenever its projection would copy them unchanged), so they are
// read-only: sort or re-slice Rows, but write no row.
type Result struct {
	Columns []string
	Rows    []relational.Row
}

// Len returns the number of result rows.
func (r *Result) Len() int { return len(r.Rows) }

// ColIndex returns the index of an output column (matching either the bare
// column name or its qualified "table.column" form), or -1.
func (r *Result) ColIndex(name string) int {
	name = strings.ToLower(name)
	for i, c := range r.Columns {
		lc := strings.ToLower(c)
		if lc == name {
			return i
		}
		if dot := strings.LastIndex(lc, "."); dot >= 0 && lc[dot+1:] == name {
			return i
		}
	}
	return -1
}

// String renders the result as an aligned text table, for examples and the
// CLI.
func (r *Result) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Columns))
	cells := make([][]string, len(r.Rows))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			s = strings.Trim(s, "'")
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteString("\n")
	for ri := range cells {
		for ci := range cells[ri] {
			if ci > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[ci], cells[ri][ci])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Execute runs the statement against the database. Join order follows the
// FROM clause; each table after the first is joined with a hash join when
// an equality condition links it to the tuples built so far, and a
// filtering nested-loop otherwise. WHERE conjuncts apply as soon as all
// their columns are bound. UNION branches evaluate independently and
// duplicates are eliminated across the chain (SQL UNION semantics), which
// requires all branches to produce the same column count.
func Execute(db *relational.Database, stmt *Select) (*Result, error) {
	out, err := executeBranch(db, stmt)
	if err != nil {
		return nil, err
	}
	if stmt.Union != nil {
		// seen maps a row hash to the kept rows that have it.
		seen := make(map[uint64][]int, len(out.Rows))
		var dedup []relational.Row
		add := func(r relational.Row) {
			h := r.Hash()
			for _, i := range seen[h] {
				if dedup[i].Equal(r) {
					return
				}
			}
			seen[h] = append(seen[h], len(dedup))
			dedup = append(dedup, r)
		}
		for _, r := range out.Rows {
			add(r)
		}
		for branch := stmt.Union; branch != nil; branch = branch.Union {
			br, err := executeBranch(db, branch)
			if err != nil {
				return nil, err
			}
			if len(br.Columns) != len(out.Columns) {
				return nil, fmt.Errorf("sql: UNION branches have %d and %d columns", len(out.Columns), len(br.Columns))
			}
			for _, r := range br.Rows {
				add(r)
			}
		}
		out.Rows = dedup
	}
	if stmt.OrderBy != "" {
		if err := out.Sort(stmt.OrderBy, stmt.OrderDesc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Sort orders the result rows by one output column (stable), ascending or
// descending — the ORDER BY step, exposed so the MRQ can re-apply ordering
// after merging partial aggregates computed at the fragments.
func (r *Result) Sort(col string, desc bool) error {
	i := r.ColIndex(col)
	if i < 0 {
		return fmt.Errorf("sql: ORDER BY column %q not in result", col)
	}
	sort.SliceStable(r.Rows, func(a, b int) bool {
		cmp := r.Rows[a][i].Compare(r.Rows[b][i])
		if desc {
			return cmp > 0
		}
		return cmp < 0
	})
	return nil
}

// binding tracks where each FROM table's columns land in the joined tuple.
type binding struct {
	ref    TableRef
	table  *relational.Table
	offset int // start of this table's columns in the tuple
}

func executeBranch(db *relational.Database, sel *Select) (*Result, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("sql: SELECT without FROM")
	}
	// Resolve tables.
	bindings := make([]binding, len(sel.From))
	offset := 0
	for i, tr := range sel.From {
		t, ok := db.Table(tr.Name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", tr.Name)
		}
		bindings[i] = binding{ref: tr, table: t, offset: offset}
		offset += len(t.Schema().Columns)
	}

	// Resolve a column reference to a tuple index, considering only the
	// first n bound tables.
	resolve := func(cr ColRef, n int) (int, error) {
		var hits []int
		for i := 0; i < n; i++ {
			b := bindings[i]
			if cr.Table != "" && !strings.EqualFold(cr.Table, b.ref.Binding()) {
				continue
			}
			if ci := b.table.Schema().ColIndex(cr.Column); ci >= 0 {
				hits = append(hits, b.offset+ci)
			}
		}
		switch len(hits) {
		case 0:
			return -1, fmt.Errorf("sql: unknown column %s", cr)
		case 1:
			return hits[0], nil
		default:
			return -1, fmt.Errorf("sql: ambiguous column %s", cr)
		}
	}

	// Classify conditions by the earliest join stage at which all their
	// columns are bound.
	type plannedCond struct {
		cond     Cond
		leftIdx  int
		rightIdx int // -1 for literal comparisons
	}
	stageConds := make([][]plannedCond, len(bindings)+1)
	for _, c := range sel.Where {
		placed := false
		for n := 1; n <= len(bindings); n++ {
			li, err := resolve(c.Left, n)
			if err != nil {
				continue
			}
			ri := -1
			if c.RightIsCol {
				ri, err = resolve(c.RightCol, n)
				if err != nil {
					continue
				}
			}
			stageConds[n] = append(stageConds[n], plannedCond{cond: c, leftIdx: li, rightIdx: ri})
			placed = true
			break
		}
		if !placed {
			// Re-resolve against everything for a precise error.
			if _, err := resolve(c.Left, len(bindings)); err != nil {
				return nil, err
			}
			if c.RightIsCol {
				if _, err := resolve(c.RightCol, len(bindings)); err != nil {
					return nil, err
				}
			}
			return nil, fmt.Errorf("sql: could not place condition %s", c)
		}
	}

	// evalCond takes the condition by pointer: a plannedCond is about 200
	// bytes, and copying it for every row cost a third of a scan.
	evalCond := func(pc *plannedCond, tuple relational.Row) bool {
		left := tuple[pc.leftIdx]
		if pc.cond.Between {
			if left.Kind() != constraint.KindNumber {
				return false
			}
			x := left.Number()
			return x >= pc.cond.RightVal.Number() && x <= pc.cond.HighVal.Number()
		}
		if pc.cond.In {
			for _, v := range pc.cond.InVals {
				if left.Kind() == v.Kind() && left.Compare(v) == 0 {
					return true
				}
			}
			return false
		}
		var right constraint.Value
		if pc.rightIdx >= 0 {
			right = tuple[pc.rightIdx]
		} else {
			right = pc.cond.RightVal
		}
		if left.Kind() != right.Kind() {
			return false
		}
		cmp := left.Compare(right)
		switch pc.cond.Op {
		case OpEq:
			return cmp == 0
		case OpNe:
			return cmp != 0
		case OpLt:
			return cmp < 0
		case OpLe:
			return cmp <= 0
		case OpGt:
			return cmp > 0
		case OpGe:
			return cmp >= 0
		}
		return false
	}

	// Seed: rows of the first table, filtered by its stage-1 conditions.
	// With none, every row is a tuple.
	var tuples []relational.Row
	if len(stageConds[1]) == 0 {
		tuples = make([]relational.Row, 0, bindings[0].table.Len())
	}
	bindings[0].table.Scan(func(r relational.Row) bool {
		ok := true
		for i := range stageConds[1] {
			if !evalCond(&stageConds[1][i], r) {
				ok = false
				break
			}
		}
		if ok {
			tuples = append(tuples, r)
		}
		return true
	})

	// Join remaining tables.
	for n := 2; n <= len(bindings); n++ {
		b := bindings[n-1]
		conds := stageConds[n]
		// Prefer a hash join on an equality condition whose one side is
		// entirely in the new table and the other in the prior tuple.
		hashIdx := -1
		var probeIdx, buildIdx int // probeIdx in prior tuple, buildIdx in new rows
		for i, pc := range conds {
			if pc.cond.Between || pc.cond.Op != OpEq || pc.rightIdx < 0 {
				continue
			}
			lo, hi := pc.leftIdx, pc.rightIdx
			newStart := b.offset
			switch {
			case lo >= newStart && hi < newStart:
				hashIdx, buildIdx, probeIdx = i, lo-newStart, hi
			case hi >= newStart && lo < newStart:
				hashIdx, buildIdx, probeIdx = i, hi-newStart, lo
			}
			if hashIdx >= 0 {
				break
			}
		}
		newRows := make([]relational.Row, 0, b.table.Len())
		b.table.Scan(func(r relational.Row) bool {
			newRows = append(newRows, r)
			return true
		})
		var next []relational.Row
		checkRest := func(tuple relational.Row) {
			for i := range conds {
				if i != hashIdx && !evalCond(&conds[i], tuple) {
					return
				}
			}
			next = append(next, tuple)
		}
		if hashIdx >= 0 {
			// Keyed by value: equal values are the same key, exactly as
			// the equality condition the index stands in for compares.
			index := make(map[constraint.Value][]relational.Row, len(newRows))
			for _, nr := range newRows {
				k := nr[buildIdx]
				index[k] = append(index[k], nr)
			}
			for _, t := range tuples {
				for _, nr := range index[t[probeIdx]] {
					tuple := append(append(relational.Row(nil), t...), nr...)
					checkRest(tuple)
				}
			}
		} else {
			for _, t := range tuples {
				for _, nr := range newRows {
					tuple := append(append(relational.Row(nil), t...), nr...)
					checkRest(tuple)
				}
			}
		}
		tuples = next
	}

	// Aggregate queries project through the accumulator instead.
	if len(sel.Aggs) > 0 {
		return executeAggregates(sel, tuples, func(cr ColRef) (int, error) {
			return resolve(cr, len(bindings))
		})
	}

	// Projection.
	multi := len(bindings) > 1
	qualName := func(bi int, ci int) string {
		col := bindings[bi].table.Schema().Columns[ci].Name
		if multi {
			return bindings[bi].ref.Binding() + "." + col
		}
		return col
	}
	var outCols []string
	var proj []int
	if sel.Star {
		for bi, b := range bindings {
			for ci := range b.table.Schema().Columns {
				outCols = append(outCols, qualName(bi, ci))
				proj = append(proj, b.offset+ci)
			}
		}
	} else {
		for _, cr := range sel.Columns {
			i, err := resolve(cr, len(bindings))
			if err != nil {
				return nil, err
			}
			outCols = append(outCols, cr.String())
			proj = append(proj, i)
		}
	}
	if identity(proj, offset) {
		// offset is the tuple's width. The tuples are the result rows:
		// stored rows of the one table read, or joined tuples built above.
		if tuples == nil {
			tuples = []relational.Row{} // no rows is an empty list on the wire, not null
		}
		return &Result{Columns: outCols, Rows: tuples}, nil
	}
	out := &Result{Columns: outCols, Rows: make([]relational.Row, 0, len(tuples))}
	for _, t := range tuples {
		row := make(relational.Row, len(proj))
		for i, pi := range proj {
			row[i] = t[pi]
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// identity reports whether a projection takes every one of a tuple's width
// values in order.
func identity(proj []int, width int) bool {
	if len(proj) != width {
		return false
	}
	for i, pi := range proj {
		if pi != i {
			return false
		}
	}
	return true
}
