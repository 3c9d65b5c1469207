package relational

import (
	"fmt"
	"slices"

	"infosleuth/internal/constraint"
)

// Update replaces the row with the given key. It fails on keyless tables,
// missing keys, or rows that do not satisfy the schema. The new row's key
// must equal the old one. Like Delete, it copies the rows slice instead
// of writing it, so a running Scan's snapshot stays as it was.
func (t *Table) Update(key constraint.Value, r Row) error {
	if t.byKey == nil {
		return fmt.Errorf("relational: table %q has no key; update unsupported", t.schema.Name)
	}
	if err := t.check(r); err != nil {
		return err
	}
	ki := t.schema.ColIndex(t.schema.Key)
	if !r[ki].Equal(key) {
		return fmt.Errorf("relational: table %q update cannot change key %s to %s", t.schema.Name, key, r[ki])
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.byKey[key.String()]
	if !ok {
		return fmt.Errorf("relational: table %q has no row with key %s", t.schema.Name, key)
	}
	rows := slices.Clone(t.rows)
	rows[i] = append(Row(nil), r...)
	t.rows = rows
	return nil
}

// Delete removes the row with the given key; it reports whether a row was
// removed. It fails silently (false) on keyless tables.
func (t *Table) Delete(key constraint.Value) bool {
	if t.byKey == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.byKey[key.String()]
	if !ok {
		return false
	}
	last := len(t.rows) - 1
	rows := slices.Clone(t.rows[:last])
	if i != last {
		// Move the last row into the hole and fix its index.
		rows[i] = t.rows[last]
		ki := t.schema.ColIndex(t.schema.Key)
		t.byKey[rows[i][ki].String()] = i
	}
	t.rows = rows
	delete(t.byKey, key.String())
	return true
}
