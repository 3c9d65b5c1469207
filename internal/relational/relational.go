// Package relational is the storage substrate behind InfoSleuth resource
// agents: an in-memory relational store with typed columns, primary keys,
// and the horizontal/vertical fragmentation and class-hierarchy layouts
// that the paper's VF, CH and FH query streams exercise (Section 5.1).
//
// Values reuse the constraint package's Value type so that advertised data
// constraints can be checked directly against stored rows.
package relational

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"infosleuth/internal/constraint"
)

// ColType is a column's data type.
type ColType int

// Column types.
const (
	TypeNumber ColType = iota
	TypeString
)

// String names the type.
func (t ColType) String() string {
	if t == TypeNumber {
		return "number"
	}
	return "string"
}

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a table: its name, columns and key column.
type Schema struct {
	Name    string
	Columns []Column
	// Key names the primary-key column; "" means no key (duplicates
	// allowed, updates by key unsupported).
	Key string
}

// ColIndex returns the index of a column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// ColNames returns the column names in order.
func (s Schema) ColNames() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// Validate checks schema well-formedness.
func (s Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("relational: schema missing table name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("relational: table %q has no columns", s.Name)
	}
	seen := make(map[string]bool)
	for _, c := range s.Columns {
		lc := strings.ToLower(c.Name)
		if c.Name == "" {
			return fmt.Errorf("relational: table %q has an unnamed column", s.Name)
		}
		if seen[lc] {
			return fmt.Errorf("relational: table %q duplicates column %q", s.Name, c.Name)
		}
		seen[lc] = true
	}
	if s.Key != "" && s.ColIndex(s.Key) < 0 {
		return fmt.Errorf("relational: table %q key %q is not a column", s.Name, s.Key)
	}
	return nil
}

// Row is one tuple, positionally matching the schema's columns.
type Row []constraint.Value

// Equal reports whether two rows hold equal values (constraint.Value.Equal)
// in the same positions.
func (r Row) Equal(o Row) bool { return slices.EqualFunc(r, o, constraint.Value.Equal) }

// Hash is an FNV-1a hash over each value's kind, then its number bits (-0
// folded into 0) or its string bytes, then a separator. Equal rows hash
// alike; it allocates nothing.
func (r Row) Hash() uint64 {
	const prime = 1099511628211
	var h uint64 = 14695981039346656037
	for i := range r {
		v := &r[i] // not a copy: copying each value cost a fifth more per row
		h = (h ^ uint64(v.Kind())) * prime
		if v.Kind() == constraint.KindNumber {
			x := v.Number()
			if x == 0 {
				x = 0 // -0 and 0 are one value
			}
			bits := math.Float64bits(x)
			for j := 0; j < 64; j += 8 {
				h = (h ^ (bits >> j & 0xff)) * prime
			}
		} else {
			s := v.Text()
			for j := 0; j < len(s); j++ {
				h = (h ^ uint64(s[j])) * prime
			}
		}
		h = (h ^ 0x1f) * prime
	}
	return h
}

// Table is a mutable relation. It is safe for concurrent use.
type Table struct {
	schema Schema

	mu sync.RWMutex
	// rows is never written below its length: Insert appends past every
	// Scan's snapshot, while Update and Delete build a new slice.
	rows []Row
	// byKey indexes row position by the key's text when a key is
	// declared; nil until the first keyed call builds it (see index).
	byKey map[string]int
}

// NewTable creates an empty table for the schema.
func NewTable(s Schema) (*Table, error) { return NewTableOf(s, nil) }

// NewTableOf creates a table holding rows, after type-checking each one.
// It adopts rows and copies nothing: the caller gives up the slice and
// every row in it, and must not write them again. The caller also
// guarantees that keys are distinct. The key index is built by the first
// Insert, Lookup, Update or Delete, so a table that is only scanned (an
// MRQ's scratch table) never pays for one.
func NewTableOf(s Schema, rows []Row) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cp := s
	cp.Columns = append([]Column(nil), s.Columns...)
	t := &Table{schema: cp}
	for _, r := range rows {
		if err := t.check(r); err != nil {
			return nil, err
		}
	}
	t.rows = rows
	return t, nil
}

// MustNewTable is NewTable, panicking on error.
func MustNewTable(s Schema) *Table {
	t, err := NewTable(s)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// Len returns the row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert appends a row after type-checking it against the schema. Inserting
// a duplicate key fails.
func (t *Table) Insert(r Row) error {
	if err := t.check(r); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.schema.Key != "" {
		byKey := t.index()
		k := r[t.schema.ColIndex(t.schema.Key)].String()
		if _, dup := byKey[k]; dup {
			return fmt.Errorf("relational: table %q duplicate key %s", t.schema.Name, k)
		}
		byKey[k] = len(t.rows)
	}
	t.rows = append(t.rows, append(Row(nil), r...))
	return nil
}

// index returns the key index of a keyed table, building it from the rows
// on first use. t.mu must be held for writing.
func (t *Table) index() map[string]int {
	if t.byKey == nil {
		ki := t.schema.ColIndex(t.schema.Key)
		t.byKey = make(map[string]int, len(t.rows))
		for i, r := range t.rows {
			t.byKey[r[ki].String()] = i
		}
	}
	return t.byKey
}

// check type-checks a row against the schema: its width, then each
// value's kind against its column's type.
func (t *Table) check(r Row) error {
	if len(r) != len(t.schema.Columns) {
		return fmt.Errorf("relational: table %q expects %d values, got %d", t.schema.Name, len(t.schema.Columns), len(r))
	}
	for i, v := range r {
		want := t.schema.Columns[i].Type
		got := TypeString
		if v.Kind() == constraint.KindNumber {
			got = TypeNumber
		}
		if got != want {
			return fmt.Errorf("relational: table %q column %q wants %s, got %s (%s)",
				t.schema.Name, t.schema.Columns[i].Name, want, got, v)
		}
	}
	return nil
}

// MustInsert is Insert, panicking on error; for generators and tests.
func (t *Table) MustInsert(r Row) {
	if err := t.Insert(r); err != nil {
		panic(err)
	}
}

// Lookup returns the row with the given key value, if any.
func (t *Table) Lookup(key constraint.Value) (Row, bool) {
	if t.schema.Key == "" {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.index()[key.String()]
	if !ok {
		return nil, false
	}
	return append(Row(nil), t.rows[i]...), true
}

// Scan calls fn for each row of the table as it stood when the scan
// began; returning false stops the scan. fn receives the stored row, not a
// copy, and must treat it as read-only. It may keep it: Update and Delete
// replace rows and the rows slice instead of writing them, so a row or a
// scan's snapshot is never written once stored, and the row's capacity
// ends at its length, so an append to it copies.
func (t *Table) Scan(fn func(Row) bool) {
	t.mu.RLock()
	rows := t.rows
	t.mu.RUnlock()
	for _, r := range rows {
		if !fn(r[:len(r):len(r)]) {
			return
		}
	}
}

// Rows returns a copy of all rows.
func (t *Table) Rows() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Row, len(t.rows))
	for i, r := range t.rows {
		out[i] = append(Row(nil), r...)
	}
	return out
}

// Record converts a row into a field→value map using "table.column" keys
// (and bare "column" keys), the form constraint.Set.Matches consumes.
func (t *Table) Record(r Row) map[string]constraint.Value {
	out := make(map[string]constraint.Value, 2*len(r))
	for i, c := range t.schema.Columns {
		if i >= len(r) {
			break
		}
		lc := strings.ToLower(c.Name)
		out[lc] = r[i]
		out[strings.ToLower(t.schema.Name)+"."+lc] = r[i]
	}
	return out
}

// Database is a named collection of tables. It is safe for concurrent use.
type Database struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// Create adds an empty table; it fails on duplicate names.
func (db *Database) Create(s Schema) (*Table, error) {
	t, err := NewTable(s)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(s.Name)
	if _, dup := db.tables[key]; dup {
		return nil, fmt.Errorf("relational: table %q already exists", s.Name)
	}
	db.tables[key] = t
	return t, nil
}

// MustCreate is Create, panicking on error.
func (db *Database) MustCreate(s Schema) *Table {
	t, err := db.Create(s)
	if err != nil {
		panic(err)
	}
	return t
}

// Attach registers an existing table (e.g. a fragment); it fails on
// duplicate names.
func (db *Database) Attach(t *Table) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(t.Name())
	if _, dup := db.tables[key]; dup {
		return fmt.Errorf("relational: table %q already exists", t.Name())
	}
	db.tables[key] = t
	return nil
}

// Table returns a table by name (case-insensitive).
func (db *Database) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns the table names in sorted order.
func (db *Database) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Name())
	}
	sort.Strings(out)
	return out
}

// TotalRows returns the row count across all tables; the simulator uses it
// to size a resource's data.
func (db *Database) TotalRows() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, t := range db.tables {
		n += t.Len()
	}
	return n
}
