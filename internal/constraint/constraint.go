// Package constraint implements the data-constraint language that InfoSleuth
// agents use in advertisements and broker queries.
//
// A resource agent advertises constraints on the information it holds, e.g.
//
//	patient.age between 43 and 75
//
// and a broker query carries constraints on the information it needs, e.g.
//
//	(patient.age between 25 and 65) AND (patient.diagnosis_code = '40W')
//
// The broker recommends an agent when the advertised constraints *overlap*
// the requested ones — when some data item could satisfy both (Section 2.4
// of the paper: the reasoning engine matches the agent that advertised
// patients between 43 and 75 against a request for patients between 25 and
// 65). The package provides the constraint value model, atomic constraints
// (ranges, comparisons, equality, membership), conjunctive constraint sets,
// overlap and subsumption reasoning, and a parser for the textual form.
package constraint

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Kind discriminates the dynamic type of a Value.
type Kind int

// Value kinds.
const (
	KindNumber Kind = iota
	KindString
)

// Value is a typed constant appearing in a constraint: a number or a string.
type Value struct {
	kind Kind
	num  float64
	str  string
}

// Num returns a numeric Value.
func Num(f float64) Value { return Value{kind: KindNumber, num: f} }

// Str returns a string Value.
func Str(s string) Value { return Value{kind: KindString, str: s} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// Number returns the numeric content; it is only meaningful for KindNumber.
func (v Value) Number() float64 { return v.num }

// Text returns the string content; it is only meaningful for KindString.
func (v Value) Text() string { return v.str }

// Equal reports whether two values have the same kind and content.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	if v.kind == KindNumber {
		return v.num == o.num
	}
	return v.str == o.str
}

// Compare orders two values of the same kind: -1, 0, or +1.
// Values of different kinds compare by kind (numbers before strings) so that
// sorting is total; cross-kind comparison never arises from the parser.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindNumber:
		switch {
		case v.num < o.num:
			return -1
		case v.num > o.num:
			return 1
		}
		return 0
	default:
		return strings.Compare(v.str, o.str)
	}
}

// String renders the value in constraint syntax.
func (v Value) String() string {
	if v.kind == KindNumber {
		if v.num == math.Trunc(v.num) && math.Abs(v.num) < 1e15 {
			return fmt.Sprintf("%d", int64(v.num))
		}
		return fmt.Sprintf("%g", v.num)
	}
	if strings.Contains(v.str, "'") {
		// Only a double-quoted string can hold a single quote.
		return `"` + v.str + `"`
	}
	return "'" + v.str + "'"
}

// Atom is a single constraint on one field. Atoms on the same field combine
// by intersection inside a Set; atoms on distinct fields are independent
// conjuncts.
type Atom struct {
	// Field names the constrained slot, usually "class.slot"
	// (e.g. "patient.age").
	Field string
	// Interval is the admitted region for numeric comparisons and ranges.
	// For string equality/membership constraints, Allowed holds the
	// admitted values instead and Interval is unused.
	Interval Interval
	// Allowed, when non-nil, lists the admitted discrete values
	// (equality is a one-element set, IN a larger one).
	Allowed []Value
}

// Interval is a possibly-unbounded numeric interval.
type Interval struct {
	HasLo, HasHi   bool
	Lo, Hi         float64
	LoOpen, HiOpen bool
}

// Unbounded is the interval admitting every number.
var Unbounded = Interval{}

// NewRange returns the closed interval [lo, hi].
func NewRange(lo, hi float64) Interval {
	return Interval{HasLo: true, Lo: lo, HasHi: true, Hi: hi}
}

// AtLeast returns the interval [lo, +inf).
func AtLeast(lo float64) Interval { return Interval{HasLo: true, Lo: lo} }

// AtMost returns the interval (-inf, hi].
func AtMost(hi float64) Interval { return Interval{HasHi: true, Hi: hi} }

// GreaterThan returns the interval (lo, +inf).
func GreaterThan(lo float64) Interval { return Interval{HasLo: true, Lo: lo, LoOpen: true} }

// LessThan returns the interval (-inf, hi).
func LessThan(hi float64) Interval { return Interval{HasHi: true, Hi: hi, HiOpen: true} }

// Exactly returns the degenerate interval [v, v].
func Exactly(v float64) Interval { return NewRange(v, v) }

// Empty reports whether the interval admits no number.
func (iv Interval) Empty() bool {
	if !iv.HasLo || !iv.HasHi {
		return false
	}
	if iv.Lo > iv.Hi {
		return true
	}
	return iv.Lo == iv.Hi && (iv.LoOpen || iv.HiOpen)
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool {
	if iv.HasLo {
		if x < iv.Lo || (iv.LoOpen && x == iv.Lo) {
			return false
		}
	}
	if iv.HasHi {
		if x > iv.Hi || (iv.HiOpen && x == iv.Hi) {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(o Interval) Interval {
	out := iv
	if o.HasLo && (!out.HasLo || o.Lo > out.Lo || (o.Lo == out.Lo && o.LoOpen)) {
		out.HasLo, out.Lo, out.LoOpen = true, o.Lo, o.LoOpen
		if o.Lo == iv.Lo && iv.HasLo {
			out.LoOpen = iv.LoOpen || o.LoOpen
		}
	}
	if o.HasHi && (!out.HasHi || o.Hi < out.Hi || (o.Hi == out.Hi && o.HiOpen)) {
		out.HasHi, out.Hi, out.HiOpen = true, o.Hi, o.HiOpen
		if o.Hi == iv.Hi && iv.HasHi {
			out.HiOpen = iv.HiOpen || o.HiOpen
		}
	}
	return out
}

// Overlaps reports whether the two intervals share at least one number.
func (iv Interval) Overlaps(o Interval) bool { return !iv.Intersect(o).Empty() }

// Covers reports whether iv is a superset of o (every number admitted by o
// is admitted by iv). An empty o is covered by anything.
func (iv Interval) Covers(o Interval) bool {
	if o.Empty() {
		return true
	}
	if iv.Empty() {
		return false
	}
	if iv.HasLo {
		if !o.HasLo {
			return false
		}
		if o.Lo < iv.Lo {
			return false
		}
		if o.Lo == iv.Lo && iv.LoOpen && !o.LoOpen {
			return false
		}
	}
	if iv.HasHi {
		if !o.HasHi {
			return false
		}
		if o.Hi > iv.Hi {
			return false
		}
		if o.Hi == iv.Hi && iv.HiOpen && !o.HiOpen {
			return false
		}
	}
	return true
}

// String renders the interval in constraint syntax fragments.
func (iv Interval) String() string {
	switch {
	case !iv.HasLo && !iv.HasHi:
		return "any"
	case iv.HasLo && iv.HasHi && iv.Lo == iv.Hi && !iv.LoOpen && !iv.HiOpen:
		return fmt.Sprintf("= %s", Num(iv.Lo))
	case iv.HasLo && iv.HasHi:
		if iv.LoOpen || iv.HiOpen {
			lo, hi := "[", "]"
			if iv.LoOpen {
				lo = "("
			}
			if iv.HiOpen {
				hi = ")"
			}
			return fmt.Sprintf("in %s%s, %s%s", lo, Num(iv.Lo), Num(iv.Hi), hi)
		}
		return fmt.Sprintf("between %s and %s", Num(iv.Lo), Num(iv.Hi))
	case iv.HasLo:
		op := ">="
		if iv.LoOpen {
			op = ">"
		}
		return fmt.Sprintf("%s %s", op, Num(iv.Lo))
	default:
		op := "<="
		if iv.HiOpen {
			op = "<"
		}
		return fmt.Sprintf("%s %s", op, Num(iv.Hi))
	}
}

// discrete reports whether the atom constrains by value set rather than
// interval.
func (a Atom) discrete() bool { return a.Allowed != nil }

// Empty reports whether the atom admits no value at all.
func (a Atom) Empty() bool {
	if a.discrete() {
		return len(a.Allowed) == 0
	}
	return a.Interval.Empty()
}

// Matches reports whether a concrete value satisfies the atom.
func (a Atom) Matches(v Value) bool {
	if a.discrete() {
		for _, w := range a.Allowed {
			if w.Equal(v) {
				return true
			}
		}
		return false
	}
	if v.Kind() != KindNumber {
		return false
	}
	return a.Interval.Contains(v.Number())
}

// Overlaps reports whether two atoms on the same field admit a common value.
func (a Atom) Overlaps(b Atom) bool {
	switch {
	case a.discrete() && b.discrete():
		for _, v := range a.Allowed {
			for _, w := range b.Allowed {
				if v.Equal(w) {
					return true
				}
			}
		}
		return false
	case a.discrete():
		for _, v := range a.Allowed {
			if b.Matches(v) {
				return true
			}
		}
		return false
	case b.discrete():
		return b.Overlaps(a)
	default:
		return a.Interval.Overlaps(b.Interval)
	}
}

// Covers reports whether atom a admits every value that atom b admits.
func (a Atom) Covers(b Atom) bool {
	switch {
	case b.discrete():
		for _, v := range b.Allowed {
			if !a.Matches(v) {
				return false
			}
		}
		return true
	case a.discrete():
		// An interval (with uncountably many points) can only be covered
		// by a discrete set if the interval is degenerate.
		iv := b.Interval
		if iv.Empty() {
			return true
		}
		if iv.HasLo && iv.HasHi && iv.Lo == iv.Hi && !iv.LoOpen && !iv.HiOpen {
			return a.Matches(Num(iv.Lo))
		}
		return false
	default:
		return a.Interval.Covers(b.Interval)
	}
}

// Intersect returns the atom admitting exactly the values admitted by both.
// The atoms must constrain the same field.
func (a Atom) Intersect(b Atom) Atom {
	if a.Field != b.Field {
		panic(fmt.Sprintf("constraint: intersecting atoms on different fields %q and %q", a.Field, b.Field))
	}
	switch {
	case a.discrete() && b.discrete():
		var out []Value
		for _, v := range a.Allowed {
			for _, w := range b.Allowed {
				if v.Equal(w) {
					out = append(out, v)
					break
				}
			}
		}
		if out == nil {
			out = []Value{}
		}
		return Atom{Field: a.Field, Allowed: out}
	case a.discrete():
		var out []Value
		for _, v := range a.Allowed {
			if b.Matches(v) {
				out = append(out, v)
			}
		}
		if out == nil {
			out = []Value{}
		}
		return Atom{Field: a.Field, Allowed: out}
	case b.discrete():
		return b.Intersect(a)
	default:
		return Atom{Field: a.Field, Interval: a.Interval.Intersect(b.Interval)}
	}
}

// String renders the atom in constraint syntax.
func (a Atom) String() string {
	if a.discrete() {
		if len(a.Allowed) == 1 {
			return fmt.Sprintf("%s = %s", a.Field, a.Allowed[0])
		}
		parts := make([]string, len(a.Allowed))
		for i, v := range a.Allowed {
			parts[i] = v.String()
		}
		return fmt.Sprintf("%s in (%s)", a.Field, strings.Join(parts, ", "))
	}
	if iv := a.Interval; iv.HasLo && iv.HasHi && (iv.LoOpen || iv.HiOpen) {
		// The grammar has no range with an open end, and "in (lo, hi)"
		// reads back as a value list: conjoin the two comparisons.
		lower, upper := iv, iv
		lower.HasHi, upper.HasLo = false, false
		return fmt.Sprintf("%s %s AND %s %s", a.Field, lower, a.Field, upper)
	}
	return fmt.Sprintf("%s %s", a.Field, a.Interval)
}

// Set is a conjunction of atoms, at most one per field (atoms added on the
// same field are intersected). The zero value is the empty conjunction,
// which admits everything.
type Set struct {
	// atoms is sorted by Field, one atom per field. Sets hold one to a
	// handful of atoms, so a slice costs a fraction of a map and turns
	// Overlaps and Covers into merges.
	atoms []Atom
}

// NewSet returns a Set holding the given atoms.
func NewSet(atoms ...Atom) *Set {
	s := &Set{}
	for _, a := range atoms {
		s.Add(a)
	}
	return s
}

// find returns the position of field's atom, or where it would be
// inserted, and whether it is there.
func (s *Set) find(field string) (int, bool) {
	return slices.BinarySearchFunc(s.atoms, field, func(a Atom, f string) int {
		return strings.Compare(a.Field, f)
	})
}

// Add conjoins an atom into the set, intersecting with any existing atom on
// the same field.
func (s *Set) Add(a Atom) {
	i, ok := s.find(a.Field)
	if ok {
		s.atoms[i] = s.atoms[i].Intersect(a)
		return
	}
	s.atoms = slices.Insert(s.atoms, i, a)
}

// Len returns the number of constrained fields.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.atoms)
}

// Atom returns the constraint on a field, if any.
func (s *Set) Atom(field string) (Atom, bool) {
	if s == nil {
		return Atom{}, false
	}
	if i, ok := s.find(field); ok {
		return s.atoms[i], true
	}
	return Atom{}, false
}

// Fields returns the constrained field names in sorted order.
func (s *Set) Fields() []string {
	if s == nil {
		return nil
	}
	out := make([]string, len(s.atoms))
	for i, a := range s.atoms {
		out[i] = a.Field
	}
	return out
}

// Atoms returns the atoms in field order.
func (s *Set) Atoms() []Atom {
	out := make([]Atom, s.Len())
	if s != nil {
		copy(out, s.atoms)
	}
	return out
}

// Unsatisfiable reports whether some atom admits no value (the conjunction
// is contradictory).
func (s *Set) Unsatisfiable() bool {
	if s == nil {
		return false
	}
	for i := range s.atoms {
		if s.atoms[i].Empty() {
			return true
		}
	}
	return false
}

// Overlaps reports whether the two conjunctions could be satisfied by a
// common data item: for every field constrained by both, the atoms must
// overlap; fields constrained by only one side are unconstrained on the
// other and never rule a match out. This is the broker's admission test —
// an advertisement for patients aged 43-75 overlaps a request for patients
// aged 25-65.
func (s *Set) Overlaps(o *Set) bool {
	if s.Unsatisfiable() || o.Unsatisfiable() {
		return false
	}
	if s == nil || o == nil {
		return true
	}
	a, b := s.atoms, o.atoms
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := strings.Compare(a[i].Field, b[j].Field); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			if !a[i].Overlaps(b[j]) {
				return false
			}
			i++
			j++
		}
	}
	return true
}

// Covers reports whether every data item admitted by o is admitted by s
// (s subsumes o). s covers o when every field s constrains is constrained
// at least as tightly in o.
func (s *Set) Covers(o *Set) bool {
	if o.Unsatisfiable() {
		return true
	}
	if s.Len() == 0 {
		return true
	}
	if o == nil {
		return false
	}
	b, j := o.atoms, 0
	for _, a := range s.atoms {
		for j < len(b) && b[j].Field < a.Field {
			j++
		}
		if j == len(b) || b[j].Field != a.Field || !a.Covers(b[j]) {
			return false
		}
		j++
	}
	return true
}

// Matches reports whether a concrete record (field → value) satisfies every
// atom in the conjunction. Fields absent from the record fail their atoms.
func (s *Set) Matches(record map[string]Value) bool {
	if s == nil {
		return true
	}
	for _, a := range s.atoms {
		v, ok := record[a.Field]
		if !ok || !a.Matches(v) {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	out := &Set{}
	if s.Len() > 0 {
		out.atoms = slices.Clone(s.atoms)
		for i, a := range out.atoms {
			if a.Allowed != nil {
				out.atoms[i].Allowed = slices.Clone(a.Allowed)
			}
		}
	}
	return out
}

// String renders the conjunction in the paper's parenthesized AND syntax.
func (s *Set) String() string {
	if s.Len() == 0 {
		return "(true)"
	}
	parts := make([]string, len(s.atoms))
	for i, a := range s.atoms {
		parts[i] = "(" + a.String() + ")"
	}
	return strings.Join(parts, " AND ")
}
