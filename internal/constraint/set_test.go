package constraint

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// mapSet is the map-backed Set this package had before Set became a
// sorted slice. It is the reference the slice is held to: every method
// below is the old one, body unchanged but for the type.
type mapSet struct {
	atoms map[string]Atom
}

func (s *mapSet) Add(a Atom) {
	if s.atoms == nil {
		s.atoms = make(map[string]Atom)
	}
	if prev, ok := s.atoms[a.Field]; ok {
		a = prev.Intersect(a)
	}
	s.atoms[a.Field] = a
}

func (s *mapSet) Len() int { return len(s.atoms) }

func (s *mapSet) Fields() []string {
	out := make([]string, 0, len(s.atoms))
	for f := range s.atoms {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

func (s *mapSet) Atoms() []Atom {
	fields := s.Fields()
	out := make([]Atom, len(fields))
	for i, f := range fields {
		out[i] = s.atoms[f]
	}
	return out
}

func (s *mapSet) Unsatisfiable() bool {
	for _, a := range s.atoms {
		if a.Empty() {
			return true
		}
	}
	return false
}

func (s *mapSet) Overlaps(o *mapSet) bool {
	if s.Unsatisfiable() || o.Unsatisfiable() {
		return false
	}
	for f, a := range s.atoms {
		if b, ok := o.atoms[f]; ok && !a.Overlaps(b) {
			return false
		}
	}
	return true
}

func (s *mapSet) Covers(o *mapSet) bool {
	if o.Unsatisfiable() {
		return true
	}
	if s.Len() == 0 {
		return true
	}
	for f, a := range s.atoms {
		b, ok := o.atoms[f]
		if !ok || !a.Covers(b) {
			return false
		}
	}
	return true
}

func (s *mapSet) Matches(record map[string]Value) bool {
	for f, a := range s.atoms {
		v, ok := record[f]
		if !ok || !a.Matches(v) {
			return false
		}
	}
	return true
}

func (s *mapSet) String() string {
	if s.Len() == 0 {
		return "(true)"
	}
	atoms := s.Atoms()
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = "(" + a.String() + ")"
	}
	return strings.Join(parts, " AND ")
}

func (s *mapSet) MarshalJSON() ([]byte, error) { return json.Marshal(s.Atoms()) }

var lawFields = []string{"c.a", "c.b", "c.c", "d.a"}

// lawAtom draws every atom shape: closed, open and half-open ranges,
// half-bounded and unbounded intervals, points, empty intervals, and
// discrete lists of numbers and strings, empty ones included. Discrete
// lists are sorted and distinct.
func lawAtom(r *rand.Rand) Atom {
	a := Atom{Field: lawFields[r.Intn(len(lawFields))]}
	lo := float64(r.Intn(20) - 5)
	hi := lo + float64(r.Intn(8)) - 1
	switch r.Intn(9) {
	case 0:
		a.Interval = Unbounded
	case 1:
		a.Interval = AtLeast(lo)
		a.Interval.LoOpen = r.Intn(2) == 0
	case 2:
		a.Interval = AtMost(hi)
		a.Interval.HiOpen = r.Intn(2) == 0
	case 3:
		a.Interval = Exactly(lo)
	case 4, 5:
		a.Interval = NewRange(lo, hi)
		a.Interval.LoOpen, a.Interval.HiOpen = r.Intn(3) == 0, r.Intn(3) == 0
	default:
		a.Allowed = []Value{}
		for _, v := range []Value{Num(lo), Num(lo + 2), Num(hi), Str("x"), Str("y")} {
			if r.Intn(3) == 0 {
				a.Allowed = append(a.Allowed, v)
			}
		}
		slices.SortFunc(a.Allowed, Value.Compare)
		a.Allowed = slices.CompactFunc(a.Allowed, Value.Equal)
	}
	return a
}

func lawAtoms(r *rand.Rand) []Atom {
	atoms := make([]Atom, r.Intn(5))
	for i := range atoms {
		atoms[i] = lawAtom(r)
	}
	return atoms
}

func bothSets(atoms []Atom) (*Set, *mapSet) {
	s, m := &Set{}, &mapSet{}
	for _, a := range atoms {
		s.Add(a)
		m.Add(a)
	}
	return s, m
}

func lawRecord(r *rand.Rand) map[string]Value {
	rec := map[string]Value{}
	for _, f := range lawFields {
		switch r.Intn(4) {
		case 0:
		case 1:
			rec[f] = Str("x")
		default:
			rec[f] = Num(float64(r.Intn(20) - 5))
		}
	}
	return rec
}

// TestSetMatchesMapReference holds the sorted-slice Set to the map-backed
// one on random atoms: the same answers from Overlaps, Covers, Matches,
// Unsatisfiable and Fields, and the same String and JSON bytes.
func TestSetMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		s, ms := bothSets(lawAtoms(r))
		o, mo := bothSets(lawAtoms(r))
		rec := lawRecord(r)
		where := fmt.Sprintf("case %d: %v vs %v", i, s, o)
		if got, want := s.Overlaps(o), ms.Overlaps(mo); got != want {
			t.Fatalf("%s: Overlaps = %v, reference %v", where, got, want)
		}
		if got, want := s.Covers(o), ms.Covers(mo); got != want {
			t.Fatalf("%s: Covers = %v, reference %v", where, got, want)
		}
		if got, want := s.Matches(rec), ms.Matches(rec); got != want {
			t.Fatalf("%s: Matches(%v) = %v, reference %v", where, rec, got, want)
		}
		if got, want := s.Unsatisfiable(), ms.Unsatisfiable(); got != want {
			t.Fatalf("%s: Unsatisfiable = %v, reference %v", where, got, want)
		}
		if got, want := s.Fields(), ms.Fields(); !slices.Equal(got, want) {
			t.Fatalf("%s: Fields = %v, reference %v", where, got, want)
		}
		if got, want := s.String(), ms.String(); got != want {
			t.Fatalf("%s: String = %q, reference %q", where, got, want)
		}
		got, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ms)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: JSON %s, reference %s", where, got, want)
		}
	}
}

// TestSetAlgebraLaws: Overlaps is symmetric, Covers implies Overlaps
// between satisfiable sets, and the order atoms are added in does not
// change the set.
func TestSetAlgebraLaws(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 20_000; i++ {
		atoms := lawAtoms(r)
		s := NewSet(atoms...)
		o := NewSet(lawAtoms(r)...)
		if s.Overlaps(o) != o.Overlaps(s) {
			t.Fatalf("case %d: %v overlaps %v is %v one way and %v the other", i, s, o, s.Overlaps(o), o.Overlaps(s))
		}
		for _, pair := range [][2]*Set{{s, o}, {s, s}, {o, o}} {
			a, b := pair[0], pair[1]
			if a.Covers(b) && !a.Unsatisfiable() && !b.Unsatisfiable() && !a.Overlaps(b) {
				t.Fatalf("case %d: %v covers %v without overlapping it", i, a, b)
			}
		}
		shuffled := slices.Clone(atoms)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got, want := NewSet(shuffled...).String(), s.String(); got != want {
			t.Fatalf("case %d: atoms %v added in another order give %q, want %q", i, atoms, got, want)
		}
	}
}

// FuzzConstraintParse: whatever Parse accepts renders to a form that
// parses back to the same rendering and the same region, and a
// satisfiable set overlaps itself.
func FuzzConstraintParse(f *testing.F) {
	for _, seed := range []string{
		"patient age between 43 and 75",
		"(patient age between 25 and 65) AND (patient.diagnosis code = '40W')",
		"c.a > 1 AND c.a < 10",
		"c.a >= 1 and c.a < 10 and c.b in (1, 'x', \"y\")",
		"c.a in ('x') AND c.a in ('y')",
		"true",
		"(c.a <= -2.5e3) AND (c.b = 40W)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(in)
		if err != nil {
			return
		}
		text := s.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which does not parse: %v", in, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("Parse(%q) renders %q, which parses and renders as %q", in, text, got)
		}
		if !s.Covers(again) || !again.Covers(s) {
			t.Fatalf("Parse(%q) = %v and its rendering parses to a different region", in, s)
		}
		if !s.Unsatisfiable() && !s.Overlaps(s) {
			t.Fatalf("satisfiable %v does not overlap itself", s)
		}
	})
}
