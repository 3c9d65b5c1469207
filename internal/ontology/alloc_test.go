//go:build !race

package ontology

import (
	"testing"

	"infosleuth/internal/constraint"
)

// TestMatchAllocs: Match and Specificity run once per candidate of every
// uncached search, and walk the advertisement's fragments in place.
func TestMatchAllocs(t *testing.T) {
	w := NewWorld(Generic())
	frag := func(class string, lo, hi float64) Fragment {
		return Fragment{Ontology: "generic", Classes: []string{class}, Constraints: constraint.NewSet(
			constraint.Atom{Field: "c2.a", Interval: constraint.NewRange(lo, hi)})}
	}
	one := &Advertisement{Name: "one", Type: TypeResource, ContentLanguages: []string{LangSQL2},
		Capabilities: []string{CapRelationalQueryProcessing}, Content: []Fragment{frag("C2", 0, 100)}}
	three := &Advertisement{Name: "three", Type: TypeResource, ContentLanguages: []string{LangSQL2},
		Capabilities: []string{CapRelationalQueryProcessing},
		Content:      []Fragment{frag("C1", 500, 600), {Ontology: "healthcare", Classes: []string{"patient"}}, frag("C2a", 40, 60)}}
	q := &Query{Type: TypeResource, ContentLanguage: LangSQL2, Ontology: "generic", Classes: []string{"C2"},
		Capabilities: []string{CapRelationalQueryProcessing},
		Constraints:  constraint.NewSet(constraint.Atom{Field: "c2.a", Interval: constraint.NewRange(50, 70)})}
	for _, ad := range []*Advertisement{one, three} {
		if got := Match(w, ad, q); got != Matched {
			t.Fatalf("%s: Match = %q, want a match", ad.Name, got)
		}
		if n := testing.AllocsPerRun(100, func() { Match(w, ad, q) }); n != 0 {
			t.Errorf("%s: Match allocates %.0f per call, want 0", ad.Name, n)
		}
		if n := testing.AllocsPerRun(100, func() { Specificity(w, ad, q) }); n != 0 {
			t.Errorf("%s: Specificity allocates %.0f per call, want 0", ad.Name, n)
		}
	}
}
