package constraint

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomAtom draws every shape an atom can take: closed, open,
// half-bounded, unbounded, degenerate and discrete (numbers, strings,
// mixed).
func randomAtom(r *rand.Rand, field string) Atom {
	lo := float64(r.Intn(100))
	hi := lo + float64(r.Intn(40))
	switch r.Intn(9) {
	case 0:
		return Atom{Field: field, Interval: AtLeast(lo)}
	case 1:
		return Atom{Field: field, Interval: LessThan(hi)}
	case 2:
		return Atom{Field: field, Interval: Unbounded}
	case 3:
		return Atom{Field: field, Interval: Exactly(lo)}
	case 4:
		return Atom{Field: field, Allowed: []Value{Num(lo), Num(hi)}}
	case 5:
		return Atom{Field: field, Allowed: []Value{Str("x"), Num(lo)}}
	default:
		iv := NewRange(lo, hi+1)
		iv.LoOpen, iv.HiOpen = r.Intn(3) == 0, r.Intn(3) == 0
		return Atom{Field: field, Interval: iv}
	}
}

// randomRegion constrains a random subset of the fields; nil now and then.
func randomRegion(r *rand.Rand, fields []string) *Set {
	if r.Intn(8) == 0 {
		return nil
	}
	s := &Set{}
	for _, f := range fields {
		if r.Intn(3) == 0 {
			s.Add(randomAtom(r, f))
		}
	}
	if s.Unsatisfiable() {
		return &Set{}
	}
	return s
}

// TestRegionIndexNeverMisses is the soundness property the broker's class
// postings (and, next, the hub's publish path) rest on: whatever was added
// and removed, a probe returns every held id one of whose regions Overlaps
// it, and no id that is not held. Twelve field names against a bound of
// eight indexed fields keeps the not-indexed path in play.
func TestRegionIndexNeverMisses(t *testing.T) {
	var fields []string
	for i := 0; i < 12; i++ {
		fields = append(fields, fmt.Sprintf("c.f%d", i))
	}
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		// Few fields in most scenarios, so that trees fill up; all twelve
		// in some, so that the bound is hit.
		use := fields[:1+r.Intn(3)]
		if seed%5 == 0 {
			use = fields
		}
		x := NewRegionIndex[int]()
		held := map[int][]*Set{}
		for step := 0; step < 60; step++ {
			id := r.Intn(25)
			if regions, ok := held[id]; ok {
				x.Remove(id, regions)
				delete(held, id)
			}
			if r.Intn(4) > 0 {
				regions := make([]*Set, 1+r.Intn(3))
				for i := range regions {
					regions[i] = randomRegion(r, use)
				}
				x.Add(id, regions)
				held[id] = regions
			}
			if x.Len() != len(held) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, x.Len(), len(held))
			}
			if len(x.fields) > maxIndexedFields {
				t.Fatalf("seed %d step %d: %d fields indexed, bound is %d", seed, step, len(x.fields), maxIndexedFields)
			}
			for _, tree := range x.fields {
				if tree.n != len(held) {
					t.Fatalf("seed %d step %d: a tree holds %d entries for %d ids", seed, step, tree.n, len(held))
				}
			}
			for p := 0; p < 4; p++ {
				probe := randomRegion(r, use)
				got := x.AppendCandidates(nil, probe)
				slices.Sort(got)
				if len(slices.Compact(slices.Clone(got))) != len(got) {
					t.Fatalf("seed %d step %d: probe %v returned an id twice: %v", seed, step, probe, got)
				}
				for _, id := range got {
					if _, ok := held[id]; !ok {
						t.Fatalf("seed %d step %d: probe %v returned %d, which is not held", seed, step, probe, id)
					}
				}
				for id, regions := range held {
					overlaps := false
					for _, region := range regions {
						overlaps = overlaps || region.Overlaps(probe)
					}
					if _, found := slices.BinarySearch(got, id); overlaps && !found {
						t.Fatalf("seed %d step %d: probe %v missed id %d with regions %v (got %v)", seed, step, probe, id, regions, got)
					}
				}
			}
		}
		for id, regions := range held {
			x.Remove(id, regions)
		}
		if x.Len() != 0 || len(x.fields) != 0 {
			t.Fatalf("seed %d: emptied index keeps %d ids and %d field trees", seed, x.Len(), len(x.fields))
		}
	}
}

// TestRegionIndexPicksSelectiveAtom: with two usable atoms the probe stabs
// with the one that answers fewer ids, whichever the map hands over first.
func TestRegionIndexPicksSelectiveAtom(t *testing.T) {
	x := NewRegionIndex[int]()
	for i := 0; i < 1000; i++ {
		x.Add(i, []*Set{NewSet(
			Atom{Field: "wide", Interval: NewRange(0, 1000)},
			Atom{Field: "narrow", Interval: NewRange(float64(i), float64(i)+1)},
		)})
	}
	probe := NewSet(
		Atom{Field: "wide", Interval: NewRange(10, 20)},
		Atom{Field: "narrow", Interval: NewRange(500, 502)},
	)
	for i := 0; i < 20; i++ {
		if got := x.AppendCandidates(nil, probe); len(got) != 4 {
			t.Fatalf("probe returned %d ids, want the 4 the narrow atom selects", len(got))
		}
	}
}

// TestRegionIndexWidthSkew: one interval spanning the whole domain among
// 10,000 narrow ones must cost a probe a few extra nodes, not a scan. The
// tree is built in ascending, descending and shuffled order, since a bound
// that held for one insertion order only would be luck.
func TestRegionIndexWidthSkew(t *testing.T) {
	const n = 10_000
	orders := map[string]func(i int) int{
		"ascending":  func(i int) int { return i },
		"descending": func(i int) int { return n - 1 - i },
		"shuffled":   func(i int) int { return i * 7919 % n },
	}
	for name, order := range orders {
		x := NewRegionIndex[int]()
		x.Add(-1, []*Set{NewSet(Atom{Field: "f", Interval: NewRange(-1e9, 1e9)})})
		for i := 0; i < n; i++ {
			j := order(i)
			x.Add(j, []*Set{NewSet(Atom{Field: "f", Interval: NewRange(float64(10*j), float64(10*j+25))})})
		}
		tree := x.fields["f"]
		worst := 0
		for _, lo := range []float64{0, 5, 4_000, 50_003, 99_970, 99_999, 250_000} {
			var examined int
			got := tree.root.collect(lo, lo+20, nil, &examined)
			// Intervals j with 10j+25 >= lo and 10j <= lo+20, plus the wide one.
			want := 1
			for j := 0; j < n; j++ {
				if float64(10*j+25) >= lo && float64(10*j) <= lo+20 {
					want++
				}
			}
			if len(got) != want {
				t.Errorf("%s: probe at %v returned %d ids, want %d", name, lo, len(got), want)
			}
			// Answers, the ancestors of each, and one root-to-leaf path; a
			// treap of 10,001 nodes is rarely deeper than 3 log2 n = 40.
			bound := 4 * (int(math.Log2(n)) + len(got))
			if examined > bound {
				t.Errorf("%s: probe at %v examined %d nodes for %d answers, bound %d", name, lo, examined, len(got), bound)
			}
			worst = max(worst, examined)
		}
		t.Logf("%s: at most %d of %d nodes examined per probe", name, worst, n+1)
	}
}
