package broker

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"infosleuth/internal/constraint"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/telemetry/provenance"
	"infosleuth/internal/transport"
)

// The generated differential test for the class postings. The index may
// only ever narrow what ontology.Match is run over, so it is held to a
// repository that scans everything: an indexed and an unindexed
// repository go through the same seeded Put / replace / Remove steps, and
// after every step every query must get the same ranked names from both,
// from the cached matchers kept alive across the steps, and from the
// Datalog engine, which never sees the index.

// indexScenario is one seed's world and vocabulary.
type indexScenario struct {
	r       *rand.Rand
	world   *ontology.World
	classes []string // the ontology's classes plus two it does not know
}

var (
	scenarioOntologyNames = []string{"Onto", "onto", "ONTO", "other"}
	scenarioFields        = []string{"k.a", "k.b", "K.a"}
	scenarioTypes         = []ontology.AgentType{ontology.TypeResource, ontology.TypeResource, ontology.TypeQuery, ontology.TypeBroker}
)

func newIndexScenario(seed int64) *indexScenario {
	sc := &indexScenario{r: rand.New(rand.NewSource(seed))}
	// Subclass chains of random depth, plus names that differ only in
	// case: class names are matched exactly.
	ont := ontology.New("Onto")
	for _, root := range []string{"A", "B", "a"} {
		ont.MustAddClass(ontology.Class{Name: root})
		sc.classes = append(sc.classes, root)
		parent := root
		for depth := sc.r.Intn(4); depth > 0; depth-- {
			child := parent + "x"
			ont.MustAddClass(ontology.Class{Name: child, IsA: parent})
			sc.classes = append(sc.classes, child)
			if sc.r.Intn(3) == 0 { // a sibling branch
				sib := parent + "y"
				ont.MustAddClass(ontology.Class{Name: sib, IsA: parent})
				sc.classes = append(sc.classes, sib)
			}
			parent = child
		}
	}
	sc.classes = append(sc.classes, "Zed", "Ax2")
	sc.world = ontology.NewWorld(ont, ontology.New("other"))
	return sc
}

func (sc *indexScenario) pick(from []string) string { return from[sc.r.Intn(len(from))] }

func (sc *indexScenario) atom(field string) constraint.Atom {
	lo := float64(sc.r.Intn(60))
	hi := lo + float64(sc.r.Intn(30))
	switch sc.r.Intn(10) {
	case 0:
		return constraint.Atom{Field: field, Interval: constraint.AtLeast(lo)}
	case 1:
		return constraint.Atom{Field: field, Interval: constraint.AtMost(hi)}
	case 2:
		return constraint.Atom{Field: field, Interval: constraint.GreaterThan(lo)}
	case 3:
		return constraint.Atom{Field: field, Interval: constraint.Unbounded}
	case 4:
		return constraint.Atom{Field: field, Allowed: []constraint.Value{constraint.Num(lo), constraint.Num(hi)}}
	case 5:
		return constraint.Atom{Field: field, Allowed: []constraint.Value{constraint.Str("v"), constraint.Num(lo)}}
	default:
		iv := constraint.NewRange(lo, hi+1)
		iv.LoOpen, iv.HiOpen = sc.r.Intn(3) == 0, sc.r.Intn(3) == 0
		return constraint.Atom{Field: field, Interval: iv}
	}
}

// constraints returns nil, an empty set, or up to max atoms.
func (sc *indexScenario) constraints(max int) *constraint.Set {
	switch n := sc.r.Intn(max + 2); n {
	case 0:
		return nil
	case 1:
		return constraint.NewSet()
	default:
		s := constraint.NewSet()
		for i := 0; i < n-1; i++ {
			s.Add(sc.atom(sc.pick(scenarioFields)))
		}
		if s.Unsatisfiable() { // two atoms met on one field and missed
			return nil
		}
		return s
	}
}

// ad builds agent i's next advertisement: 0 to 3 fragments, and now and
// then one that Put has to refuse (a fragment without classes), which both
// repositories must refuse alike.
func (sc *indexScenario) ad(i int) *ontology.Advertisement {
	name := fmt.Sprintf("agent-%02d", i)
	if sc.r.Intn(3) == 0 {
		name = strings.ToUpper(name) // same key: Put replaces
	}
	ad := &ontology.Advertisement{
		Name:             name,
		Address:          "inproc://" + name,
		Type:             scenarioTypes[sc.r.Intn(len(scenarioTypes))],
		CommLanguages:    []string{ontology.LangKQML},
		ContentLanguages: []string{ontology.LangSQL2},
		Capabilities:     []string{ontology.CapRelationalQueryProcessing},
	}
	if sc.r.Intn(4) == 0 {
		ad.ContentLanguages = []string{ontology.LangOQL}
	}
	if ad.Type == ontology.TypeBroker {
		ad.Broker = &ontology.BrokerInfo{Community: "test"}
	}
	for n := sc.r.Intn(4); n > 0; n-- {
		f := ontology.Fragment{Ontology: sc.pick(scenarioOntologyNames), Constraints: sc.constraints(2)}
		for c := sc.r.Intn(8); c > 0 && len(f.Classes) < 2; c -= 3 {
			f.Classes = append(f.Classes, sc.pick(sc.classes))
		}
		ad.Content = append(ad.Content, f)
	}
	return ad
}

func (sc *indexScenario) query() *ontology.Query {
	q := &ontology.Query{}
	if sc.r.Intn(2) == 0 {
		q.Type = scenarioTypes[sc.r.Intn(len(scenarioTypes))]
	}
	if sc.r.Intn(3) == 0 {
		q.ContentLanguage = ontology.LangSQL2
	}
	if sc.r.Intn(6) > 0 {
		q.Ontology = sc.pick(scenarioOntologyNames)
		for n := sc.r.Intn(3); n > 0; n-- {
			q.Classes = append(q.Classes, sc.pick(sc.classes))
		}
		q.Constraints = sc.constraints(2)
	}
	return q
}

// checkPostings holds the class postings to the advertisements stored:
// every key a posting holds is an ad of that type serving that class on
// that ontology, and every stored ad is in every posting it serves. A
// removed or replaced ad therefore lingers nowhere.
func checkPostings(t *testing.T, label string, r *Repository) {
	t.Helper()
	want := map[classKey][]string{}
	for key, ad := range r.ads {
		for _, f := range ad.Content {
			for _, class := range f.Classes {
				k := classKey{ad.Type, strings.ToLower(f.Ontology), class}
				if !slices.Contains(want[k], key) {
					want[k] = append(want[k], key)
				}
			}
		}
	}
	got := map[classKey][]string{}
	for k, p := range r.byClass {
		got[k] = p.AppendCandidates(nil, nil)
		slices.Sort(got[k])
	}
	for k := range want {
		slices.Sort(want[k])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: postings = %v, want %v", label, got, want)
	}
}

func TestIndexDifferential(t *testing.T) {
	scenarios := int64(240)
	if testing.Short() {
		scenarios = 60
	}
	for seed := int64(0); seed < scenarios; seed++ {
		sc := newIndexScenario(seed)
		direct := &DirectMatcher{World: sc.world}
		dl := &DatalogMatcher{World: sc.world}
		repos := []*Repository{NewRepository(), NewUnindexedRepository()}
		labels := []string{"indexed", "unindexed"}
		cached := make([]*CachedMatcher, len(repos))
		for i := range cached {
			cached[i] = NewCachedMatcher(direct, 0)
		}
		// A fixed handful of queries per scenario, asked after every
		// step, so cached results are there to go stale.
		queries := make([]*ontology.Query, 5)
		for i := range queries {
			queries[i] = sc.query()
		}

		for step := 0; step < 14; step++ {
			agent := sc.r.Intn(9)
			var what string
			if sc.r.Intn(4) == 0 {
				name := fmt.Sprintf("Agent-%02d", agent)
				what = "Remove " + name
				was := repos[0].Remove(name)
				for i, r := range repos[1:] {
					if r.Remove(name) != was {
						t.Fatalf("seed %d step %d: %s: %s and indexed disagree", seed, step, what, labels[i+1])
					}
				}
			} else {
				ad := sc.ad(agent)
				what = fmt.Sprintf("Put %s %v", ad.Name, ad.Content)
				err := repos[0].Put(ad)
				for i, r := range repos[1:] {
					if (r.Put(ad) == nil) != (err == nil) {
						t.Fatalf("seed %d step %d: %s: %s and indexed disagree (indexed: %v)", seed, step, what, labels[i+1], err)
					}
				}
			}
			at := fmt.Sprintf("seed %d step %d after %s", seed, step, what)
			for i, r := range repos {
				checkPostings(t, at+": "+labels[i], r)
			}
			for _, q := range queries {
				want, err := dl.Match(repos[0], q)
				if err != nil {
					t.Fatalf("%s: datalog %s: %v", at, q, err)
				}
				for i, r := range repos {
					where := fmt.Sprintf("%s: %s %s", at, labels[i], q)
					got, err := direct.Match(r, q)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if !slices.Equal(namesOf(got), namesOf(want)) {
						t.Fatalf("%s: direct %v, datalog on indexed %v", where, namesOf(got), namesOf(want))
					}
					cands := r.candidates(sc.world, q)
					for _, ad := range got {
						if !slices.Contains(cands, ad) {
							t.Fatalf("%s: candidates %v omit match %s", where, namesOf(cands), ad.Name)
						}
					}
					names := namesOf(cands)
					slices.Sort(names)
					if len(slices.Compact(names)) != len(cands) {
						t.Fatalf("%s: candidates repeat an ad: %v", where, namesOf(cands))
					}
					viaCache, err := cached[i].Match(r, q)
					if err != nil {
						t.Fatalf("%s: cached: %v", where, err)
					}
					if !slices.Equal(namesOf(viaCache), namesOf(want)) {
						t.Fatalf("%s: cached %v, want %v", where, namesOf(viaCache), namesOf(want))
					}
				}
			}
		}
	}
}

// TestAdvertisementTypeListMatchesSnapshot: the broker's own advertisement
// lists its repository's agent types from the type sets; that list equals
// the one derived from a full snapshot, also after the last ad of a type
// has gone.
func TestAdvertisementTypeListMatchesSnapshot(t *testing.T) {
	types := []ontology.AgentType{ontology.TypeResource, ontology.TypeQuery, ontology.TypeUser, ontology.TypeMonitor, "zeta", "alpha"}
	r := rand.New(rand.NewSource(1))
	b := newTestBroker(t, transport.NewInProc(), "types")
	check := func(at string) {
		t.Helper()
		var want []ontology.AgentType
		for _, ad := range b.repo.snapshot() {
			if !slices.Contains(want, ad.Type) {
				want = append(want, ad.Type)
			}
		}
		slices.Sort(want)
		if got := b.Advertisement().Broker.AgentTypes; !slices.Equal(got, want) {
			t.Fatalf("%s: AgentTypes = %v, snapshot says %v", at, got, want)
		}
	}
	check("empty")
	for step := 0; step < 300; step++ {
		name := fmt.Sprintf("agent-%02d", r.Intn(12))
		if r.Intn(3) == 0 {
			b.repo.Remove(name)
		} else {
			typ := types[r.Intn(len(types))]
			if err := b.repo.Put(resourceAd(name, "C2", func(ad *ontology.Advertisement) { ad.Type = typ })); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("step %d", step))
	}
	for _, name := range b.repo.Names() {
		b.repo.Remove(name)
		check("draining, after " + name)
	}
}

// churnShapedRepository loads n resource ads over six classes with
// staggered ranges, broker_churn's geometry: a window overlaps
// (250+width)/60 ads of its class whatever n is.
func churnShapedRepository(tb testing.TB, n int) *Repository {
	tb.Helper()
	r := NewRepository()
	for i := 0; i < n; i++ {
		class := fmt.Sprintf("C%d", i%6+1)
		lo := float64(i / 6 * 60)
		ad := resourceAd(fmt.Sprintf("ra-%05d", i), class, func(ad *ontology.Advertisement) {
			ad.Content[0].Constraints = constraint.NewSet(constraint.Atom{
				Field: strings.ToLower(class) + ".a", Interval: constraint.NewRange(lo, lo+250)})
		})
		if err := r.Put(ad); err != nil {
			tb.Fatal(err)
		}
	}
	return r
}

func churnShapedQuery(class string, lo, width float64) *ontology.Query {
	return &ontology.Query{Type: ontology.TypeResource, Ontology: "generic", Classes: []string{class},
		Constraints: constraint.NewSet(constraint.Atom{
			Field: strings.ToLower(class) + ".a", Interval: constraint.NewRange(lo, lo+width)})}
}

// TestCandidatesGrowSublinearlyInAds: a class query with a narrow range
// examines what its range overlaps, not the class. Ad i serves one of six
// classes with a between 10i and 10i+500, and each of 16 queries asks one
// class for a window of 50 spread over the whole domain, so about nine ads
// can match a query at any size. From 1,000 to 100,000 ads the candidates
// the postings hand to Match must grow less than tenfold; a posting that
// ignored the range would hand over a sixth of the repository.
func TestCandidatesGrowSublinearlyInAds(t *testing.T) {
	w := ontology.NewWorld(ontology.Generic())
	sizes := []int{1_000, 10_000, 100_000}
	totals := make([]int, len(sizes))
	for s, n := range sizes {
		r := NewRepository()
		for i := 0; i < n; i++ {
			class := fmt.Sprintf("C%d", i%6+1)
			ad := resourceAd(fmt.Sprintf("ra-%06d", i), class, func(ad *ontology.Advertisement) {
				ad.Content[0].Constraints = constraint.NewSet(constraint.Atom{
					Field: strings.ToLower(class) + ".a", Interval: constraint.NewRange(float64(10*i), float64(10*i+500))})
			})
			if err := r.Put(ad); err != nil {
				t.Fatal(err)
			}
		}
		const queries = 16
		span := n * 10 / queries
		for b := 0; b < queries; b++ {
			q := churnShapedQuery(fmt.Sprintf("C%d", b%6+1), float64(b*span), 50)
			got := len(r.candidates(w, q))
			if got == 0 {
				t.Fatalf("%d ads: query %d has no candidates", n, b)
			}
			totals[s] += got
		}
		t.Logf("%d ads: %d candidates over %d queries", n, totals[s], queries)
	}
	first, last := totals[0], totals[len(totals)-1]
	if last >= 10*first {
		t.Errorf("ads grew %dx and the candidates %d -> %d: a search examines the class, not its range",
			sizes[len(sizes)-1]/sizes[0], first, last)
	}
}

// TestCachedResultsPinNoCandidateArrays: what the cache stores is as long
// as the answer, not as the candidate set it was filtered from. Sized to
// the candidates, a one-match result at 10,000 ads held a 1,250-pointer
// array, and 256 entries of them per broker were most of broker_churn's
// live heap.
func TestCachedResultsPinNoCandidateArrays(t *testing.T) {
	w := ontology.NewWorld(ontology.Generic())
	repo := churnShapedRepository(t, 10_000)
	m := NewCachedMatcher(&DirectMatcher{World: w}, 0)
	for k := 0; k < 40; k++ {
		q := churnShapedQuery(fmt.Sprintf("C%d", k%6+1), float64(1000+k*2000), 50)
		got, err := m.Match(repo, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < 4 || len(got) > 6 {
			t.Fatalf("query %d matched %d ads, want about five", k, len(got))
		}
	}
	entries := 0
	for el := m.cache.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*matchCacheEntry)
		entries++
		if cap(e.matches) > len(e.matches) {
			t.Fatalf("a cached result of %d ads has capacity %d", len(e.matches), cap(e.matches))
		}
	}
	if entries != 40 {
		t.Fatalf("%d cached entries, want 40", entries)
	}
}

// TestExplainStillListsRejections: the matcher no longer looks at the ads
// a class query rejects by class or by constraint, but an explain of that
// query does, with those reasons.
func TestExplainStillListsRejections(t *testing.T) {
	b := newTestBroker(t, transport.NewInProc(), "explainer")
	ranged := func(lo, hi float64) func(*ontology.Advertisement) {
		return func(ad *ontology.Advertisement) {
			ad.Content[0].Constraints = constraint.NewSet(constraint.Atom{Field: "c2.a", Interval: constraint.NewRange(lo, hi)})
		}
	}
	for _, ad := range []*ontology.Advertisement{
		resourceAd("hit", "C2", ranged(0, 100)),
		resourceAd("sub", "C2a", ranged(40, 60)),
		resourceAd("far", "C2", ranged(500, 600)),
		resourceAd("other-class", "C3", ranged(0, 100)),
	} {
		if err := b.repo.Put(ad); err != nil {
			t.Fatal(err)
		}
	}
	q := &ontology.Query{Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
		Constraints: constraint.NewSet(constraint.Atom{Field: "c2.a", Interval: constraint.NewRange(50, 70)})}
	if got := namesOf(b.repo.candidates(b.cfg.World, q)); len(got) != 2 {
		t.Fatalf("the matcher's candidates are %v, want only the two ads in range", got)
	}
	ctx, collector := provenance.Receive(&kqml.Message{TraceID: "trace-1"})
	b.emitMatchProvenance(provenance.For(ctx), q, false, 0)
	got := map[string]string{}
	for _, s := range collector.Entries() {
		if ev := s.Decision; ev != nil && ev.Kind == kqml.ProvMatch {
			got[ev.Match.Ad] = ev.Match.Reason
		}
	}
	want := map[string]string{
		"hit":         "",
		"sub":         "",
		"far":         string(ontology.RejectConstraints),
		"other-class": string(ontology.RejectClass),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("explain reasons = %v, want %v", got, want)
	}
}
