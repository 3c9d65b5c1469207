package broadcast

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"infosleuth/internal/constraint"
)

// refHub is the reference the indexed publish is held to: the linear scan
// Publish ran before it probed a region index, over a plain model of the
// registrations.
type refHub struct {
	subs map[string]refSub
}

type refSub struct {
	classes []string // lowercased, duplicates kept as given
	region  *constraint.Set
}

// publish returns the IDs the scan enqueued, with multiplicity, and the
// count it skipped.
func (r *refHub) publish(ev Event) (matched []string, skipped int) {
	for _, id := range sortedKeys(r.subs) {
		s := r.subs[id]
		switch {
		case len(s.classes) == 0:
			matched = append(matched, id)
		case ev.Class == "":
			// The old scan visited every class's subscriptions, so a
			// subscription in two classes was enqueued twice.
			for range distinct(s.classes) {
				matched = append(matched, id)
			}
		case slices.Contains(s.classes, ev.Class):
			if s.region.Overlaps(ev.Region) {
				matched = append(matched, id)
			} else {
				skipped++
			}
		}
	}
	return matched, skipped
}

func distinct(xs []string) []string {
	out := slices.Clone(xs)
	slices.Sort(out)
	return slices.Compact(out)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pubFields names the fields regions draw from; twelve exceeds the
// region index's bound of eight indexed fields.
var pubFields = func() []string {
	var fs []string
	for i := 0; i < 12; i++ {
		fs = append(fs, fmt.Sprintf("c2.f%d", i))
	}
	return fs
}()

// randomAtom draws every shape an atom takes: closed, open, half-bounded,
// unbounded, degenerate, empty, and discrete over numbers and strings.
func randomAtom(r *rand.Rand, field string) constraint.Atom {
	lo := float64(r.Intn(100))
	hi := lo + float64(r.Intn(30))
	a := constraint.Atom{Field: field}
	switch r.Intn(10) {
	case 0:
		a.Interval = constraint.AtLeast(lo)
	case 1:
		a.Interval = constraint.LessThan(hi)
	case 2:
		a.Interval = constraint.Unbounded
	case 3:
		a.Interval = constraint.Exactly(lo)
	case 4:
		a.Allowed = []constraint.Value{constraint.Num(lo), constraint.Num(hi)}
	case 5:
		a.Allowed = []constraint.Value{constraint.Str("x"), constraint.Num(lo)}
	case 6:
		if r.Intn(4) == 0 {
			a.Allowed = []constraint.Value{} // admits nothing
		} else {
			a.Interval = constraint.NewRange(hi+1, lo) // empty
		}
	default:
		iv := constraint.NewRange(lo, hi+1)
		iv.LoOpen, iv.HiOpen = r.Intn(3) == 0, r.Intn(3) == 0
		a.Interval = iv
	}
	return a
}

// randomRegion is nil, empty, or a conjunction over some of fields; it
// may be unsatisfiable.
func randomRegion(r *rand.Rand, fields []string) *constraint.Set {
	switch r.Intn(10) {
	case 0:
		return nil
	case 1:
		return &constraint.Set{}
	}
	s := &constraint.Set{}
	for _, f := range fields {
		if r.Intn(3) == 0 {
			s.Add(randomAtom(r, f))
		}
	}
	return s
}

func randomClasses(r *rand.Rand) []string {
	switch r.Intn(8) {
	case 0:
		return nil // the evaluate-all tier
	case 1:
		return []string{"c2", "C2"} // a self-join lists its class twice
	case 2:
		return []string{"c2", "c3"}
	case 3:
		return []string{"c3"}
	default:
		return []string{"c2"}
	}
}

// recorder notes which subscriptions each published sequence number
// reached.
type recorder struct {
	mu  sync.Mutex
	got map[uint64][]string
}

func (rc *recorder) deliverTo(id string) Deliver {
	return func(b Batch) {
		rc.mu.Lock()
		defer rc.mu.Unlock()
		for _, ev := range b.Events {
			rc.got[ev.Seq] = append(rc.got[ev.Seq], id)
		}
	}
}

// TestPublishIndexDifferential drives a hub and the scan it replaced
// through the same seeded subscribes, re-subscribes, closes and publishes,
// and after every step requires the same subscriptions matched, with the
// same multiplicity, and the same count skipped.
func TestPublishIndexDifferential(t *testing.T) {
	scenarios := 200
	if testing.Short() {
		scenarios = 50
	}
	for seed := int64(0); seed < int64(scenarios); seed++ {
		r := rand.New(rand.NewSource(seed))
		fields := pubFields[:1+r.Intn(3)]
		if seed%4 == 0 {
			fields = pubFields
		}
		h := New(Options{})
		rc := &recorder{got: make(map[uint64][]string)}
		ref := &refHub{subs: make(map[string]refSub)}
		live := map[string]*Sub{}
		for step := 0; step < 40; step++ {
			id := fmt.Sprintf("s%02d", r.Intn(20))
			switch k := r.Intn(10); {
			case k < 4: // subscribe, or re-subscribe an existing id
				classes := randomClasses(r)
				region := randomRegion(r, fields)
				live[id] = h.Subscribe(id, classes, region, rc.deliverTo(id))
				var lower []string
				for _, c := range classes {
					lower = append(lower, strings.ToLower(c))
				}
				ref.subs[id] = refSub{classes: lower, region: region}
			case k < 5: // close
				if s := live[id]; s != nil {
					s.Close()
					delete(live, id)
					delete(ref.subs, id)
				}
			default: // publish
				ev := Event{Class: "c2", Region: randomRegion(r, fields), Rows: 1}
				switch r.Intn(6) {
				case 0:
					ev.Class = ""
				case 1:
					ev.Class = "c3"
				case 2:
					ev.Region = nil
				}
				matched, skipped := h.Publish(ev)
				flush(t, h)
				seq := h.seq.Load()
				rc.mu.Lock()
				got := slices.Clone(rc.got[seq])
				rc.mu.Unlock()
				slices.Sort(got)
				want, wantSkipped := ref.publish(ev)
				if matched != len(want) || skipped != wantSkipped || !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: publish %q %v: matched %d %v skipped %d, scan matched %d %v skipped %d",
						seed, step, ev.Class, ev.Region, matched, got, skipped, len(want), want, wantSkipped)
				}
			}
			checkIndexed(t, h, fmt.Sprintf("seed %d step %d", seed, step))
			if st := h.Stats(); st.Subscribers != len(ref.subs) {
				t.Fatalf("seed %d step %d: %d subscribers, reference holds %d", seed, step, st.Subscribers, len(ref.subs))
			}
		}
		h.Close()
	}
}

// checkIndexed requires every class's region index to hold exactly the
// class's subscriptions.
func checkIndexed(t *testing.T, h *Hub, where string) {
	t.Helper()
	h.mu.RLock()
	defer h.mu.RUnlock()
	for c, cl := range h.byClass {
		ids := cl.index.AppendCandidates(nil, nil)
		slices.Sort(ids)
		if !slices.Equal(ids, sortedKeys(cl.subs)) {
			t.Fatalf("%s: class %s indexes %v, holds %v", where, c, ids, sortedKeys(cl.subs))
		}
	}
}

// TestResubscribeReplaces: subscribing an ID that is registered replaces
// the registration. The earlier Sub leaves every class and is closed, the
// index answers by the new region only, and closing the earlier Sub again
// leaves the new one in place.
func TestResubscribeReplaces(t *testing.T) {
	h := New(Options{})
	defer h.Close()
	var first, second collector
	old := h.Subscribe("s", []string{"c2", "c3"}, rangeSet("c2.a", 0, 10), first.deliver)
	repl := h.Subscribe("s", []string{"c2"}, rangeSet("c2.a", 50, 60), second.deliver)
	if !old.inertForTest() {
		t.Fatal("the replaced Sub is still open")
	}
	if st := h.Stats(); st.Subscribers != 1 {
		t.Fatalf("stats = %+v, want one subscriber", st)
	}
	h.mu.RLock()
	_, inC3 := h.byClass["c3"]
	idx := h.byClass["c2"].index
	oldHits := idx.AppendCandidates(nil, rangeSet("c2.a", 5, 5))
	newHits := idx.AppendCandidates(nil, rangeSet("c2.a", 55, 55))
	h.mu.RUnlock()
	if inC3 || idx.Len() != 1 || len(oldHits) != 0 || len(newHits) != 1 {
		t.Fatalf("index after re-subscribe: c3 kept %v, len %d, old region hits %v, new region hits %v",
			inC3, idx.Len(), oldHits, newHits)
	}
	if matched, skipped := h.Publish(Event{Class: "c2", Region: rangeSet("c2.a", 5, 5)}); matched != 0 || skipped != 1 {
		t.Fatalf("publish in the old region: matched %d skipped %d, want 0/1", matched, skipped)
	}
	old.Close()
	if matched, _ := h.Publish(Event{Class: "c2", Region: rangeSet("c2.a", 55, 55)}); matched != 1 {
		t.Fatalf("publish in the new region after closing the old Sub matched %d, want 1", matched)
	}
	flush(t, h)
	if _, evs := first.snapshot(); len(evs) != 0 {
		t.Fatalf("the replaced Sub received %v", evs)
	}
	if _, evs := second.snapshot(); len(evs) != 1 {
		t.Fatalf("the new Sub received %d events, want 1", len(evs))
	}
	repl.Close()
	if st := h.Stats(); st.Subscribers != 0 {
		t.Fatalf("stats after closing = %+v", st)
	}
}

// windowHub registers n subscriptions on class c2, each selecting a
// window of c2.a over [0, 1e6). Windows are sized so that every value
// falls in about ten of them at any n, as on the subscribe_stream
// workload, so a publish costs the locating and not the delivery.
func windowHub(tb testing.TB, n int) *Hub {
	const domain = 1_000_000
	h := New(Options{})
	tb.Cleanup(h.Close)
	width := 10 * float64(domain) / float64(n)
	r := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		lo := r.Float64() * (domain - width)
		h.Subscribe(fmt.Sprintf("sub-%d", i), []string{"c2"}, rangeSet("c2.a", lo, lo+width), func(Batch) {})
	}
	return h
}

// pointChange is the region an inserted c2 row publishes: a point on
// each column.
func pointChange(id string, a float64) *constraint.Set {
	return constraint.NewSet(
		constraint.Atom{Field: "c2.id", Allowed: []constraint.Value{constraint.Str(id)}},
		constraint.Atom{Field: "c2.a", Interval: constraint.Exactly(a)},
	)
}

// TestPublishProbeIsSelective: a point change that overlaps none of
// 100,000 subscriptions runs the exact region test on fewer than 64.
func TestPublishProbeIsSelective(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 20_000
	}
	h := New(Options{})
	defer h.Close()
	for i := 0; i < n; i++ {
		lo := float64(2 * i)
		h.Subscribe(fmt.Sprintf("sub-%d", i), []string{"c2"}, rangeSet("c2.a", lo, lo+0.5), func(Batch) {})
	}
	ev := Event{Class: "c2", Region: pointChange("n1", 1001), Rows: 1}
	h.mu.RLock()
	tested := len(h.byClass["c2"].index.AppendCandidates(nil, ev.Region))
	h.mu.RUnlock()
	if tested >= 64 {
		t.Errorf("the probe leaves %d of %d subscriptions to the exact test, want fewer than 64", tested, n)
	}
	if matched, skipped := h.Publish(ev); matched != 0 || skipped != n {
		t.Errorf("matched %d skipped %d, want 0 and %d", matched, skipped, n)
	}
}

// BenchmarkHubPublish publishes point changes at uniformly drawn values
// into hubs of 1k, 10k and 100k subscriptions, each change reaching
// about ten of them (see windowHub).
func BenchmarkHubPublish(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			h := windowHub(b, n)
			r := rand.New(rand.NewSource(1))
			regions := make([]*constraint.Set, 1024)
			for i := range regions {
				regions[i] = pointChange(fmt.Sprintf("n%d", i), r.Float64()*1_000_000)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Publish(Event{Class: "c2", Region: regions[i%len(regions)], Rows: 1})
			}
			b.StopTimer()
			flush(b, h)
		})
	}
}
