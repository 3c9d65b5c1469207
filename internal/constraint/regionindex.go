package constraint

import (
	"cmp"
	"math"
)

// RegionIndex answers "which of these ids may overlap this Set" without
// visiting every id. Each id is added with one or more alternative regions
// (an advertisement's fragments; a standing query has one), and a probe
// returns a superset of the ids for which some region Overlaps the probe:
// callers run the exact test over the handful returned. It never misses
// an overlapping id, and it may return ids that do not overlap.
//
// Per constrained field the index keeps a stabbing tree over the closed
// numeric hull of each id's regions on that field. An id that leaves the
// field open (no atom on it in some region, a discrete atom, or no bound
// on either side) is stored as (-Inf, +Inf): those entries are the
// field's residue, returned by every probe on it. Open and closed bounds
// are both treated as closed, so the hull only ever widens a region.
//
// A probe stabs with the atom that selects fewest ids; the other atoms
// are left to the caller's exact test. Add, Remove and a probe cost
// O(log n) per indexed field, plus the ids returned.
//
// The zero value is not usable; call NewRegionIndex. A RegionIndex is not
// safe for concurrent mutation; concurrent probes are.
type RegionIndex[ID cmp.Ordered] struct {
	all    map[ID]struct{}
	fields map[string]*stabTree[ID]
}

// maxIndexedFields bounds the fields one RegionIndex builds a tree for.
// Every id has an entry in every tree, so without a bound, ids that each
// constrain a field of their own would cost quadratic space. Fields past
// the bound are not indexed: probes on them fall back to another atom.
const maxIndexedFields = 8

// NewRegionIndex returns an empty index.
func NewRegionIndex[ID cmp.Ordered]() *RegionIndex[ID] {
	return &RegionIndex[ID]{
		all:    make(map[ID]struct{}),
		fields: make(map[string]*stabTree[ID]),
	}
}

// Len returns the number of ids held.
func (x *RegionIndex[ID]) Len() int { return len(x.all) }

// Add indexes id under the union of regions: a later probe returns id
// whenever any one of them overlaps it. A nil or empty Set is the
// unrestricted region. The id must not already be held.
func (x *RegionIndex[ID]) Add(id ID, regions []*Set) {
	for f, t := range x.fields {
		lo, hi := hull(f, regions)
		t.insert(lo, hi, id)
	}
	if len(regions) > 0 && regions[0] != nil {
		// A field is bounded in the hull only if every region bounds it,
		// so the first region names every field worth a new tree.
		for _, a := range regions[0].atoms {
			f := a.Field
			if x.fields[f] != nil || len(x.fields) >= maxIndexedFields {
				continue
			}
			lo, hi := hull(f, regions)
			if isOpen(lo, hi) {
				continue
			}
			t := &stabTree[ID]{rng: 0x9e3779b97f4a7c15}
			for other := range x.all {
				t.insert(math.Inf(-1), math.Inf(1), other)
			}
			t.insert(lo, hi, id)
			x.fields[f] = t
		}
	}
	x.all[id] = struct{}{}
}

// Remove drops id. regions must be what Add was given for it.
func (x *RegionIndex[ID]) Remove(id ID, regions []*Set) {
	delete(x.all, id)
	for f, t := range x.fields {
		lo, _ := hull(f, regions)
		// An id added before the field had a tree sits in the residue
		// whatever its hull is.
		if !t.remove(lo, id) && !math.IsInf(lo, -1) {
			t.remove(math.Inf(-1), id)
		}
		if t.n == t.open {
			delete(x.fields, f)
		}
	}
}

// AppendCandidates appends to dst every id that may overlap probe, in
// unspecified order, and returns the extended slice. A nil or empty probe
// returns every id.
func (x *RegionIndex[ID]) AppendCandidates(dst []ID, probe *Set) []ID {
	// The atoms a tree can answer: a bounded interval on an indexed
	// field. They are on distinct fields, so the array cannot overflow.
	type stab struct {
		t      *stabTree[ID]
		lo, hi float64
	}
	var usable [maxIndexedFields]stab
	n := 0
	if probe != nil && len(x.fields) > 0 {
		for _, a := range probe.atoms {
			t := x.fields[a.Field]
			if t == nil || a.discrete() {
				continue
			}
			lo, hi := closedBounds(a.Interval)
			if !isOpen(lo, hi) {
				usable[n] = stab{t, lo, hi}
				n++
			}
		}
	}
	if n == 0 {
		for id := range x.all {
			dst = append(dst, id)
		}
		return dst
	}
	best := usable[0]
	if n > 1 {
		// Count each atom's answers, giving up at the best so far: the
		// work spent choosing is bounded by the answer finally returned.
		bestN := len(x.all) + 1
		for _, s := range usable[:n] {
			if c := s.t.count(s.lo, s.hi, bestN); c < bestN {
				best, bestN = s, c
			}
		}
	}
	var examined int
	return best.t.root.collect(best.lo, best.hi, dst, &examined)
}

// hull returns the closed numeric hull of the regions on a field:
// (-Inf, +Inf) as soon as one region leaves it open.
func hull(field string, regions []*Set) (lo, hi float64) {
	if len(regions) == 0 {
		return math.Inf(-1), math.Inf(1)
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, r := range regions {
		a, ok := r.Atom(field)
		if !ok || a.discrete() {
			return math.Inf(-1), math.Inf(1)
		}
		alo, ahi := closedBounds(a.Interval)
		lo, hi = math.Min(lo, alo), math.Max(hi, ahi)
	}
	return lo, hi
}

// closedBounds widens an interval to closed float bounds: a missing (or
// NaN) bound is the infinity on its side.
func closedBounds(iv Interval) (lo, hi float64) {
	lo, hi = math.Inf(-1), math.Inf(1)
	if iv.HasLo && !math.IsNaN(iv.Lo) {
		lo = iv.Lo
	}
	if iv.HasHi && !math.IsNaN(iv.Hi) {
		hi = iv.Hi
	}
	return lo, hi
}

func isOpen(lo, hi float64) bool { return math.IsInf(lo, -1) && math.IsInf(hi, 1) }

// stabTree is a treap over [lo, hi] entries ordered by (lo, id), each node
// carrying the largest hi of its subtree. Sorting by lo alone and bounding
// the scan by a global maximum width would let one domain-wide entry turn
// every probe into a scan; the subtree maximum prunes on the entries
// actually below a node.
type stabTree[ID cmp.Ordered] struct {
	root *stabNode[ID]
	n    int    // entries
	open int    // entries that are (-Inf, +Inf): the residue
	rng  uint64 // xorshift state for node priorities; fixed seed, so a build order gives one shape
}

type stabNode[ID cmp.Ordered] struct {
	lo, hi, maxHi float64
	id            ID
	prio          uint64
	left, right   *stabNode[ID]
}

func (t *stabTree[ID]) insert(lo, hi float64, id ID) {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	t.root = t.root.insert(&stabNode[ID]{lo: lo, hi: hi, maxHi: hi, id: id, prio: t.rng})
	t.n++
	if isOpen(lo, hi) {
		t.open++
	}
}

// remove deletes the entry keyed (lo, id) and reports whether it was there.
func (t *stabTree[ID]) remove(lo float64, id ID) bool {
	root, gone := t.root.remove(lo, id)
	if gone == nil {
		return false
	}
	t.root = root
	t.n--
	if isOpen(gone.lo, gone.hi) {
		t.open--
	}
	return true
}

// count returns how many entries meet [lo, hi], giving up at limit.
func (t *stabTree[ID]) count(lo, hi float64, limit int) int {
	n := 0
	t.root.count(lo, hi, limit, &n)
	return n
}

func (n *stabNode[ID]) before(lo float64, id ID) bool {
	if n.lo != lo {
		return n.lo < lo
	}
	return n.id < id
}

func (n *stabNode[ID]) fix() {
	n.maxHi = n.hi
	if n.left != nil && n.left.maxHi > n.maxHi {
		n.maxHi = n.left.maxHi
	}
	if n.right != nil && n.right.maxHi > n.maxHi {
		n.maxHi = n.right.maxHi
	}
}

func (n *stabNode[ID]) insert(e *stabNode[ID]) *stabNode[ID] {
	if n == nil {
		return e
	}
	if n.before(e.lo, e.id) {
		n.right = n.right.insert(e)
		if n.right.prio > n.prio {
			r := n.right
			n.right, r.left = r.left, n
			n.fix()
			n = r
		}
	} else {
		n.left = n.left.insert(e)
		if n.left.prio > n.prio {
			l := n.left
			n.left, l.right = l.right, n
			n.fix()
			n = l
		}
	}
	n.fix()
	return n
}

func (n *stabNode[ID]) remove(lo float64, id ID) (root, gone *stabNode[ID]) {
	switch {
	case n == nil:
		return nil, nil
	case n.lo == lo && n.id == id:
		return merge(n.left, n.right), n
	case n.before(lo, id):
		n.right, gone = n.right.remove(lo, id)
	default:
		n.left, gone = n.left.remove(lo, id)
	}
	n.fix()
	return n, gone
}

// merge joins two treaps where every key of a sorts before every key of b.
func merge[ID cmp.Ordered](a, b *stabNode[ID]) *stabNode[ID] {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.prio > b.prio:
		a.right = merge(a.right, b)
		a.fix()
		return a
	default:
		b.left = merge(a, b.left)
		b.fix()
		return b
	}
}

// collect appends the ids of the entries meeting [lo, hi]. A subtree is
// entered only if its maxHi reaches lo, and its right side only if its
// root starts at or before hi, so the nodes touched (tallied in examined,
// which the width-skew test reads) are the answers, their ancestors, and
// one root-to-leaf path.
func (n *stabNode[ID]) collect(lo, hi float64, dst []ID, examined *int) []ID {
	if n == nil || n.maxHi < lo {
		return dst
	}
	*examined++
	dst = n.left.collect(lo, hi, dst, examined)
	if n.lo > hi {
		return dst
	}
	if n.hi >= lo {
		dst = append(dst, n.id)
	}
	return n.right.collect(lo, hi, dst, examined)
}

// count is collect without the ids: it adds the entries meeting [lo, hi]
// to *got and returns false once *got reaches limit.
func (n *stabNode[ID]) count(lo, hi float64, limit int, got *int) bool {
	if n == nil || n.maxHi < lo {
		return true
	}
	if !n.left.count(lo, hi, limit, got) {
		return false
	}
	if n.lo > hi {
		return true
	}
	if n.hi >= lo {
		if *got++; *got >= limit {
			return false
		}
	}
	return n.right.count(lo, hi, limit, got)
}
