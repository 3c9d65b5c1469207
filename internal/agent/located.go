package agent

import (
	"sync"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
)

// Located sets: an agent with a listener keeps the broker replies it was
// granted and answers later queries from them, until a broker that
// contributed sends an update or the lease runs out (DESIGN.md §14).
//
// A query without constraints is kept as asked. A Limit 0 query under the
// default FollowAll policy is asked once without its constraints, one
// widened query per class, and every later query of that class is the
// saved reply narrowed by the broker's own constraint clause and ranking.
// Anything else is asked every time.

// maxLocatedSets caps the saved replies: a caller asking many distinct
// unconstrained queries keeps the first ones and asks for the rest.
const maxLocatedSets = 256

// locatedSet is one saved reply.
type locatedSet struct {
	matches []*ontology.Advertisement
	// brokers names every broker that contributed; an update from any of
	// them drops the set.
	brokers []string
	// addr is the broker asked; a failed call to it, or a ping it no
	// longer answers "known", drops the set.
	addr string
	// sent is when the query left; the lease runs from it.
	sent time.Time
}

// locatedSets is an agent's saved replies, keyed by the text of the query
// they answer.
type locatedSets struct {
	mu   sync.Mutex
	sets map[string]*locatedSet
	// seq counts the updates received; last holds, per broker name, the
	// seq of its latest update. A reply is kept only if none of its
	// brokers sent an update after the query left.
	seq  uint64
	last map[string]uint64
	// refused records when a broker last answered a holder's query
	// without a grant; the agent asks it queries as written until the
	// lease has passed since.
	refused map[string]time.Time
}

// locatedKey says how q is answered from a located set: kq is the query
// the set answers (q itself, or q without its constraints when narrow),
// or nil when q is asked every time.
func locatedKey(q *ontology.Query) (kq *ontology.Query, narrow bool) {
	if q.Constraints.Len() == 0 {
		return q, false
	}
	if q.Limit != 0 || (q.Policy != ontology.SearchPolicy{} && q.Policy.Follow != ontology.FollowAll) {
		return nil, false
	}
	wide := *q
	wide.Constraints = nil
	return &wide, true
}

// keyBufs holds the buffers located-set keys are rendered into.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// answer returns q's reply from the set saved under key, or nil.
func (l *locatedSets) answer(key []byte, q *ontology.Query, narrow bool, now time.Time) *kqml.BrokerReply {
	l.mu.Lock()
	e := l.sets[string(key)]
	l.mu.Unlock()
	if e == nil || now.Sub(e.sent) >= kqml.LocatedSetLease {
		return nil
	}
	if narrow {
		return narrowed(e.matches, e.brokers, q)
	}
	return &kqml.BrokerReply{Matches: append([]*ontology.Advertisement(nil), e.matches...), Brokers: e.brokers}
}

// narrowed is the broker's reply to q computed from the reply to q
// without its constraints: the matches that pass Match's constraint
// clause, in the broker's ranking under q.
func narrowed(matches []*ontology.Advertisement, brokers []string, q *ontology.Query) *kqml.BrokerReply {
	out := make([]*ontology.Advertisement, 0, len(matches))
	for _, ad := range matches {
		if ontology.MatchesConstraints(ad, q) {
			out = append(out, ad)
		}
	}
	ontology.RankMatches(nil, out, q)
	return &kqml.BrokerReply{Matches: out, Brokers: brokers}
}

// grants reports whether the broker at addr is asked with a holder.
func (l *locatedSets) grants(addr string, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.refused[addr]
	return !ok || now.Sub(t) >= kqml.LocatedSetLease
}

// epoch returns the update count to stamp a query with as it leaves.
func (l *locatedSets) epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// keep saves a reply to a holder's query sent at sent, stamped with seq:
// only a granted reply that no contributing broker's update has
// overtaken.
func (l *locatedSets) keep(key string, addr string, br *kqml.BrokerReply, sent time.Time, seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !br.Granted {
		if l.refused == nil {
			l.refused = make(map[string]time.Time)
		}
		l.refused[addr] = sent
		return
	}
	delete(l.refused, addr)
	for _, name := range br.Brokers {
		if l.last[name] > seq {
			return
		}
	}
	if l.sets == nil {
		l.sets = make(map[string]*locatedSet)
	}
	if len(l.sets) >= maxLocatedSets && l.sets[key] == nil {
		return
	}
	// The caller gets br itself and may reorder its matches.
	l.sets[key] = &locatedSet{matches: append([]*ontology.Advertisement(nil), br.Matches...), brokers: br.Brokers, addr: addr, sent: sent}
}

// invalidate handles a broker's update: every set it contributed to goes,
// and replies in flight that it contributed to will not be kept.
func (l *locatedSets) invalidate(broker string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	if l.last == nil {
		l.last = make(map[string]uint64)
	}
	l.last[broker] = l.seq
	for key, e := range l.sets {
		for _, name := range e.brokers {
			if name == broker {
				delete(l.sets, key)
				break
			}
		}
	}
}

// drop forgets every set asked of the broker at addr.
func (l *locatedSets) drop(addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for key, e := range l.sets {
		if e.addr == addr {
			delete(l.sets, key)
		}
	}
}

// reset forgets every set: a stopped agent receives no updates.
func (l *locatedSets) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sets = nil
}
