package broker

import (
	"fmt"
	"strings"

	"infosleuth/internal/constraint"
	"infosleuth/internal/datalog"
	"infosleuth/internal/ontology"
)

// DatalogMatcher reproduces the original broker's LDL reasoning path
// (Section 2.2: "the broker uses a rule-based reasoning engine implemented
// in LDL to reason over the query and advertisements"). Advertisements are
// translated into facts, the matchmaking policy into rules, the query into
// one `recommend` rule, and the engine's fixpoint yields the matching
// agents. It implements the same relation as DirectMatcher; the two are
// cross-checked in tests.
type DatalogMatcher struct {
	World *ontology.World
}

// Match implements Matcher.
func (m *DatalogMatcher) Match(repo *Repository, q *ontology.Query) ([]*ontology.Advertisement, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := datalog.NewProgram()
	m.assertHierarchy(p)
	m.assertOntologies(p)
	// snapshot hands out the repository's immutable entries directly;
	// both the fact-assertion pass and the returned matches only read
	// them, so no per-match clone is needed.
	ads := repo.snapshot()
	for _, ad := range ads {
		m.assertAdvertisement(p, ad)
	}
	if err := m.assertQuery(p, q); err != nil {
		return nil, err
	}
	addPolicyRules(p)
	db, err := p.Eval()
	if err != nil {
		return nil, fmt.Errorf("broker: datalog matching: %w", err)
	}
	var out []*ontology.Advertisement
	for _, ad := range ads {
		if db.Contains(datalog.NewFact("recommend", adKey(ad.Name))) {
			out = append(out, ad)
		}
	}
	ontology.RankMatches(m.World, out, q)
	return out, nil
}

func low(s string) string { return strings.ToLower(s) }

// assertHierarchy emits the capability containment edges (Figure 2).
func (m *DatalogMatcher) assertHierarchy(p *datalog.Program) {
	if m.World == nil || m.World.Capabilities == nil {
		return
	}
	h := m.World.Capabilities
	for _, cap := range h.Capabilities() {
		for _, child := range h.Descendants(cap) {
			// Descendants is transitive already; asserting the full
			// transitive set as edges keeps cap_reach a single join.
			p.AddFact(datalog.NewFact("cap_reach", low(cap), low(child)))
		}
	}
}

// assertOntologies emits subclass edges per domain ontology.
func (m *DatalogMatcher) assertOntologies(p *datalog.Program) {
	if m.World == nil {
		return
	}
	for name, ont := range m.World.Ontologies {
		for _, class := range ont.Classes() {
			c, _ := ont.Class(class)
			for cur := c.IsA; cur != ""; {
				p.AddFact(datalog.NewFact("isa", low(name), class, cur))
				next, ok := ont.Class(cur)
				if !ok {
					break
				}
				cur = next.IsA
			}
		}
	}
}

// assertAdvertisement translates one advertisement into facts — the
// paper's "the broker validates and translates the advertisement into a
// format that its reasoning engine can understand and asserts it in its
// repository".
func (m *DatalogMatcher) assertAdvertisement(p *datalog.Program, ad *ontology.Advertisement) {
	n := adKey(ad.Name)
	p.AddFact(datalog.NewFact("agent", n))
	p.AddFact(datalog.NewFact("agent_type", n, string(ad.Type)))
	for _, l := range ad.CommLanguages {
		p.AddFact(datalog.NewFact("comm_lang", n, low(l)))
	}
	for _, l := range ad.ContentLanguages {
		p.AddFact(datalog.NewFact("content_lang", n, low(l)))
	}
	for _, c := range ad.Conversations {
		p.AddFact(datalog.NewFact("conversation", n, low(c)))
	}
	for _, c := range ad.Capabilities {
		p.AddFact(datalog.NewFact("adv_cap", n, low(c)))
	}
	if ad.Properties.EstimatedResponseSec > 0 {
		p.AddFact(datalog.NewFact("resp_time", n, datalog.CNum(ad.Properties.EstimatedResponseSec).Name))
	}
	p.AddFact(datalog.NewFact("mobile", n, fmt.Sprintf("%t", ad.Properties.Mobile)))

	for i := range ad.Content {
		f := &ad.Content[i]
		fr := fmt.Sprintf("%s#%d", n, i)
		ont := low(f.Ontology)
		p.AddFact(datalog.NewFact("frag", n, fr, ont))
		var domOnt *ontology.Ontology
		if m.World != nil {
			domOnt = m.World.Ontology(f.Ontology)
		}
		for _, class := range f.Classes {
			p.AddFact(datalog.NewFact("frag_class", fr, ont, class))
			for _, slot := range f.SlotsFor(class, domOnt) {
				p.AddFact(datalog.NewFact("frag_slot", fr, ont, low(slot)))
			}
		}
		if f.Constraints != nil {
			for _, a := range f.Constraints.Atoms() {
				assertConstraintAtom(p, "ad", fr, a)
			}
		}
	}
}

// assertConstraintAtom emits the interval/discrete facts for one atom of an
// advertisement ("ad" role, keyed by fragment) or the query ("q" role,
// keyed by nothing).
func assertConstraintAtom(p *datalog.Program, role, key string, a constraint.Atom) {
	field := a.Field
	emit := func(pred string, args ...string) {
		if role == "ad" {
			p.AddFact(datalog.NewFact("ad_"+pred, append([]string{key}, args...)...))
		} else {
			p.AddFact(datalog.NewFact("q_"+pred, args...))
		}
	}
	if a.Allowed != nil {
		emit("val_any", field)
		for _, v := range a.Allowed {
			if v.Kind() == constraint.KindNumber {
				emit("num", field, datalog.CNum(v.Number()).Name)
			} else {
				emit("str", field, v.Text())
			}
		}
		return
	}
	iv := a.Interval
	emit("has_range", field)
	if iv.HasLo {
		kind := "lo_closed"
		if iv.LoOpen {
			kind = "lo_open"
		}
		emit(kind, field, datalog.CNum(iv.Lo).Name)
	} else {
		emit("range_no_lo", field)
	}
	if iv.HasHi {
		kind := "hi_closed"
		if iv.HiOpen {
			kind = "hi_open"
		}
		emit(kind, field, datalog.CNum(iv.Hi).Name)
	} else {
		emit("range_no_hi", field)
	}
}

// assertQuery emits the query's constraint facts and the compiled
// `recommend` rule.
func (m *DatalogMatcher) assertQuery(p *datalog.Program, q *ontology.Query) error {
	n := datalog.V("N")
	body := []datalog.Literal{datalog.Pos("agent", n)}
	if q.Type != ontology.TypeAny {
		body = append(body, datalog.Pos("agent_type", n, datalog.C(string(q.Type))))
	}
	if q.CommLanguage != "" {
		body = append(body, datalog.Pos("comm_lang", n, datalog.C(low(q.CommLanguage))))
	}
	if q.ContentLanguage != "" {
		body = append(body, datalog.Pos("content_lang", n, datalog.C(low(q.ContentLanguage))))
	}
	for _, conv := range q.Conversations {
		body = append(body, datalog.Pos("conversation", n, datalog.C(low(conv))))
	}
	for _, cap := range q.Capabilities {
		body = append(body, datalog.Pos("has_cap", n, datalog.C(low(cap))))
	}
	if q.Ontology != "" {
		ont := datalog.C(low(q.Ontology))
		body = append(body, datalog.Pos("supports_ont", n, ont))
		for _, class := range q.Classes {
			body = append(body, datalog.Pos("serves", n, ont, datalog.C(class)))
		}
		for _, slot := range q.Slots {
			body = append(body, datalog.Pos("exposes", n, ont, datalog.C(low(slot))))
		}
		if q.Constraints.Len() > 0 {
			for _, a := range q.Constraints.Atoms() {
				assertConstraintAtom(p, "q", "", a)
			}
			body = append(body, datalog.Pos("cstr_ok", n, ont))
		}
	}
	if q.MaxResponseSec > 0 {
		p.MustAddRule(datalog.NewRule(
			datalog.NewAtom("resp_too_slow", n),
			datalog.Pos("resp_time", n, datalog.V("T")),
			datalog.Pos(datalog.BuiltinGT, datalog.V("T"), datalog.CNum(q.MaxResponseSec)),
		))
		body = append(body, datalog.Neg("resp_too_slow", n))
	}
	if q.RequireMobile != nil {
		body = append(body, datalog.Pos("mobile", n, datalog.C(fmt.Sprintf("%t", *q.RequireMobile))))
	}
	return p.AddRule(datalog.NewRule(datalog.NewAtom("recommend", n), body...))
}

// addPolicyRules emits the static matchmaking rules shared by every query.
func addPolicyRules(p *datalog.Program) {
	N, O, C, S := datalog.V("N"), datalog.V("O"), datalog.V("C"), datalog.V("S")
	FR, F, V := datalog.V("FR"), datalog.V("F"), datalog.V("V")
	L, H := datalog.V("L"), datalog.V("H")
	rules := []datalog.Rule{
		// Capability containment (Figure 2): advertised caps count
		// directly and for everything they transitively contain.
		datalog.NewRule(datalog.NewAtom("has_cap", N, C), datalog.Pos("adv_cap", N, C)),
		datalog.NewRule(datalog.NewAtom("has_cap", N, C),
			datalog.Pos("adv_cap", N, datalog.V("C0")),
			datalog.Pos("cap_reach", datalog.V("C0"), C)),

		// Content: ontology support, class service with subclass
		// reasoning, slot visibility.
		datalog.NewRule(datalog.NewAtom("supports_ont", N, O), datalog.Pos("frag", N, FR, O)),
		datalog.NewRule(datalog.NewAtom("serves", N, O, C),
			datalog.Pos("frag", N, FR, O), datalog.Pos("frag_class", FR, O, C)),
		datalog.NewRule(datalog.NewAtom("serves", N, O, C),
			datalog.Pos("frag", N, FR, O),
			datalog.Pos("frag_class", FR, O, datalog.V("Sub")),
			datalog.Pos("isa", O, datalog.V("Sub"), C)),
		datalog.NewRule(datalog.NewAtom("exposes", N, O, S),
			datalog.Pos("frag", N, FR, O), datalog.Pos("frag_slot", FR, O, S)),

		// Constraint overlap: a fragment is compatible unless some field
		// constrained by both sides admits no common value.
		datalog.NewRule(datalog.NewAtom("cstr_ok", N, O),
			datalog.Pos("frag", N, FR, O), datalog.Neg("frag_conflict", FR)),
		datalog.NewRule(datalog.NewAtom("frag_conflict", FR), datalog.Pos("conflict", FR, F)),

		// Range vs range: the ad's upper bound falls below the query's
		// lower bound (strict for closed/closed, inclusive if either end
		// is open), or symmetrically.
		datalog.NewRule(datalog.NewAtom("conflict", FR, F),
			datalog.Pos("ad_hi_closed", FR, F, H), datalog.Pos("q_lo_closed", F, L),
			datalog.Pos(datalog.BuiltinLT, H, L)),
		datalog.NewRule(datalog.NewAtom("conflict", FR, F),
			datalog.Pos("ad_hi_closed", FR, F, H), datalog.Pos("q_lo_open", F, L),
			datalog.Pos(datalog.BuiltinLE, H, L)),
		datalog.NewRule(datalog.NewAtom("conflict", FR, F),
			datalog.Pos("ad_hi_open", FR, F, H), datalog.Pos("q_lo_closed", F, L),
			datalog.Pos(datalog.BuiltinLE, H, L)),
		datalog.NewRule(datalog.NewAtom("conflict", FR, F),
			datalog.Pos("ad_hi_open", FR, F, H), datalog.Pos("q_lo_open", F, L),
			datalog.Pos(datalog.BuiltinLE, H, L)),
		datalog.NewRule(datalog.NewAtom("conflict", FR, F),
			datalog.Pos("q_hi_closed", F, H), datalog.Pos("ad_lo_closed", FR, F, L),
			datalog.Pos(datalog.BuiltinLT, H, L)),
		datalog.NewRule(datalog.NewAtom("conflict", FR, F),
			datalog.Pos("q_hi_closed", F, H), datalog.Pos("ad_lo_open", FR, F, L),
			datalog.Pos(datalog.BuiltinLE, H, L)),
		datalog.NewRule(datalog.NewAtom("conflict", FR, F),
			datalog.Pos("q_hi_open", F, H), datalog.Pos("ad_lo_closed", FR, F, L),
			datalog.Pos(datalog.BuiltinLE, H, L)),
		datalog.NewRule(datalog.NewAtom("conflict", FR, F),
			datalog.Pos("q_hi_open", F, H), datalog.Pos("ad_lo_open", FR, F, L),
			datalog.Pos(datalog.BuiltinLE, H, L)),

		// Discrete vs discrete: conflict when the value sets are
		// disjoint (numbers and strings never equal across kinds).
		datalog.NewRule(datalog.NewAtom("vv_overlap", FR, F),
			datalog.Pos("ad_num", FR, F, V), datalog.Pos("q_num", F, V)),
		datalog.NewRule(datalog.NewAtom("vv_overlap", FR, F),
			datalog.Pos("ad_str", FR, F, V), datalog.Pos("q_str", F, V)),
		datalog.NewRule(datalog.NewAtom("conflict", FR, F),
			datalog.Pos("ad_val_any", FR, F), datalog.Pos("q_val_any", F),
			datalog.Neg("vv_overlap", FR, F)),

		// Ad discrete vs query range: some numeric advertised value must
		// fall inside the query interval.
		datalog.NewRule(datalog.NewAtom("av_lo_ok", FR, F, V),
			datalog.Pos("ad_num", FR, F, V), datalog.Pos("q_lo_closed", F, L),
			datalog.Pos(datalog.BuiltinGE, V, L)),
		datalog.NewRule(datalog.NewAtom("av_lo_ok", FR, F, V),
			datalog.Pos("ad_num", FR, F, V), datalog.Pos("q_lo_open", F, L),
			datalog.Pos(datalog.BuiltinGT, V, L)),
		datalog.NewRule(datalog.NewAtom("av_lo_ok", FR, F, V),
			datalog.Pos("ad_num", FR, F, V), datalog.Pos("q_range_no_lo", F)),
		datalog.NewRule(datalog.NewAtom("av_hi_ok", FR, F, V),
			datalog.Pos("ad_num", FR, F, V), datalog.Pos("q_hi_closed", F, H),
			datalog.Pos(datalog.BuiltinLE, V, H)),
		datalog.NewRule(datalog.NewAtom("av_hi_ok", FR, F, V),
			datalog.Pos("ad_num", FR, F, V), datalog.Pos("q_hi_open", F, H),
			datalog.Pos(datalog.BuiltinLT, V, H)),
		datalog.NewRule(datalog.NewAtom("av_hi_ok", FR, F, V),
			datalog.Pos("ad_num", FR, F, V), datalog.Pos("q_range_no_hi", F)),
		datalog.NewRule(datalog.NewAtom("av_ok", FR, F),
			datalog.Pos("av_lo_ok", FR, F, V), datalog.Pos("av_hi_ok", FR, F, V)),
		datalog.NewRule(datalog.NewAtom("conflict", FR, F),
			datalog.Pos("ad_val_any", FR, F), datalog.Pos("q_has_range", F),
			datalog.Neg("av_ok", FR, F)),

		// Ad range vs query discrete: some numeric query value must fall
		// inside the advertised interval.
		datalog.NewRule(datalog.NewAtom("qa_lo_ok", FR, F, V),
			datalog.Pos("q_num", F, V), datalog.Pos("ad_lo_closed", FR, F, L),
			datalog.Pos(datalog.BuiltinGE, V, L)),
		datalog.NewRule(datalog.NewAtom("qa_lo_ok", FR, F, V),
			datalog.Pos("q_num", F, V), datalog.Pos("ad_lo_open", FR, F, L),
			datalog.Pos(datalog.BuiltinGT, V, L)),
		datalog.NewRule(datalog.NewAtom("qa_lo_ok", FR, F, V),
			datalog.Pos("q_num", F, V), datalog.Pos("ad_range_no_lo", FR, F)),
		datalog.NewRule(datalog.NewAtom("qa_hi_ok", FR, F, V),
			datalog.Pos("q_num", F, V), datalog.Pos("ad_hi_closed", FR, F, H),
			datalog.Pos(datalog.BuiltinLE, V, H)),
		datalog.NewRule(datalog.NewAtom("qa_hi_ok", FR, F, V),
			datalog.Pos("q_num", F, V), datalog.Pos("ad_hi_open", FR, F, H),
			datalog.Pos(datalog.BuiltinLT, V, H)),
		datalog.NewRule(datalog.NewAtom("qa_hi_ok", FR, F, V),
			datalog.Pos("q_num", F, V), datalog.Pos("ad_range_no_hi", FR, F)),
		datalog.NewRule(datalog.NewAtom("qa_ok", FR, F),
			datalog.Pos("qa_lo_ok", FR, F, V), datalog.Pos("qa_hi_ok", FR, F, V)),
		datalog.NewRule(datalog.NewAtom("conflict", FR, F),
			datalog.Pos("ad_has_range", FR, F), datalog.Pos("q_val_any", F),
			datalog.Neg("qa_ok", FR, F)),
	}
	for _, r := range rules {
		p.MustAddRule(r)
	}
}
