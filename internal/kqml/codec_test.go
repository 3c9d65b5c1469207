package kqml

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"infosleuth/internal/constraint"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
)

// The oracle: the codec as it was before it was written by hand.
// Everything went through encoding/json by reflection, and every table
// cell through one nested json.Marshal or json.Unmarshal call. The ref*
// types mirror the row-carrying payloads with such cells, and the
// advertisement, query and set payloads with no JSON methods at all;
// Message itself has no JSON methods, so json.Marshal(m) is still the old
// envelope path.

type refCellJSON struct {
	N *float64 `json:"n,omitempty"`
	S *string  `json:"s,omitempty"`
}

type refCell struct{ v constraint.Value }

func (c refCell) MarshalJSON() ([]byte, error) {
	if c.v.Kind() == constraint.KindNumber {
		n := c.v.Number()
		return json.Marshal(refCellJSON{N: &n})
	}
	s := c.v.Text()
	return json.Marshal(refCellJSON{S: &s})
}

func (c *refCell) UnmarshalJSON(data []byte) error {
	var raw refCellJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	switch {
	case raw.N != nil && raw.S != nil:
		return fmt.Errorf("constraint: value cannot be both number and string")
	case raw.N != nil:
		c.v = constraint.Num(*raw.N)
	case raw.S != nil:
		c.v = constraint.Str(*raw.S)
	default:
		c.v = constraint.Str("")
	}
	return nil
}

type refSQLResult struct {
	Columns  []string           `json:"columns"`
	Rows     [][]refCell        `json:"rows"`
	Partial  bool               `json:"partial,omitempty"`
	Degraded []ClassDegradation `json:"degraded,omitempty"`
}

type refUpdateContent struct {
	SubscriptionID string       `json:"subscription_id"`
	SQL            string       `json:"sql"`
	Result         refSQLResult `json:"result"`
	Seq            uint64       `json:"seq,omitempty"`
	Coalesced      int          `json:"coalesced,omitempty"`
}

type refSubscribeAck struct {
	ID      string       `json:"id"`
	Initial refSQLResult `json:"initial"`
}

// The advertisement and query payloads are mirrored down to their
// constraint sets, which marshal as their atom lists: no type below a
// ref*Content has JSON methods except refCell, itself the old path.

type refAtom struct {
	Field    string
	Interval constraint.Interval
	Allowed  []refCell
}

type refFragment struct {
	Ontology    string
	Classes     []string
	Slots       map[string][]string
	Constraints *[]refAtom
}

type refAdvertisement struct {
	Name             string
	Address          string
	Type             ontology.AgentType
	CommLanguages    []string
	ContentLanguages []string
	Conversations    []string
	Capabilities     []string
	Content          []refFragment
	Properties       ontology.Properties
	Broker           *ontology.BrokerInfo
}

type refQuery struct {
	Type            ontology.AgentType
	ContentLanguage string
	CommLanguage    string
	Conversations   []string
	Capabilities    []string
	Ontology        string
	Classes         []string
	Slots           []string
	Constraints     *[]refAtom
	MaxResponseSec  float64
	RequireMobile   *bool
	Limit           int
	Policy          ontology.SearchPolicy
}

type refAdvertiseContent struct {
	Ad *refAdvertisement `json:"ad"`
}

type refBrokerQuery struct {
	Query     *refQuery `json:"query"`
	HopsLeft  int       `json:"hops_left"`
	Visited   []string  `json:"visited,omitempty"`
	Forwarded bool      `json:"forwarded,omitempty"`
	Depth     int       `json:"depth,omitempty"`
	Holder    string    `json:"holder,omitempty"`
}

type refBrokerReply struct {
	Matches  []*refAdvertisement `json:"matches"`
	Brokers  []string            `json:"brokers,omitempty"`
	Degraded []string            `json:"degraded,omitempty"`
	Granted  bool                `json:"granted,omitempty"`
}

type refRecruitContent struct {
	Query    *refQuery `json:"query"`
	Embedded *Message  `json:"embedded"`
}

// toRefSet keeps nil a nil pointer and an empty set an empty, non-nil
// list: the set marshals as [] and a nil list would marshal as null.
func toRefSet(s *constraint.Set) *[]refAtom {
	if s == nil {
		return nil
	}
	atoms := make([]refAtom, 0, s.Len())
	for _, a := range s.Atoms() {
		ra := refAtom{Field: a.Field, Interval: a.Interval}
		if a.Allowed != nil {
			ra.Allowed = make([]refCell, len(a.Allowed))
		}
		for i, v := range a.Allowed {
			ra.Allowed[i] = refCell{v}
		}
		atoms = append(atoms, ra)
	}
	return &atoms
}

// fromRefSet builds the set the old Set.UnmarshalJSON built: the atoms
// added one by one to an empty set.
func fromRefSet(atoms *[]refAtom) *constraint.Set {
	if atoms == nil {
		return nil
	}
	s := &constraint.Set{}
	for _, ra := range *atoms {
		a := constraint.Atom{Field: ra.Field, Interval: ra.Interval}
		if ra.Allowed != nil {
			a.Allowed = make([]constraint.Value, len(ra.Allowed))
		}
		for i, c := range ra.Allowed {
			a.Allowed[i] = c.v
		}
		s.Add(a)
	}
	return s
}

func toRefAd(ad *ontology.Advertisement) *refAdvertisement {
	if ad == nil {
		return nil
	}
	out := &refAdvertisement{ad.Name, ad.Address, ad.Type, ad.CommLanguages, ad.ContentLanguages, ad.Conversations,
		ad.Capabilities, nil, ad.Properties, ad.Broker}
	if ad.Content != nil {
		out.Content = make([]refFragment, len(ad.Content))
	}
	for i, f := range ad.Content {
		out.Content[i] = refFragment{f.Ontology, f.Classes, f.Slots, toRefSet(f.Constraints)}
	}
	return out
}

func fromRefAd(ad *refAdvertisement) *ontology.Advertisement {
	if ad == nil {
		return nil
	}
	out := &ontology.Advertisement{Name: ad.Name, Address: ad.Address, Type: ad.Type, CommLanguages: ad.CommLanguages,
		ContentLanguages: ad.ContentLanguages, Conversations: ad.Conversations, Capabilities: ad.Capabilities,
		Properties: ad.Properties, Broker: ad.Broker}
	if ad.Content != nil {
		out.Content = make([]ontology.Fragment, len(ad.Content))
	}
	for i, f := range ad.Content {
		out.Content[i] = ontology.Fragment{Ontology: f.Ontology, Classes: f.Classes, Slots: f.Slots, Constraints: fromRefSet(f.Constraints)}
	}
	return out
}

func toRefAds(ads []*ontology.Advertisement) []*refAdvertisement {
	if ads == nil {
		return nil
	}
	out := make([]*refAdvertisement, len(ads))
	for i, ad := range ads {
		out[i] = toRefAd(ad)
	}
	return out
}

func fromRefAds(ads []*refAdvertisement) []*ontology.Advertisement {
	if ads == nil {
		return nil
	}
	out := make([]*ontology.Advertisement, len(ads))
	for i, ad := range ads {
		out[i] = fromRefAd(ad)
	}
	return out
}

func toRefQuery(q *ontology.Query) *refQuery {
	if q == nil {
		return nil
	}
	return &refQuery{q.Type, q.ContentLanguage, q.CommLanguage, q.Conversations, q.Capabilities, q.Ontology, q.Classes,
		q.Slots, toRefSet(q.Constraints), q.MaxResponseSec, q.RequireMobile, q.Limit, q.Policy}
}

func fromRefQuery(q *refQuery) *ontology.Query {
	if q == nil {
		return nil
	}
	return &ontology.Query{Type: q.Type, ContentLanguage: q.ContentLanguage, CommLanguage: q.CommLanguage,
		Conversations: q.Conversations, Capabilities: q.Capabilities, Ontology: q.Ontology, Classes: q.Classes,
		Slots: q.Slots, Constraints: fromRefSet(q.Constraints), MaxResponseSec: q.MaxResponseSec,
		RequireMobile: q.RequireMobile, Limit: q.Limit, Policy: q.Policy}
}

func toRef(r SQLResult) refSQLResult {
	out := refSQLResult{Columns: r.Columns, Partial: r.Partial, Degraded: r.Degraded}
	if r.Rows != nil {
		out.Rows = make([][]refCell, len(r.Rows))
	}
	for i, row := range r.Rows {
		if row != nil {
			out.Rows[i] = make([]refCell, len(row))
		}
		for j, v := range row {
			out.Rows[i][j] = refCell{v}
		}
	}
	return out
}

func fromRef(r refSQLResult) SQLResult {
	out := SQLResult{Columns: r.Columns, Partial: r.Partial, Degraded: r.Degraded}
	if r.Rows != nil {
		out.Rows = make([]relational.Row, len(r.Rows))
	}
	for i, row := range r.Rows {
		if row != nil {
			out.Rows[i] = make(relational.Row, len(row))
		}
		for j, c := range row {
			out.Rows[i][j] = c.v
		}
	}
	return out
}

// refContent swaps a payload with hand-written JSON beneath it for its
// mirror and leaves every other payload alone.
func refContent(v any) any {
	switch c := v.(type) {
	case *SQLResult:
		r := toRef(*c)
		return &r
	case *UpdateContent:
		return &refUpdateContent{c.SubscriptionID, c.SQL, toRef(c.Result), c.Seq, c.Coalesced}
	case *SubscribeAck:
		return &refSubscribeAck{c.ID, toRef(c.Initial)}
	case *AdvertiseContent:
		return &refAdvertiseContent{toRefAd(c.Ad)}
	case *BrokerQuery:
		return &refBrokerQuery{toRefQuery(c.Query), c.HopsLeft, c.Visited, c.Forwarded, c.Depth, c.Holder}
	case *BrokerReply:
		return &refBrokerReply{toRefAds(c.Matches), c.Brokers, c.Degraded, c.Granted}
	case *RecruitContent:
		return &refRecruitContent{toRefQuery(c.Query), c.Embedded}
	}
	return v
}

func refUnmarshal(data []byte) (*Message, error) {
	var m Message
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("kqml: bad message frame: %w", err)
	}
	if m.Performative == "" {
		return nil, fmt.Errorf("kqml: message missing performative")
	}
	return &m, nil
}

// refDecodeContent decodes data into a fresh value of target's type the
// old way and returns it.
func refDecodeContent(data []byte, target any) (any, error) {
	switch target.(type) {
	case *SQLResult:
		var r refSQLResult
		err := json.Unmarshal(data, &r)
		out := fromRef(r)
		return &out, err
	case *UpdateContent:
		var u refUpdateContent
		err := json.Unmarshal(data, &u)
		return &UpdateContent{u.SubscriptionID, u.SQL, fromRef(u.Result), u.Seq, u.Coalesced}, err
	case *SubscribeAck:
		var a refSubscribeAck
		err := json.Unmarshal(data, &a)
		return &SubscribeAck{a.ID, fromRef(a.Initial)}, err
	case *AdvertiseContent:
		var a refAdvertiseContent
		err := json.Unmarshal(data, &a)
		return &AdvertiseContent{fromRefAd(a.Ad)}, err
	case *BrokerQuery:
		var q refBrokerQuery
		err := json.Unmarshal(data, &q)
		return &BrokerQuery{fromRefQuery(q.Query), q.HopsLeft, q.Visited, q.Forwarded, q.Depth, q.Holder}, err
	case *BrokerReply:
		var r refBrokerReply
		err := json.Unmarshal(data, &r)
		return &BrokerReply{fromRefAds(r.Matches), r.Brokers, r.Degraded, r.Granted}, err
	case *RecruitContent:
		var r refRecruitContent
		err := json.Unmarshal(data, &r)
		return &RecruitContent{fromRefQuery(r.Query), r.Embedded}, err
	}
	out := reflect.New(reflect.TypeOf(target).Elem()).Interface()
	return out, json.Unmarshal(data, out)
}

// identical is reflect.DeepEqual that also tells negative zero from zero,
// which == on floats does not: the two encode differently.
func identical(a, b any) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return reflect.DeepEqual(a, b) && bytes.Equal(ja, jb)
}

// The generator.

var allPerformatives = []Performative{
	Advertise, Unadvertise, AskAll, AskOne, Tell, Sorry, Error, Subscribe, Unsubscribe, Update, Recruit, Ping,
}

// awkwardStrings hold every class of byte the string encoder treats
// specially: quotes and backslashes, the HTML-sensitive three, control
// bytes, U+2028 and U+2029, multi-byte runes and invalid UTF-8.
var awkwardStrings = []string{
	"", "RA5", "patient_age", "tcp://127.0.0.1:4356", `say "hi"`, `back\slash`, "<b>&amp;</b>", "a<b>c&d",
	"tab\there", "nl\nthere", "\b\f\r", "\x00\x01\x1f\x7f", "line\xe2\x80\xa8sep\xe2\x80\xa9",
	"caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x98\x80", "bad\xffutf8", "\xc3", "\xed\xa0\x80",
	`{"n":1}`, `a{"b`, `],[`, "SELECT * FROM patient WHERE patient_age > 43 AND name <> 'x'",
}

var awkwardNumbers = []float64{
	0, math.Copysign(0, -1), 1, -1, 42, 1.5, -0.25, 1e-6, 9.99999e-7, 1e-7, 1.234e-9, 5e-324,
	1e20, 9.999999999999999e20, 1e21, 1.5e21, math.MaxFloat64, 999999999999999, 1e15, 1 << 53, 1<<53 + 2,
	math.MaxInt64, math.MinInt64, 123456789.125, 0.1, 1.0 / 3,
}

type gen struct{ r *rand.Rand }

func (g gen) str() string {
	if g.r.Intn(3) == 0 {
		return awkwardStrings[g.r.Intn(len(awkwardStrings))]
	}
	b := make([]byte, g.r.Intn(10))
	for i := range b {
		b[i] = byte('a' + g.r.Intn(26))
	}
	return string(b)
}

// maybe returns a generated string half of the time, so that omitempty
// fields are both present and absent.
func (g gen) maybe() string {
	if g.r.Intn(2) == 0 {
		return ""
	}
	return g.str()
}

func (g gen) strs() []string {
	switch n := g.r.Intn(5); n {
	case 0:
		return nil
	case 1:
		return []string{}
	default:
		out := make([]string, n-1)
		for i := range out {
			out[i] = g.str()
		}
		return out
	}
}

func (g gen) value() constraint.Value {
	switch g.r.Intn(5) {
	case 0:
		return constraint.Num(awkwardNumbers[g.r.Intn(len(awkwardNumbers))])
	case 1:
		return constraint.Num(g.r.NormFloat64() * math.Pow(10, float64(g.r.Intn(50)-25)))
	case 2:
		return constraint.Num(float64(g.r.Intn(100000)))
	default:
		return constraint.Str(g.str())
	}
}

func (g gen) result() SQLResult {
	res := SQLResult{Columns: g.strs()}
	switch n := g.r.Intn(6); n {
	case 0: // nil rows
	case 1:
		res.Rows = []relational.Row{}
	default:
		width := g.r.Intn(5)
		res.Rows = make([]relational.Row, n-1)
		for i := range res.Rows {
			switch g.r.Intn(10) {
			case 0: // a nil row
			case 1:
				res.Rows[i] = relational.Row{}
			default:
				res.Rows[i] = make(relational.Row, width)
				for j := range res.Rows[i] {
					res.Rows[i][j] = g.value()
				}
			}
		}
	}
	if g.r.Intn(4) == 0 {
		res.Partial = g.r.Intn(3) > 0
		for n := g.r.Intn(3); n > 0; n-- {
			res.Degraded = append(res.Degraded, ClassDegradation{Class: g.str(), Agents: g.strs(), Reason: g.maybe()})
		}
	}
	return res
}

func (g gen) spans() []TraceSpan {
	var out []TraceSpan
	for n := g.r.Intn(5); n > 0; n-- {
		s := TraceSpan{
			Agent: g.str(), Op: g.str(), Hop: g.r.Intn(3), Start: g.r.Int63n(3) * 1726000000000000000,
			DurationMicros: g.r.Int63n(5000), Err: g.maybe(),
		}
		switch g.r.Intn(4) {
		case 0:
			s = TraceSpan{Op: OpTraceDropped, Dropped: 1 + g.r.Intn(70)}
		case 1:
			s.Op, s.Decision = OpDecision, g.decision()
		}
		out = append(out, s)
	}
	return out
}

func (g gen) decision() *ProvEvent {
	e := &ProvEvent{Agent: g.maybe()}
	switch g.r.Intn(6) {
	case 0:
		e.Kind, e.Match = ProvMatch, &MatchDecision{Ad: g.str(), Engine: g.maybe(), Accepted: g.r.Intn(2) == 0,
			Reason: g.maybe(), Coverage: g.maybe(), Specificity: g.r.Intn(9), CacheHit: g.r.Intn(2) == 0, Generation: g.r.Uint64()}
	case 1:
		e.Kind, e.Pushdown = ProvPushdown, &PushdownDecision{Class: g.str(), Pushed: g.strs(), Blocked: g.strs(), Columns: g.strs(), Fallback: g.maybe()}
	case 2:
		e.Kind, e.Fetch = ProvFetch, &FetchReport{Resource: g.str(), Class: g.str(), SQL: g.maybe(), Pushed: g.r.Intn(2) == 0,
			Bytes: g.r.Int63n(1 << 20), LatencyMicros: g.r.Int63n(9000), Err: g.maybe()}
	case 3:
		e.Kind, e.Failover = ProvFailover, &FailoverDecision{Class: g.str(), Lost: g.str(), CoveredBy: g.maybe(), Note: g.maybe()}
	case 4:
		e.Kind, e.Forward = ProvForward, &ForwardDecision{Peer: g.str(), Skipped: g.maybe(), Matches: g.r.Intn(5), Err: g.maybe()}
	default:
		e.Kind, e.Plan = ProvPlan, &PlanDecision{Class: g.str(), Order: g.strs(), CostsMicros: []int64{g.r.Int63n(99), 7},
			SemiJoin: g.r.Intn(2) == 0, Build: g.maybe(), Probe: g.maybe(), Keys: g.r.Intn(2000), Aggregates: g.strs(), Fallback: g.maybe()}
	}
	return e
}

// number returns a float from the edge list or from a wide random range,
// so that both sides of json.Marshal's 'f'/'e' switch come up.
func (g gen) number() float64 {
	if g.r.Intn(2) == 0 {
		return awkwardNumbers[g.r.Intn(len(awkwardNumbers))]
	}
	return g.r.NormFloat64() * math.Pow(10, float64(g.r.Intn(50)-25))
}

// field returns a constrained field name, from a small pool half of the
// time so that atoms on one field meet in a set and intersect.
func (g gen) field() string {
	if g.r.Intn(2) == 0 {
		return []string{"patient.age", "patient.code", "x"}[g.r.Intn(3)]
	}
	return g.str()
}

// set returns nil, an empty set or one of zero to three atoms: one-sided,
// open, closed, unbounded and discrete (with no, one or several values).
func (g gen) set() *constraint.Set {
	switch g.r.Intn(6) {
	case 0:
		return nil
	case 1:
		return &constraint.Set{}
	}
	s := constraint.NewSet()
	for n := g.r.Intn(4); n > 0; n-- {
		a := constraint.Atom{Field: g.field()}
		lo, hi := g.number(), g.number()
		switch g.r.Intn(7) {
		case 0:
			a.Interval = constraint.AtLeast(lo)
		case 1:
			a.Interval = constraint.LessThan(hi)
		case 2:
			a.Interval = constraint.Interval{HasLo: true, Lo: lo, LoOpen: true, HasHi: true, Hi: hi, HiOpen: true}
		case 3:
			a.Interval = constraint.NewRange(lo, hi)
		case 4:
			a.Interval = constraint.Unbounded
		default:
			a.Allowed = make([]constraint.Value, g.r.Intn(4))
			for i := range a.Allowed {
				a.Allowed[i] = g.value()
			}
		}
		s.Add(a)
	}
	return s
}

func (g gen) slots() map[string][]string {
	if g.r.Intn(3) == 0 {
		return nil
	}
	m := make(map[string][]string)
	for n := g.r.Intn(4); n > 0; n-- {
		m[g.str()] = g.strs()
	}
	return m
}

func (g gen) agentType() ontology.AgentType {
	if g.r.Intn(4) == 0 {
		return ontology.AgentType(g.str())
	}
	return []ontology.AgentType{ontology.TypeResource, ontology.TypeBroker, ontology.TypeQuery, ontology.TypeAny}[g.r.Intn(4)]
}

func (g gen) ad() *ontology.Advertisement {
	ad := &ontology.Advertisement{Name: g.str(), Address: g.str(), Type: g.agentType(), CommLanguages: g.strs(),
		ContentLanguages: g.strs(), Conversations: g.strs(), Capabilities: g.strs(),
		Properties: ontology.Properties{Mobile: g.r.Intn(2) == 0, Cloneable: g.r.Intn(2) == 0,
			EstimatedResponseSec: g.number(), ThroughputQPS: g.number(), EstimatedRows: g.r.Int63() >> g.r.Intn(64)}}
	switch n := g.r.Intn(5); n {
	case 0: // nil content
	case 1:
		ad.Content = []ontology.Fragment{}
	default:
		for ; n > 1; n-- {
			ad.Content = append(ad.Content, ontology.Fragment{Ontology: g.str(), Classes: g.strs(), Slots: g.slots(), Constraints: g.set()})
		}
	}
	if g.r.Intn(3) == 0 {
		ad.Broker = &ontology.BrokerInfo{Community: g.str(), Consortia: g.strs(), Specializations: g.strs(),
			SpecializationClasses: g.strs(), ConversationTypes: g.strs()}
		if types := g.strs(); types != nil {
			ad.Broker.AgentTypes = make([]ontology.AgentType, len(types))
			for i := range types {
				ad.Broker.AgentTypes[i] = g.agentType()
			}
		}
	}
	return ad
}

// maybeAd returns nil sometimes, for the null a nil pointer encodes as.
func (g gen) maybeAd() *ontology.Advertisement {
	if g.r.Intn(10) == 0 {
		return nil
	}
	return g.ad()
}

func (g gen) query() *ontology.Query {
	q := &ontology.Query{Type: g.agentType(), ContentLanguage: g.maybe(), CommLanguage: g.maybe(), Conversations: g.strs(),
		Capabilities: g.strs(), Ontology: g.str(), Classes: g.strs(), Slots: g.strs(), Constraints: g.set(),
		MaxResponseSec: g.number(), Limit: g.r.Intn(9) - 1,
		Policy: ontology.SearchPolicy{HopCount: g.r.Intn(5) - 1, Follow: ontology.FollowOption(g.r.Intn(4))}}
	if g.r.Intn(3) > 0 {
		mobile := g.r.Intn(2) == 0
		q.RequireMobile = &mobile
	}
	return q
}

// content returns a payload of the kind the performative usually carries,
// nil sometimes.
func (g gen) content(p Performative) any {
	if g.r.Intn(12) == 0 {
		return nil
	}
	query := g.query()
	if g.r.Intn(10) == 0 {
		query = nil
	}
	switch p {
	case Advertise, Unadvertise:
		return &AdvertiseContent{Ad: g.maybeAd()}
	case AskAll, AskOne:
		if g.r.Intn(2) == 0 {
			return &BrokerQuery{Query: query, HopsLeft: g.r.Intn(4), Visited: g.strs(), Forwarded: g.r.Intn(2) == 0, Depth: g.r.Intn(3), Holder: g.maybe()}
		}
		return &SQLQuery{SQL: g.str()}
	case Tell:
		switch g.r.Intn(6) {
		case 0:
			var matches []*ontology.Advertisement
			switch n := g.r.Intn(9); n {
			case 0: // nil
			case 1:
				matches = []*ontology.Advertisement{}
			default:
				for ; n > 1; n-- {
					matches = append(matches, g.maybeAd())
				}
			}
			return &BrokerReply{Matches: matches, Brokers: g.strs(), Degraded: g.strs(), Granted: g.r.Intn(2) == 0}
		case 1:
			return &SubscribeAck{ID: g.str(), Initial: g.result()}
		case 2:
			return &UpdateAck{SubscriptionID: g.str(), Seq: g.r.Uint64()}
		case 3:
			return &PingReply{Known: g.r.Intn(2) == 0}
		default:
			res := g.result()
			return &res
		}
	case Sorry, Error:
		return &SorryContent{Reason: g.str()}
	case Subscribe:
		return &SubscribeContent{SQL: g.str(), SubscriberName: g.str(), SubscriberAddress: g.str()}
	case Unsubscribe:
		return &UnsubscribeContent{ID: g.str()}
	case Update:
		return &UpdateContent{SubscriptionID: g.str(), SQL: g.str(), Result: g.result(),
			Seq: uint64(g.r.Intn(3)) * g.r.Uint64(), Coalesced: g.r.Intn(2) * g.r.Intn(40)}
	case Recruit:
		embedded := New(AskAll, g.str(), &SQLQuery{SQL: g.str()})
		return &RecruitContent{Query: query, Embedded: embedded}
	default: // Ping
		return &PingContent{AgentName: g.str()}
	}
}

func (g gen) message(p Performative) (*Message, any) {
	m := &Message{Performative: p, Sender: g.str(), Receiver: g.maybe(), ReplyTo: g.maybe(), Language: g.maybe(),
		Ontology: g.maybe(), ReplyWith: g.maybe(), InReplyTo: g.maybe()}
	if g.r.Intn(3) == 0 {
		m.TraceID, m.Trace = g.str(), g.spans()
	}
	return m, g.content(p)
}

// checkMessage holds one message and payload to the oracle: SetContent,
// Marshal, Unmarshal and DecodeContent each against the old path.
func checkMessage(t *testing.T, m *Message, body any) {
	t.Helper()
	if body != nil {
		want, wantErr := json.Marshal(refContent(body))
		gotErr := m.SetContent(body)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("SetContent(%#v) error = %v, reference error = %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !bytes.Equal(m.Content, want) {
			t.Fatalf("SetContent(%T):\n got %s\nwant %s", body, m.Content, want)
		}
	}
	want, wantErr := json.Marshal(m)
	got, gotErr := Marshal(m)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("Marshal error = %v, reference error = %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Marshal:\n got %s\nwant %s", got, want)
	}
	if framed, err := AppendMessage([]byte("head"), m); err != nil || !bytes.Equal(framed, append([]byte("head"), want...)) {
		t.Fatalf("AppendMessage after a prefix = %s, %v", framed, err)
	}
	if m.contentIsEncoded() && !new(Message).decodeEnvelope(got) {
		t.Fatalf("the envelope decoder declined a frame its own encoder wrote: %s", got)
	}
	back, err := Unmarshal(got)
	refBack, refErr := refUnmarshal(want)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Unmarshal(%s) error = %v, reference error = %v", got, err, refErr)
	}
	if err != nil {
		return
	}
	if !identical(back, refBack) {
		t.Fatalf("Unmarshal(%s):\n got %#v\nwant %#v", got, back, refBack)
	}
	if body == nil {
		return
	}
	decoded := reflect.New(reflect.TypeOf(body).Elem()).Interface()
	switch body.(type) {
	case *SQLResult, *UpdateContent, *SubscribeAck, *AdvertiseContent, *BrokerQuery, *BrokerReply, *SQLQuery:
		if !decodeContent(back.Content, decoded) {
			t.Fatalf("the %T decoder declined content its own encoder wrote: %s", body, back.Content)
		}
		decoded = reflect.New(reflect.TypeOf(body).Elem()).Interface()
	}
	if err := back.DecodeContent(decoded); err != nil {
		t.Fatalf("DecodeContent(%s) into %T: %v", back.Content, decoded, err)
	}
	refDecoded, err := refDecodeContent(back.Content, body)
	if err != nil || !identical(decoded, refDecoded) {
		t.Fatalf("DecodeContent(%s):\n got %#v\nwant %#v, %v", back.Content, decoded, refDecoded, err)
	}
}

func TestCodecMatchesReference(t *testing.T) {
	g := gen{rand.New(rand.NewSource(1999))}
	for i := 0; i < 400; i++ {
		for _, p := range allPerformatives {
			m, body := g.message(p)
			checkMessage(t, m, body)
		}
	}
}

// TestCodecContentOfUnknownOrigin covers Content that did not come from
// SetContent: Marshal must still compact, escape and validate it.
func TestCodecContentOfUnknownOrigin(t *testing.T) {
	for _, content := range []string{
		`{"sql":"select 1"}`, ` { "sql" : "a<b" , "x" : [ 1 , 2 ] } `, `null`, `"x"`, `[]`, "{\"s\":\"\xe2\x80\xa8\"}",
		`{"sql":`, `garbage`, `{"a":1}{"b":2}`, "",
	} {
		m := &Message{Performative: Tell, Sender: "a", Content: json.RawMessage(content)}
		checkMessage(t, m, nil)
	}
	// A slice SetContent stored and the caller then replaced or cut is no
	// longer taken on trust.
	m := New(Tell, "a", &SQLQuery{SQL: "select 1"})
	m.Content = m.Content[:len(m.Content)-1]
	checkMessage(t, m, nil)
	m = New(Tell, "a", &SQLQuery{SQL: "select 1"})
	m.Content = json.RawMessage(` {"sql": "select 2"}`)
	checkMessage(t, m, nil)
	cp := *New(Tell, "a", &SQLQuery{SQL: "select 1"})
	checkMessage(t, &cp, nil)
}

func TestSetContentRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := SQLResult{Columns: []string{"x"}, Rows: []relational.Row{{constraint.Num(1)}, {constraint.Num(f)}}}
		for _, body := range []any{&res, &UpdateContent{Result: res}, &SubscribeAck{Initial: res}, res} {
			m := New(Tell, "a", &SQLQuery{SQL: "kept"})
			kept := string(m.Content)
			if err := m.SetContent(body); err == nil {
				t.Errorf("SetContent(%T with %v) = %s, want an error", body, f, m.Content)
			}
			if _, err := json.Marshal(refContent(body)); err == nil {
				t.Errorf("reference accepts %T with %v", body, f)
			}
			if string(m.Content) != kept {
				t.Errorf("failed SetContent changed Content to %s", m.Content)
			}
		}
		ad := benchAd(1)
		ad.Properties.ThroughputQPS = f
		bad := constraint.NewSet(constraint.Atom{Field: "x", Interval: constraint.AtLeast(f)})
		for _, body := range []any{&AdvertiseContent{Ad: ad}, &BrokerReply{Matches: []*ontology.Advertisement{benchAd(2), ad}},
			&BrokerQuery{Query: &ontology.Query{Constraints: bad}}, &BrokerQuery{Query: &ontology.Query{MaxResponseSec: f}}} {
			if err := new(Message).SetContent(body); err == nil {
				t.Errorf("SetContent(%T with %v) succeeded, want an error", body, f)
			}
			if _, err := json.Marshal(refContent(body)); err == nil {
				t.Errorf("reference accepts %T with %v", body, f)
			}
		}
	}
}

// TestDecodeContentIntoUsedTarget pins the one case the hand-written
// decoder declines on purpose: json.Unmarshal keeps what a used target
// holds for keys the text omits, so such a target goes to it.
func TestDecodeContentIntoUsedTarget(t *testing.T) {
	m := New(Tell, "a", &SQLResult{Columns: []string{"x"}, Rows: []relational.Row{{constraint.Num(1)}}})
	got := SQLResult{Partial: true, Degraded: []ClassDegradation{{Class: "kept"}}}
	want := toRef(got)
	if err := m.DecodeContent(&got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(m.Content, &want); err != nil {
		t.Fatal(err)
	}
	if !identical(got, fromRef(want)) {
		t.Fatalf("DecodeContent into a used target = %#v, reference = %#v", got, fromRef(want))
	}
}

// TestDecodedRowsAreIndependent checks the windows DecodeRowsJSON cuts
// from one backing array: appending to a row must not write into the next.
func TestDecodedRowsAreIndependent(t *testing.T) {
	m := New(Tell, "a", &SQLResult{Columns: []string{"x", "y"}, Rows: []relational.Row{
		{constraint.Num(1), constraint.Str("a")}, {constraint.Num(2), constraint.Str("b")}}})
	var res SQLResult
	if err := m.DecodeContent(&res); err != nil {
		t.Fatal(err)
	}
	_ = append(res.Rows[0], constraint.Str("overflow"))
	if !res.Rows[1][0].Equal(constraint.Num(2)) {
		t.Fatalf("appending to row 0 overwrote row 1: %v", res.Rows[1])
	}
}

// TestDecodedAdvertisementOwnsItsStrings: a broker keeps an advertisement
// for as long as it is advertised, so nothing decoded from one may be a
// window of the frame. Overwriting the frame must leave the ad unchanged.
func TestDecodedAdvertisementOwnsItsStrings(t *testing.T) {
	ad := benchAd(3)
	ad.Content[0].Constraints.Add(constraint.Atom{Field: "c3.status", Allowed: []constraint.Value{constraint.Str("open")}})
	want := ad.Clone()
	wire := mustMarshal(t, New(Advertise, "RA3", &AdvertiseContent{Ad: ad}))
	m, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	var ac AdvertiseContent
	if err := m.DecodeContent(&ac); err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = 'X'
	}
	got := ac.Ad
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after the frame was overwritten the decoded ad reads\n%#v\nwant\n%#v", got, want)
	}
	status, _ := got.Content[0].Constraints.Atom("c3.status")
	if got.Name != "RA3" || got.Address != "tcp://127.0.0.1:9" || got.Content[0].Classes[0] != "c3" ||
		got.Content[0].Constraints.Fields()[0] != "c3.id" || status.Allowed[0].Text() != "open" {
		t.Fatalf("decoded ad changed with its frame: %v %v", got, got.Content[0].Constraints)
	}
}

// TestUnmarshalKeepsFrame pins the ownership rule: Content is a window of
// the frame Unmarshal was given, capacity-limited so that appending to it
// cannot write into the frame.
func TestUnmarshalKeepsFrame(t *testing.T) {
	wire := mustMarshal(t, New(AskAll, "a", &SQLQuery{SQL: "select 1"}))
	m, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if &m.Content[0] != &wire[bytes.Index(wire, m.Content)] {
		t.Error("Content was copied out of the frame")
	}
	if cap(m.Content) != len(m.Content) {
		t.Errorf("Content has capacity %d beyond its length %d", cap(m.Content), len(m.Content))
	}
}

// Fuzz targets. Each holds the hand-written decoder to the oracle on
// arbitrary input: no panic, the same accept or reject, the same value,
// and the same bytes when that value is encoded again.

func fuzzSeedMessages(f *testing.F) {
	g := gen{rand.New(rand.NewSource(7))}
	for i := 0; i < 3; i++ {
		for _, p := range allPerformatives {
			m, body := g.message(p)
			if body != nil && m.SetContent(body) != nil {
				continue
			}
			if wire, err := Marshal(m); err == nil {
				f.Add(wire)
			}
		}
	}
}

func FuzzUnmarshal(f *testing.F) {
	fuzzSeedMessages(f)
	for _, s := range []string{
		`{"performative":"tell","sender":"a"}`, `{"sender":"a","performative":"tell"}`, `{"performative":"","sender":"a"}`,
		`{"performative":"tell","sender":"a","content":null}`, `{"performative":"tell","sender":"a","content": {"a" : 1}}`,
		`{"performative":"tell","sender":null}`, `{"performative":"tell","sender":"a","trace":null,"provenance":[]}`,
		`{"performative":"tell","sender":"a","trace":[{"agent":"B1","op":"decision","start":1,"decision":{"kind":"forward","forward":null}}]}`,
		`{"performative":"tell","sender":"a","trace":[{"agent":"","op":"trace.dropped","dropped":-3},{"op":"decision","decision":7}]}`,
		`{"performative":"tell","sender":"a","trace":[{"agent":"x","op":"y","hop":"z"}]}`, `{"Performative":"tell","SENDER":"a"}`,
		`{"performative":"tell","sender":"a","receiver":"b","receiver":"c"}`, `{"performative":"tell","sender":"a","extra":1}`,
		`{"performative":"tell","sender":"a","content":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}`,
		`{"performative":"tell","sender":"a","content":{"x":"\q"}}`, `{"performative":"tell","sender":"a"} `, `null`, `{}`, `[]`, ``,
		`{"performative":"tell","sender":"a","content":01}`, `{"performative":"tell","sender":"a","content":tru}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := Unmarshal(data)
		want, wantErr := refUnmarshal(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Unmarshal(%q) error = %v, reference error = %v", data, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !identical(got, want) {
			t.Fatalf("Unmarshal(%q):\n got %#v\nwant %#v", data, got, want)
		}
		enc, encErr := Marshal(got)
		ref, refErr := json.Marshal(want)
		if (encErr == nil) != (refErr == nil) || refErr == nil && !bytes.Equal(enc, ref) {
			t.Fatalf("Marshal of Unmarshal(%q):\n got %s, %v\nwant %s, %v", data, enc, encErr, ref, refErr)
		}
	})
}

func FuzzSQLResultJSON(f *testing.F) {
	g := gen{rand.New(rand.NewSource(11))}
	for i := 0; i < 12; i++ {
		for _, body := range []any{g.content(Tell), g.content(Update)} {
			if m := new(Message); body != nil && m.SetContent(body) == nil {
				f.Add([]byte(m.Content))
			}
		}
	}
	for _, s := range []string{
		`{"columns":null,"rows":null}`, `{"columns":[],"rows":[]}`, `{"columns":["a"],"rows":[[{"n":1}],null,[]]}`,
		`{"rows":[[{"n":1}]],"columns":["a"]}`, `{"columns":["a"],"rows":[[null]]}`, `{"columns":["a"],"rows":[[{"n":1,"s":"x"}]]}`,
		`{"columns":["a"],"rows":[[{"n":1e999}]]}`, `{"columns":["a"],"rows":[[{"n":-0},{"n":1.50},{"n":1E2}]]}`,
		`{"columns":["a"],"rows":[[{"s":"a` + "\xff" + `b"}]]}`, `{"columns":["a"],"rows":[[{"s":"\n"}, {"s":"x"}]]}`,
		`{"columns":["a"],"rows":[],"partial":false}`, `{"columns":["a"],"rows":[],"partial":true,"degraded":null}`,
		`{"columns":["a"],"rows":[],"degraded":[{"class":"c","agents":["x"]}],"partial":true}`, `{"columns":"a","rows":[]}`,
		`{"id":"s1","initial":{"columns":["a"],"rows":[[{"s":"x"}]]}}`, `{"id":"s1","initial":null}`,
		`{"subscription_id":"s1","sql":"q","result":{"columns":null,"rows":null},"seq":18446744073709551615,"coalesced":-3}`,
		`{"subscription_id":"s1","sql":"q","result":{"columns":null,"rows":null},"seq":-1}`, `{"columns":["a"],"rows":[[{"n":1}]]}x`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return // DecodeContent refuses an absent payload before any decoder sees it
		}
		for _, target := range []any{new(SQLResult), new(UpdateContent), new(SubscribeAck)} {
			m := &Message{Performative: Tell, Sender: "fuzz", Content: data}
			gotErr := m.DecodeContent(target)
			want, wantErr := refDecodeContent(data, target)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("DecodeContent(%q) into %T error = %v, reference error = %v", data, target, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !identical(target, want) {
				t.Fatalf("DecodeContent(%q):\n got %#v\nwant %#v", data, target, want)
			}
			encErr := m.SetContent(target)
			ref, refErr := json.Marshal(refContent(want))
			if (encErr == nil) != (refErr == nil) || refErr == nil && !bytes.Equal(m.Content, ref) {
				t.Fatalf("SetContent of DecodeContent(%q):\n got %s, %v\nwant %s, %v", data, m.Content, encErr, ref, refErr)
			}
		}
	})
}

func FuzzBrokerPayloadJSON(f *testing.F) {
	g := gen{rand.New(rand.NewSource(13))}
	for i := 0; i < 12; i++ {
		for _, p := range []Performative{Advertise, AskAll, Tell} {
			body := g.content(p)
			switch body.(type) {
			case *AdvertiseContent, *BrokerQuery, *BrokerReply, *SQLQuery:
				if m := new(Message); m.SetContent(body) == nil {
					f.Add([]byte(m.Content))
				}
			}
		}
	}
	ad := `{"Name":"RA1","Address":"a","Type":"resource","CommLanguages":["KQML"],"ContentLanguages":null,"Conversations":[],` +
		`"Capabilities":null,"Content":[{"Ontology":"generic","Classes":["C1"],"Slots":{"C1":["id"]},"Constraints":` +
		`[{"Field":"C1.id","Interval":{"HasLo":true,"HasHi":false,"Lo":4,"Hi":0,"LoOpen":false,"HiOpen":false},"Allowed":null}]}],` +
		`"Properties":{"Mobile":false,"Cloneable":false,"EstimatedResponseSec":0,"ThroughputQPS":0,"EstimatedRows":7},"Broker":null}`
	for _, s := range []string{
		`{"ad":null}`, `{"ad":` + ad + `}`, `{"ad" : ` + ad + `}`, `{"matches":[` + ad + `,null,` + ad + `],"brokers":["B1"]}`,
		`{"matches":null}`, `{"matches":[],"brokers":[],"degraded":null}`, `{"degraded":["B2"],"matches":[]}`,
		`{"matches":[],"brokers":["B1"],"granted":true}`, `{"matches":[],"granted":false}`, `{"matches":[],"granted":1}`,
		`{"query":null,"hops_left":0,"holder":"tcp://127.0.0.1:4400"}`, `{"query":null,"hops_left":0,"holder":""}`,
		`{"query":null,"hops_left":0,"depth":1,"holder":null}`, `{"holder":"x","query":null,"hops_left":0}`,
		`{"ad":{"Name":"x","Slots":{"b":["1"],"a":null,"b":[]}}}`,
		`{"ad":{"Name":"x","Content":[{"Slots":{"b":["1"],"a":null,"b":[]},"Constraints":[]}]}}`,
		`{"query":null,"hops_left":1}`, `{"query":null,"hops_left":1.5}`, `{"query":null,"hops_left":99999999999999999999}`,
		`{"query":{"Type":"","ContentLanguage":"","CommLanguage":"","Conversations":null,"Capabilities":null,"Ontology":"","Classes":null,` +
			`"Slots":null,"Constraints":[{"Field":"a","Interval":{"HasLo":false,"HasHi":false,"Lo":0,"Hi":0,"LoOpen":false,"HiOpen":false},` +
			`"Allowed":[{"s":"x"},{"n":1}]},{"Field":"a","Interval":{"HasLo":false,"HasHi":false,"Lo":0,"Hi":0,"LoOpen":false,"HiOpen":false},` +
			`"Allowed":[{"n":1}]}],"MaxResponseSec":1e-7,"RequireMobile":false,"Limit":-1,"Policy":{"HopCount":2,"Follow":9}},` +
			`"hops_left":0,"visited":["B1"],"forwarded":false,"depth":-2}`,
		`{"query":{"Constraints":[{"Field":"b"},{"Field":"a","Allowed":[]}],"RequireMobile":null}}`,
		`{"query":{"Constraints":null,"RequireMobile":true},"hops_left":"1"}`, `{"sql":"select * from C1"}`, `{"sql":null}`,
		`{"sql":"a\u003cb\ud800"}`, `{"sql":"x"} `, `{"sql":"x","sql":"y"}`, `null`, `[]`, `{}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return // DecodeContent refuses an absent payload before any decoder sees it
		}
		for _, target := range []any{new(AdvertiseContent), new(BrokerQuery), new(BrokerReply), new(SQLQuery)} {
			m := &Message{Performative: Tell, Sender: "fuzz", Content: data}
			gotErr := m.DecodeContent(target)
			want, wantErr := refDecodeContent(data, target)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("DecodeContent(%q) into %T error = %v, reference error = %v", data, target, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !identical(target, want) {
				t.Fatalf("DecodeContent(%q):\n got %#v\nwant %#v", data, target, want)
			}
			encErr := m.SetContent(target)
			ref, refErr := json.Marshal(refContent(want))
			if (encErr == nil) != (refErr == nil) || refErr == nil && !bytes.Equal(m.Content, ref) {
				t.Fatalf("SetContent of DecodeContent(%q):\n got %s, %v\nwant %s, %v", data, m.Content, encErr, ref, refErr)
			}
		}
	})
}

// Micro-benchmarks. The result is 128 rows of 5 columns of the kinds the
// generic domain has (an integer key, two numbers, two short strings),
// envelope included; the small message is a broker query and its reply.

func benchResultMessage() *Message {
	res := &SQLResult{Columns: []string{"id", "quantity", "price", "region", "status"}}
	for i := 0; i < 128; i++ {
		res.Rows = append(res.Rows, relational.Row{
			constraint.Num(float64(1000 + i)), constraint.Num(float64(i % 17)), constraint.Num(float64(i) * 1.25),
			constraint.Str("region-" + string(rune('a'+i%7))), constraint.Str(strings.Repeat("s", 4+i%5)),
		})
	}
	m := New(Tell, "RA5", res)
	m.Receiver, m.InReplyTo, m.Language = "MRQ1", "q-17", "SQL 2.0"
	return m
}

// benchAd is an advertisement of the shape the broker benchmarks
// advertise: one fragment of one class under a range constraint.
func benchAd(i int) *ontology.Advertisement {
	class := fmt.Sprintf("c%d", i)
	return &ontology.Advertisement{
		Name: fmt.Sprintf("RA%d", i), Address: "tcp://127.0.0.1:9", Type: ontology.TypeResource,
		CommLanguages: []string{ontology.LangKQML}, ContentLanguages: []string{ontology.LangSQL2},
		Conversations: []string{ontology.ConvAskAll}, Capabilities: []string{ontology.CapRelationalQueryProcessing},
		Content: []ontology.Fragment{{Ontology: "generic", Classes: []string{class},
			Constraints: constraint.NewSet(constraint.Atom{Field: class + ".id", Interval: constraint.NewRange(float64(100*i), float64(100*i+250))})}},
	}
}

// benchReplyMessage is a broker's tell carrying seven matched
// advertisements, the size of a search's answer on the broker workload.
func benchReplyMessage() *Message {
	reply := &BrokerReply{Brokers: []string{"Broker1"}}
	for i := 0; i < 7; i++ {
		reply.Matches = append(reply.Matches, benchAd(i))
	}
	m := New(Tell, "Broker1", reply)
	m.Receiver, m.InReplyTo, m.Ontology = "MRQ1", "q-17", ServiceOntology
	return m
}

var benchSink any

// The codec benchmarks and TestCodecAllocs (their allocation ceilings)
// run the same operations.

// encodeResultOp sets a 128-row result as content and marshals the message.
func encodeResultOp(tb testing.TB) (op func(), wireLen int) {
	m := benchResultMessage()
	var res SQLResult
	if err := m.DecodeContent(&res); err != nil {
		tb.Fatal(err)
	}
	wire, _ := Marshal(m)
	return func() {
		env := *m
		if err := env.SetContent(&res); err != nil {
			tb.Fatal(err)
		}
		out, err := Marshal(&env)
		if err != nil {
			tb.Fatal(err)
		}
		benchSink = out
	}, len(wire)
}

// decodeResultOp unmarshals that message and decodes its result.
func decodeResultOp(tb testing.TB) (op func(), wireLen int) {
	wire, err := Marshal(benchResultMessage())
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		m, err := Unmarshal(wire)
		if err != nil {
			tb.Fatal(err)
		}
		var res SQLResult
		if err := m.DecodeContent(&res); err != nil {
			tb.Fatal(err)
		}
		benchSink = res
	}, len(wire)
}

// decodeReplyOp unmarshals the seven-advertisement reply and decodes it.
func decodeReplyOp(tb testing.TB) (op func(), wireLen int) {
	wire, err := Marshal(benchReplyMessage())
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		m, err := Unmarshal(wire)
		if err != nil {
			tb.Fatal(err)
		}
		var r BrokerReply
		if err := m.DecodeContent(&r); err != nil {
			tb.Fatal(err)
		}
		benchSink = r
	}, len(wire)
}

// advertiseOp is an advertise and the broker's tell through the codec,
// both directions: a resource's advertisement out, the broker's own back.
func advertiseOp(tb testing.TB) func() {
	ad := benchAd(5)
	self := &ontology.Advertisement{Name: "Broker1", Address: "tcp://127.0.0.1:4356", Type: ontology.TypeBroker,
		CommLanguages: []string{ontology.LangKQML}, ContentLanguages: []string{ontology.LangLDL},
		Conversations: []string{ontology.ConvAskAll, ontology.ConvAdvertise}, Capabilities: []string{ontology.CapBrokering},
		Broker: &ontology.BrokerInfo{Community: "c", AgentTypes: []ontology.AgentType{ontology.TypeResource},
			ConversationTypes: []string{"delegation", "forwarding"}}}
	roundTrip := func(m *Message) {
		wire, err := Marshal(m)
		if err != nil {
			tb.Fatal(err)
		}
		got, err := Unmarshal(wire)
		if err != nil {
			tb.Fatal(err)
		}
		var ac AdvertiseContent
		if err := got.DecodeContent(&ac); err != nil {
			tb.Fatal(err)
		}
		benchSink = ac
	}
	return func() {
		adv := New(Advertise, "RA5", &AdvertiseContent{Ad: ad})
		adv.Receiver, adv.ReplyWith, adv.Ontology = "Broker1", "a-5", ServiceOntology
		roundTrip(adv)
		tell := New(Tell, "Broker1", &AdvertiseContent{Ad: self})
		tell.InReplyTo = adv.ReplyWith
		roundTrip(tell)
	}
}

// smallMessageOp is a broker-query-sized ask/tell round trip through the
// codec, both directions.
func smallMessageOp(tb testing.TB) func() {
	query := &BrokerQuery{HopsLeft: 2, Query: &ontology.Query{Type: ontology.TypeResource, Ontology: "healthcare", Classes: []string{"patient"},
		Constraints: constraint.NewSet(constraint.Atom{Field: "patient.patient_age", Interval: constraint.NewRange(43, 75)})}}
	reply := &PingReply{Known: true}
	return func() {
		ask := New(AskAll, "MRQ1", query)
		ask.Receiver, ask.ReplyWith, ask.Ontology = "Broker1", "q-17", ServiceOntology
		wire, err := Marshal(ask)
		if err != nil {
			tb.Fatal(err)
		}
		got, err := Unmarshal(wire)
		if err != nil {
			tb.Fatal(err)
		}
		var bq BrokerQuery
		if err := got.DecodeContent(&bq); err != nil {
			tb.Fatal(err)
		}
		tell := New(Tell, "Broker1", reply)
		tell.InReplyTo = got.ReplyWith
		if wire, err = Marshal(tell); err != nil {
			tb.Fatal(err)
		}
		if got, err = Unmarshal(wire); err != nil {
			tb.Fatal(err)
		}
		var pr PingReply
		if err := got.DecodeContent(&pr); err != nil {
			tb.Fatal(err)
		}
		benchSink = pr
	}
}

func benchmarkCodec(b *testing.B, op func(), wireLen int) {
	b.SetBytes(int64(wireLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkCodecEncodeResult(b *testing.B) {
	op, n := encodeResultOp(b)
	benchmarkCodec(b, op, n)
}

func BenchmarkCodecDecodeResult(b *testing.B) {
	op, n := decodeResultOp(b)
	benchmarkCodec(b, op, n)
}

func BenchmarkCodecBrokerReply(b *testing.B) {
	op, n := decodeReplyOp(b)
	benchmarkCodec(b, op, n)
}

func BenchmarkCodecSmallMessage(b *testing.B) { benchmarkCodec(b, smallMessageOp(b), 0) }
