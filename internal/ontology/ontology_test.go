package ontology

import (
	"reflect"
	"sort"
	"testing"

	"infosleuth/internal/constraint"
)

func TestOntologyClassHierarchy(t *testing.T) {
	o := Healthcare()
	if !o.IsSubclassOf("podiatrist", "physician") {
		t.Error("podiatrist should be a subclass of physician")
	}
	if !o.IsSubclassOf("physician", "physician") {
		t.Error("a class is a subclass of itself")
	}
	if o.IsSubclassOf("physician", "podiatrist") {
		t.Error("superclass is not a subclass of its child")
	}
	if o.IsSubclassOf("patient", "physician") {
		t.Error("unrelated classes are not subclasses")
	}
	if o.IsSubclassOf("nonexistent", "physician") {
		t.Error("unknown class is not a subclass of anything")
	}
}

// TestOntologyDescendants: Descendants(c) is exactly the other names n with
// IsSubclassOf(n, c), which is what lets a class probe expand a query class
// the way Match reasons about it.
func TestOntologyDescendants(t *testing.T) {
	o := New("chain")
	o.MustAddClass(Class{Name: "a"})
	o.MustAddClass(Class{Name: "b", IsA: "a"})
	o.MustAddClass(Class{Name: "c", IsA: "b"})
	o.MustAddClass(Class{Name: "b2", IsA: "a"})
	o.MustAddClass(Class{Name: "lone"})
	for _, class := range append(o.Classes(), "unknown") {
		var want []string
		for _, n := range o.Classes() {
			if n != class && o.IsSubclassOf(n, class) {
				want = append(want, n)
			}
		}
		got := append([]string(nil), o.Descendants(class)...)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Descendants(%q) = %v, want %v", class, got, want)
		}
	}
}

func TestOntologySlotInheritance(t *testing.T) {
	o := Healthcare()
	slots := o.SlotsOf("podiatrist")
	want := map[string]bool{"physician_id": true, "physician_name": true, "region": true, "specialty_cert": true}
	if len(slots) != len(want) {
		t.Fatalf("SlotsOf(podiatrist) = %v, want %d slots", slots, len(want))
	}
	for _, s := range slots {
		if !want[s] {
			t.Errorf("unexpected slot %q", s)
		}
	}
	// Superclass slots come first.
	if slots[0] != "physician_id" {
		t.Errorf("inherited slots should precede own slots, got %v", slots)
	}
}

func TestOntologyKeyInheritance(t *testing.T) {
	o := Healthcare()
	if got := o.KeyOf("podiatrist"); got != "physician_id" {
		t.Errorf("KeyOf(podiatrist) = %q, want inherited physician_id", got)
	}
	if got := o.KeyOf("patient"); got != "patient_id" {
		t.Errorf("KeyOf(patient) = %q", got)
	}
	if got := o.KeyOf("nope"); got != "" {
		t.Errorf("KeyOf(unknown) = %q, want empty", got)
	}
}

func TestOntologyAddClassErrors(t *testing.T) {
	o := New("t")
	if err := o.AddClass(Class{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := o.AddClass(Class{Name: "a"}); err == nil {
		t.Error("duplicate class should error")
	}
	if err := o.AddClass(Class{Name: "b", IsA: "missing"}); err == nil {
		t.Error("unknown superclass should error")
	}
}

func TestCapabilityHierarchyFigure2(t *testing.T) {
	h := DefaultHierarchy()
	// "if an agent does all query processing, then it certainly does
	// relational query processing and could process a simple select"
	if !h.Subsumes(CapQueryProcessing, CapSelect) {
		t.Error("query processing should subsume select")
	}
	if !h.Subsumes(CapRelationalQueryProcessing, CapJoin) {
		t.Error("relational query processing should subsume join")
	}
	// "just because an agent can process a simple select query does not
	// mean that it can do any relational query"
	if h.Subsumes(CapSelect, CapRelationalQueryProcessing) {
		t.Error("select must not subsume relational query processing")
	}
	if h.Subsumes(CapOOQueryProcessing, CapSelect) {
		t.Error("OO query processing does not contain relational select")
	}
	if !h.Subsumes(CapSubscription, CapSubscription) {
		t.Error("a capability subsumes itself")
	}
}

func TestCapabilitySatisfies(t *testing.T) {
	h := DefaultHierarchy()
	if !h.Satisfies([]string{CapQueryProcessing}, CapSelect) {
		t.Error("generalist should satisfy a specific request")
	}
	if h.Satisfies([]string{CapSelect}, CapQueryProcessing) {
		t.Error("specialist must not satisfy a general request")
	}
	if !h.Satisfies([]string{CapSelect, CapUnion}, CapUnion) {
		t.Error("exact capability should satisfy")
	}
	if h.Satisfies(nil, CapSelect) {
		t.Error("no capabilities satisfy nothing")
	}
}

func TestCapabilityHierarchyCycleRejected(t *testing.T) {
	h := NewCapabilityHierarchy()
	if err := h.Add("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("b", "c"); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("c", "a"); err == nil {
		t.Error("cycle should be rejected")
	}
	if err := h.Add("a", "a"); err == nil {
		t.Error("self-containment should be rejected")
	}
	// Re-adding an existing edge is fine.
	if err := h.Add("a", "b"); err != nil {
		t.Errorf("idempotent add failed: %v", err)
	}
}

func TestCapabilityDescendants(t *testing.T) {
	h := DefaultHierarchy()
	desc := h.Descendants(CapRelationalQueryProcessing)
	want := []string{CapJoin, CapProject, CapSelect, CapUnion}
	if len(desc) != len(want) {
		t.Fatalf("Descendants = %v, want %v", desc, want)
	}
	for i := range want {
		if desc[i] != want[i] {
			t.Fatalf("Descendants = %v, want %v", desc, want)
		}
	}
}

func TestCapabilityCaseInsensitive(t *testing.T) {
	h := DefaultHierarchy()
	if !h.Subsumes("Query Processing", "SELECT") {
		t.Error("capability names should match case-insensitively")
	}
}

// resourceAgent5 reproduces the advertisement of Section 2.4 verbatim.
func resourceAgent5() *Advertisement {
	return &Advertisement{
		Name:             "ResourceAgent5",
		Address:          "tcp://b1.mcc.com:4356",
		Type:             TypeResource,
		CommLanguages:    []string{LangKQML},
		ContentLanguages: []string{LangSQL2},
		Conversations:    []string{ConvSubscribe, ConvUpdate, ConvAskAll},
		Capabilities:     []string{CapRelationalQueryProcessing, CapSubscription},
		Content: []Fragment{{
			Ontology:    "healthcare",
			Classes:     []string{"diagnosis", "patient"},
			Constraints: constraint.MustParse("patient.patient_age between 43 and 75"),
		}},
		Properties: Properties{EstimatedResponseSec: 5},
	}
}

// queryAgent2Query reproduces the broker query of Section 2.4: resource
// agents speaking SQL 2.0 over healthcare with patients aged 25-65 and
// diagnosis code 40W.
func queryAgent2Query() *Query {
	return &Query{
		Type:            TypeResource,
		ContentLanguage: LangSQL2,
		Ontology:        "healthcare",
		Constraints: constraint.MustParse(
			"(patient.patient_age between 25 and 65) AND (patient.diagnosis_code = '40W')"),
	}
}

func TestMatchPaperSection24(t *testing.T) {
	w := NewWorld(Healthcare())
	ad := resourceAgent5()
	if err := ad.Validate(); err != nil {
		t.Fatalf("advertisement invalid: %v", err)
	}
	q := queryAgent2Query()
	if err := q.Validate(); err != nil {
		t.Fatalf("query invalid: %v", err)
	}
	if reason := Match(w, ad, q); reason != Matched {
		t.Errorf("paper example should match, got rejection: %s", reason)
	}
}

func TestMatchRejectionReasons(t *testing.T) {
	w := NewWorld(Healthcare())
	base := queryAgent2Query()

	tests := []struct {
		name   string
		mutate func(*Advertisement, *Query)
		want   MatchReason
	}{
		{"wrong type", func(ad *Advertisement, q *Query) { q.Type = TypeQuery }, RejectType},
		{"wrong comm language", func(ad *Advertisement, q *Query) { q.CommLanguage = "FIPA-ACL" }, RejectCommLanguage},
		{"wrong content language", func(ad *Advertisement, q *Query) { q.ContentLanguage = LangOQL }, RejectContentLang},
		{"missing conversation", func(ad *Advertisement, q *Query) { q.Conversations = []string{"emergent"} }, RejectConversation},
		{"capability above advertised", func(ad *Advertisement, q *Query) {
			q.Capabilities = []string{CapQueryProcessing}
		}, RejectCapability},
		{"capability below advertised matches", func(ad *Advertisement, q *Query) {
			q.Capabilities = []string{CapSelect}
		}, Matched},
		{"wrong ontology", func(ad *Advertisement, q *Query) { q.Ontology = "aerospace" }, RejectOntology},
		{"unserved class", func(ad *Advertisement, q *Query) { q.Classes = []string{"hospital_stay"} }, RejectClass},
		{"served class", func(ad *Advertisement, q *Query) { q.Classes = []string{"patient"} }, Matched},
		{"invisible slot", func(ad *Advertisement, q *Query) { q.Slots = []string{"no_such_slot"} }, RejectSlot},
		{"visible slot", func(ad *Advertisement, q *Query) { q.Slots = []string{"patient_age"} }, Matched},
		{"disjoint constraints", func(ad *Advertisement, q *Query) {
			q.Constraints = constraint.MustParse("patient.patient_age between 0 and 20")
		}, RejectConstraints},
		{"response time too high", func(ad *Advertisement, q *Query) { q.MaxResponseSec = 2 }, RejectResponseTime},
		{"response time acceptable", func(ad *Advertisement, q *Query) { q.MaxResponseSec = 10 }, Matched},
		{"mobility mismatch", func(ad *Advertisement, q *Query) {
			mobile := true
			q.RequireMobile = &mobile
		}, RejectMobility},
		{"mobility match", func(ad *Advertisement, q *Query) {
			mobile := false
			q.RequireMobile = &mobile
		}, Matched},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ad := resourceAgent5()
			q := base.Clone()
			tt.mutate(ad, q)
			if got := Match(w, ad, q); got != tt.want {
				t.Errorf("Match = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestMatchSubclassReasoning(t *testing.T) {
	w := NewWorld(Healthcare())
	ad := resourceAgent5()
	ad.Content[0].Classes = []string{"podiatrist"}
	ad.Content[0].Constraints = nil
	// An agent serving podiatrists answers queries about physicians
	// (every podiatrist is a physician).
	q := &Query{Type: TypeResource, Ontology: "healthcare", Classes: []string{"physician"}}
	if got := Match(w, ad, q); got != Matched {
		t.Errorf("subclass fragment should serve superclass query, got %q", got)
	}
	// But an agent serving physicians in general does not promise
	// podiatrist-specific data.
	ad.Content[0].Classes = []string{"physician"}
	q.Classes = []string{"podiatrist"}
	if got := Match(w, ad, q); got != RejectClass {
		t.Errorf("superclass fragment should not serve subclass query, got %q", got)
	}
}

func TestMatchVerticalFragmentSlots(t *testing.T) {
	w := NewWorld(Generic())
	ad := &Advertisement{
		Name: "vf", Type: TypeResource,
		ContentLanguages: []string{LangSQL2},
		Content: []Fragment{{
			Ontology: "generic",
			Classes:  []string{"C2"},
			Slots:    map[string][]string{"C2": {"id", "a"}},
		}},
	}
	q := &Query{Type: TypeResource, Ontology: "generic", Classes: []string{"C2"}, Slots: []string{"a"}}
	if got := Match(w, ad, q); got != Matched {
		t.Errorf("fragment exposing slot a should match, got %q", got)
	}
	q.Slots = []string{"d"}
	if got := Match(w, ad, q); got != RejectSlot {
		t.Errorf("fragment hiding slot d should reject, got %q", got)
	}
}

func TestSpecificityPrefersSpecialist(t *testing.T) {
	// The paper's MRQ2 example: a new multiresource query agent
	// specializing in class C2 gets a better semantic match than the
	// general-purpose MRQ agent.
	w := NewWorld(Generic())
	general := &Advertisement{
		Name: "MRQ agent", Type: TypeQuery,
		ContentLanguages: []string{LangSQL2},
		Capabilities:     []string{CapMultiresourceQuery},
	}
	specialist := &Advertisement{
		Name: "MRQ2 agent", Type: TypeQuery,
		ContentLanguages: []string{LangSQL2},
		Capabilities:     []string{CapMultiresourceQuery},
		Content: []Fragment{{
			Ontology: "generic",
			Classes:  []string{"C2"},
		}},
	}
	q := &Query{
		Type:            TypeQuery,
		ContentLanguage: LangSQL2,
		Capabilities:    []string{CapMultiresourceQuery},
		Ontology:        "generic",
	}
	// Both match a capability-only query...
	if Match(w, specialist, q) != Matched {
		t.Fatal("specialist should match")
	}
	// ...but with the class named, the specialist scores higher.
	q2 := q.Clone()
	q2.Ontology = "generic"
	q2.Classes = []string{"C2"}
	if Match(w, specialist, q2) != Matched {
		t.Fatal("specialist should match class query")
	}
	sGen := Specificity(w, general, q)
	sSpec := Specificity(w, specialist, q2)
	if sSpec <= sGen {
		t.Errorf("specialist specificity %d should exceed generalist %d", sSpec, sGen)
	}
}

func TestAdvertisementValidate(t *testing.T) {
	tests := []struct {
		name    string
		ad      Advertisement
		wantErr bool
	}{
		{"valid", *resourceAgent5(), false},
		{"missing name", Advertisement{Type: TypeResource}, true},
		{"missing type", Advertisement{Name: "x"}, true},
		{"fragment missing ontology", Advertisement{
			Name: "x", Type: TypeResource,
			Content: []Fragment{{Classes: []string{"a"}}},
		}, true},
		{"fragment missing classes", Advertisement{
			Name: "x", Type: TypeResource,
			Content: []Fragment{{Ontology: "o"}},
		}, true},
		{"broker without broker info", Advertisement{Name: "b", Type: TypeBroker}, true},
		{"broker with broker info", Advertisement{
			Name: "b", Type: TypeBroker, Broker: &BrokerInfo{},
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.ad.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestAdvertisementCloneIndependent(t *testing.T) {
	ad := resourceAgent5()
	cp := ad.Clone()
	cp.Capabilities[0] = "mutated"
	cp.Content[0].Classes[0] = "mutated"
	cp.Content[0].Constraints.Add(constraint.Atom{Field: "x", Interval: constraint.Exactly(1)})
	if ad.Capabilities[0] == "mutated" {
		t.Error("clone shares capabilities slice")
	}
	if ad.Content[0].Classes[0] == "mutated" {
		t.Error("clone shares classes slice")
	}
	if ad.Content[0].Constraints.Len() != 1 {
		t.Error("clone shares constraint set")
	}
}

func TestQueryValidate(t *testing.T) {
	q := &Query{Classes: []string{"C2"}}
	if err := q.Validate(); err == nil {
		t.Error("classes without ontology should be invalid")
	}
	q = &Query{Limit: -1}
	if err := q.Validate(); err == nil {
		t.Error("negative limit should be invalid")
	}
	q = &Query{Constraints: constraint.NewSet(
		constraint.Atom{Field: "x", Interval: constraint.NewRange(2, 1)})}
	if err := q.Validate(); err == nil {
		t.Error("unsatisfiable constraints should be invalid")
	}
}

func TestFollowOptionString(t *testing.T) {
	if FollowLocal.String() != "local" || FollowAll.String() != "all" || FollowUntilMatch.String() != "until-match" {
		t.Error("follow option names wrong")
	}
}

func TestGenericOntology(t *testing.T) {
	o := Generic()
	if !o.IsSubclassOf("C2a", "C2") || !o.IsSubclassOf("C2b", "C2") {
		t.Error("C2a/C2b should be subclasses of C2")
	}
	slots := o.SlotsOf("C2a")
	found := false
	for _, s := range slots {
		if s == "e" {
			found = true
		}
	}
	if !found {
		t.Errorf("C2a should expose own slot e, got %v", slots)
	}
}
