package broker

import (
	"context"
	"fmt"
	"testing"

	"infosleuth/internal/constraint"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/transport"
)

func resourceAd(name, class string, extra ...func(*ontology.Advertisement)) *ontology.Advertisement {
	ad := &ontology.Advertisement{
		Name:             name,
		Address:          "inproc://" + name,
		Type:             ontology.TypeResource,
		CommLanguages:    []string{ontology.LangKQML},
		ContentLanguages: []string{ontology.LangSQL2},
		Conversations:    []string{ontology.ConvAskAll},
		Capabilities:     []string{ontology.CapRelationalQueryProcessing},
		Content: []ontology.Fragment{{
			Ontology: "generic",
			Classes:  []string{class},
		}},
	}
	for _, f := range extra {
		f(ad)
	}
	return ad
}

func newTestBroker(t *testing.T, tr transport.Transport, name string, opts ...func(*Config)) *Broker {
	t.Helper()
	cfg := Config{
		Name:      name,
		Transport: tr,
		World:     ontology.NewWorld(ontology.Generic(), ontology.Healthcare()),
	}
	for _, o := range opts {
		o(&cfg)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Stop() })
	return b
}

func askBroker(t *testing.T, tr transport.Transport, addr string, q *ontology.Query) *kqml.BrokerReply {
	t.Helper()
	msg := kqml.New(kqml.AskAll, "tester", &kqml.BrokerQuery{Query: q})
	msg.Ontology = kqml.ServiceOntology
	reply, err := tr.Call(context.Background(), addr, msg)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if reply.Performative != kqml.Tell {
		t.Fatalf("reply = %s: %s", reply.Performative, kqml.ReasonOf(reply))
	}
	var br kqml.BrokerReply
	if err := reply.DecodeContent(&br); err != nil {
		t.Fatal(err)
	}
	return &br
}

func advertiseTo(t *testing.T, tr transport.Transport, addr string, ad *ontology.Advertisement) {
	t.Helper()
	msg := kqml.New(kqml.Advertise, ad.Name, &kqml.AdvertiseContent{Ad: ad})
	msg.Ontology = kqml.ServiceOntology
	reply, err := tr.Call(context.Background(), addr, msg)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Tell {
		t.Fatalf("advertise rejected: %s", kqml.ReasonOf(reply))
	}
}

func matchNames(br *kqml.BrokerReply) []string {
	out := make([]string, len(br.Matches))
	for i, ad := range br.Matches {
		out[i] = ad.Name
	}
	return out
}

func TestRepositoryPutGetRemove(t *testing.T) {
	r := NewRepository()
	ad := resourceAd("DB1", "C2")
	if err := r.Put(ad); err != nil {
		t.Fatal(err)
	}
	if !r.Contains("db1") {
		t.Error("Contains should be case-insensitive")
	}
	got, ok := r.Get("DB1")
	if !ok || got.Name != "DB1" {
		t.Fatalf("Get = %v %v", got, ok)
	}
	// Returned ad is a copy.
	got.Capabilities[0] = "mutated"
	got2, _ := r.Get("DB1")
	if got2.Capabilities[0] == "mutated" {
		t.Error("Get leaked internal storage")
	}
	// Update replaces.
	ad2 := resourceAd("DB1", "C3")
	if err := r.Put(ad2); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d after update", r.Len())
	}
	got3, _ := r.Get("DB1")
	if got3.Content[0].Classes[0] != "C3" {
		t.Error("update did not replace advertisement")
	}
	if !r.Remove("db1") {
		t.Error("Remove missed existing ad")
	}
	if r.Remove("db1") {
		t.Error("Remove hit missing ad")
	}
}

func TestRepositoryRejectsInvalid(t *testing.T) {
	r := NewRepository()
	if err := r.Put(&ontology.Advertisement{Name: "x"}); err == nil {
		t.Error("invalid ad should be rejected")
	}
	bad := resourceAd("DB1", "C2")
	bad.Content[0].Constraints = constraint.NewSet(
		constraint.Atom{Field: "x", Interval: constraint.NewRange(2, 1)})
	if err := r.Put(bad); err == nil {
		t.Error("unsatisfiable constraints should be rejected")
	}
}

func TestRepositoryIndexNarrowing(t *testing.T) {
	r := NewRepository()
	for i := 0; i < 10; i++ {
		r.Put(resourceAd(fmt.Sprintf("DB%d", i), "C2"))
	}
	mrq := resourceAd("MRQ", "C2")
	mrq.Type = ontology.TypeQuery
	r.Put(mrq)

	q := &ontology.Query{Type: ontology.TypeQuery}
	cands := r.candidates(nil, q)
	if len(cands) != 1 || cands[0].Name != "MRQ" {
		t.Errorf("type index returned %d candidates", len(cands))
	}
	q = &ontology.Query{Ontology: "generic", ContentLanguage: ontology.LangSQL2}
	if got := len(r.candidates(nil, q)); got != 11 {
		t.Errorf("ontology+language index returned %d, want 11", got)
	}
	q = &ontology.Query{Ontology: "healthcare"}
	if got := len(r.candidates(nil, q)); got != 0 {
		t.Errorf("unknown ontology returned %d", got)
	}
	// Unindexed repository scans everything but must match identically.
	u := NewUnindexedRepository()
	for _, ad := range r.All() {
		u.Put(ad)
	}
	w := ontology.NewWorld(ontology.Generic())
	dm := &DirectMatcher{World: w}
	q = &ontology.Query{Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"}}
	m1, err := dm.Match(r, q)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := dm.Match(u, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != len(m2) {
		t.Errorf("indexed %d vs unindexed %d matches", len(m1), len(m2))
	}
}

// TestBrokerWalkthroughFigures5to7 reproduces the paper's single-broker
// walkthrough: agents advertise (Fig. 5), the user agent asks for an SQL
// multiresource query agent (Fig. 6), the MRQ agent asks for resource
// agents serving class C2, then C3 (Fig. 7).
func TestBrokerWalkthroughFigures5to7(t *testing.T) {
	tr := transport.NewInProc()
	b := newTestBroker(t, tr, "Broker Agent")

	userAd := &ontology.Advertisement{
		Name: "mhn's user agent", Address: "inproc://user", Type: ontology.TypeUser,
		CommLanguages: []string{ontology.LangKQML},
	}
	mrqAd := &ontology.Advertisement{
		Name: "MRQ agent", Address: "inproc://mrq", Type: ontology.TypeQuery,
		CommLanguages:    []string{ontology.LangKQML},
		ContentLanguages: []string{ontology.LangSQL2},
		Conversations:    []string{ontology.ConvAskAll},
		Capabilities:     []string{ontology.CapMultiresourceQuery},
	}
	db1 := resourceAd("DB1 resource agent", "C1")
	db1.Content[0].Classes = []string{"C1", "C2"}
	db2 := resourceAd("DB2 resource agent", "C2")
	db2.Content[0].Classes = []string{"C2", "C3"}

	for _, ad := range []*ontology.Advertisement{userAd, mrqAd, db1, db2} {
		advertiseTo(t, tr, b.Addr(), ad)
	}
	if b.Repository().Len() != 4 {
		t.Fatalf("repository holds %d ads, want 4", b.Repository().Len())
	}

	// Figure 6: who has multiresource query processing (SQL)?
	br := askBroker(t, tr, b.Addr(), &ontology.Query{
		Type:            ontology.TypeQuery,
		ContentLanguage: ontology.LangSQL2,
		Capabilities:    []string{ontology.CapMultiresourceQuery},
		Limit:           1,
	})
	if got := matchNames(br); len(got) != 1 || got[0] != "MRQ agent" {
		t.Fatalf("Fig 6 query = %v, want [MRQ agent]", got)
	}

	// Figure 7: who has resources for class C2 (SQL)?
	br = askBroker(t, tr, b.Addr(), &ontology.Query{
		Type:            ontology.TypeResource,
		ContentLanguage: ontology.LangSQL2,
		Ontology:        "generic",
		Classes:         []string{"C2"},
	})
	got := matchNames(br)
	if len(got) != 2 || got[0] != "DB1 resource agent" || got[1] != "DB2 resource agent" {
		t.Fatalf("Fig 7 query = %v, want both DB agents", got)
	}

	// "if the original query had been for class C3, then only DB2".
	br = askBroker(t, tr, b.Addr(), &ontology.Query{
		Type:            ontology.TypeResource,
		ContentLanguage: ontology.LangSQL2,
		Ontology:        "generic",
		Classes:         []string{"C3"},
	})
	if got := matchNames(br); len(got) != 1 || got[0] != "DB2 resource agent" {
		t.Fatalf("C3 query = %v, want [DB2 resource agent]", got)
	}
}

// TestBrokerSpecialistRanksFirst reproduces the paper's MRQ2 example: a
// specialist in class C2 is recommended over the general-purpose MRQ agent.
func TestBrokerSpecialistRanksFirst(t *testing.T) {
	tr := transport.NewInProc()
	b := newTestBroker(t, tr, "Broker1")
	mrq := &ontology.Advertisement{
		Name: "MRQ agent", Address: "inproc://mrq", Type: ontology.TypeQuery,
		ContentLanguages: []string{ontology.LangSQL2},
		Capabilities:     []string{ontology.CapMultiresourceQuery},
	}
	mrq2 := &ontology.Advertisement{
		Name: "MRQ2 agent", Address: "inproc://mrq2", Type: ontology.TypeQuery,
		ContentLanguages: []string{ontology.LangSQL2},
		Capabilities:     []string{ontology.CapMultiresourceQuery},
		Content:          []ontology.Fragment{{Ontology: "generic", Classes: []string{"C2"}}},
	}
	advertiseTo(t, tr, b.Addr(), mrq)
	advertiseTo(t, tr, b.Addr(), mrq2)
	br := askBroker(t, tr, b.Addr(), &ontology.Query{
		Type:            ontology.TypeQuery,
		ContentLanguage: ontology.LangSQL2,
		Capabilities:    []string{ontology.CapMultiresourceQuery},
		Ontology:        "generic",
		Classes:         []string{"C2"},
		Limit:           1,
	})
	if got := matchNames(br); len(got) != 1 || got[0] != "MRQ2 agent" {
		t.Fatalf("recommendation = %v, want the specialist MRQ2 agent", got)
	}
}

func TestBrokerUnadvertise(t *testing.T) {
	tr := transport.NewInProc()
	b := newTestBroker(t, tr, "Broker1")
	advertiseTo(t, tr, b.Addr(), resourceAd("DB1", "C2"))
	msg := kqml.New(kqml.Unadvertise, "DB1", nil)
	reply, err := tr.Call(context.Background(), b.Addr(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Tell {
		t.Fatalf("unadvertise reply = %s", reply.Performative)
	}
	if b.Repository().Contains("DB1") {
		t.Error("DB1 still in repository")
	}
	// Unadvertising again is a sorry.
	reply, _ = tr.Call(context.Background(), b.Addr(), kqml.New(kqml.Unadvertise, "DB1", nil))
	if reply.Performative != kqml.Sorry {
		t.Errorf("second unadvertise = %s, want sorry", reply.Performative)
	}
}

func TestBrokerPingReportsKnowledge(t *testing.T) {
	tr := transport.NewInProc()
	b := newTestBroker(t, tr, "Broker1")
	advertiseTo(t, tr, b.Addr(), resourceAd("DB1", "C2"))
	ping := func(name string) bool {
		msg := kqml.New(kqml.Ping, name, &kqml.PingContent{AgentName: name})
		reply, err := tr.Call(context.Background(), b.Addr(), msg)
		if err != nil {
			t.Fatal(err)
		}
		var pr kqml.PingReply
		if err := reply.DecodeContent(&pr); err != nil {
			t.Fatal(err)
		}
		return pr.Known
	}
	if !ping("DB1") {
		t.Error("broker should know DB1")
	}
	if ping("DB9") {
		t.Error("broker should not know DB9")
	}
}

func TestBrokerPingAgentsDropsDead(t *testing.T) {
	tr := transport.NewInProc()
	b := newTestBroker(t, tr, "Broker1")
	// A live agent listening, and a dead one that never listens.
	live, err := tr.Listen("inproc://live", func(m *kqml.Message) *kqml.Message {
		return kqml.New(kqml.Tell, "live", &kqml.PingReply{Known: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	liveAd := resourceAd("live", "C2")
	liveAd.Address = "inproc://live"
	deadAd := resourceAd("dead", "C2")
	deadAd.Address = "inproc://dead"
	advertiseTo(t, tr, b.Addr(), liveAd)
	advertiseTo(t, tr, b.Addr(), deadAd)

	dropped := b.PingAgents(context.Background())
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if !b.Repository().Contains("live") || b.Repository().Contains("dead") {
		t.Error("wrong agent dropped")
	}
}

func newConsortium(t *testing.T, tr transport.Transport, n int, opts ...func(*Config)) []*Broker {
	t.Helper()
	brokers := make([]*Broker, n)
	for i := range brokers {
		brokers[i] = newTestBroker(t, tr, fmt.Sprintf("Broker%d", i+1), opts...)
	}
	// Full interconnection (Figure 11).
	for i, b := range brokers {
		var addrs []string
		for j, other := range brokers {
			if i != j {
				addrs = append(addrs, other.Addr())
			}
		}
		if err := b.JoinConsortium(context.Background(), addrs...); err != nil {
			t.Fatal(err)
		}
	}
	return brokers
}

func TestMultibrokerSearchFindsRemoteAgents(t *testing.T) {
	tr := transport.NewInProc()
	brokers := newConsortium(t, tr, 4)
	// Eight resource agents, two per broker, alternating classes.
	for i := 0; i < 8; i++ {
		class := "C2"
		if i%2 == 1 {
			class = "C3"
		}
		advertiseTo(t, tr, brokers[i%4].Addr(), resourceAd(fmt.Sprintf("RA%d", i+1), class))
	}
	// Query broker 1 for all C2 resources: hop count 1 reaches all peers.
	br := askBroker(t, tr, brokers[0].Addr(), &ontology.Query{
		Type:     ontology.TypeResource,
		Ontology: "generic",
		Classes:  []string{"C2"},
	})
	if len(br.Matches) != 4 {
		t.Fatalf("matches = %v, want the 4 C2 resources", matchNames(br))
	}
	// All four brokers contributed.
	seen := make(map[string]bool)
	for _, name := range br.Brokers {
		seen[name] = true
	}
	if len(seen) != 4 {
		t.Errorf("contributing brokers = %v, want 4 distinct", br.Brokers)
	}
}

func TestMultibrokerFollowLocal(t *testing.T) {
	tr := transport.NewInProc()
	brokers := newConsortium(t, tr, 2)
	advertiseTo(t, tr, brokers[0].Addr(), resourceAd("RA-local", "C2"))
	advertiseTo(t, tr, brokers[1].Addr(), resourceAd("RA-remote", "C2"))
	br := askBroker(t, tr, brokers[0].Addr(), &ontology.Query{
		Type:     ontology.TypeResource,
		Ontology: "generic",
		Classes:  []string{"C2"},
		Policy:   ontology.SearchPolicy{HopCount: 1, Follow: ontology.FollowLocal},
	})
	if got := matchNames(br); len(got) != 1 || got[0] != "RA-local" {
		t.Errorf("local-only search = %v", got)
	}
}

func TestMultibrokerUntilMatchStopsEarly(t *testing.T) {
	tr := transport.NewInProc()
	brokers := newConsortium(t, tr, 3)
	advertiseTo(t, tr, brokers[1].Addr(), resourceAd("RA-b2", "C2"))
	advertiseTo(t, tr, brokers[2].Addr(), resourceAd("RA-b3", "C2"))
	sentBefore := brokers[0].Stats.InterBrokerSent.Load()
	br := askBroker(t, tr, brokers[0].Addr(), &ontology.Query{
		Type:     ontology.TypeResource,
		Ontology: "generic",
		Classes:  []string{"C2"},
		Limit:    1,
		Policy:   ontology.SearchPolicy{HopCount: 1, Follow: ontology.FollowUntilMatch},
	})
	if len(br.Matches) != 1 {
		t.Fatalf("matches = %v, want exactly 1", matchNames(br))
	}
	sent := brokers[0].Stats.InterBrokerSent.Load() - sentBefore
	if sent != 1 {
		t.Errorf("inter-broker messages = %d, want 1 (stop after first hit)", sent)
	}
}

func TestMultibrokerLoopPrevention(t *testing.T) {
	tr := transport.NewInProc()
	brokers := newConsortium(t, tr, 3)
	advertiseTo(t, tr, brokers[2].Addr(), resourceAd("RA", "C2"))
	// Hop count 3 in a fully-connected triangle: without the visited
	// list this would bounce forever; with it, each broker is consulted
	// once.
	br := askBroker(t, tr, brokers[0].Addr(), &ontology.Query{
		Type:     ontology.TypeResource,
		Ontology: "generic",
		Classes:  []string{"C2"},
		Policy:   ontology.SearchPolicy{HopCount: 3, Follow: ontology.FollowAll},
	})
	if len(br.Matches) != 1 {
		t.Fatalf("matches = %v", matchNames(br))
	}
	total := brokers[0].Stats.InterBrokerSent.Load() +
		brokers[1].Stats.InterBrokerSent.Load() +
		brokers[2].Stats.InterBrokerSent.Load()
	// Origin contacts 2 peers; the visited list covers everyone, so no
	// further forwards happen (beyond the consortium joins, which are
	// advertises, not queries).
	if total != 2 {
		t.Errorf("inter-broker messages = %d, want 2", total)
	}
}

func TestMultibrokerTwoHopChain(t *testing.T) {
	// A chain B1 - B2 - B3 (not fully connected): hop 1 from B1 reaches
	// only B2; hop 2 reaches B3 as well.
	tr := transport.NewInProc()
	b1 := newTestBroker(t, tr, "Broker1")
	b2 := newTestBroker(t, tr, "Broker2")
	b3 := newTestBroker(t, tr, "Broker3")
	if err := b1.JoinConsortium(context.Background(), b2.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b2.JoinConsortium(context.Background(), b3.Addr()); err != nil {
		t.Fatal(err)
	}
	advertiseTo(t, tr, b3.Addr(), resourceAd("RA-far", "C2"))

	q := &ontology.Query{
		Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
		Policy: ontology.SearchPolicy{HopCount: 1, Follow: ontology.FollowAll},
	}
	br := askBroker(t, tr, b1.Addr(), q)
	if len(br.Matches) != 0 {
		t.Errorf("hop 1 should not reach Broker3, got %v", matchNames(br))
	}
	q.Policy.HopCount = 2
	br = askBroker(t, tr, b1.Addr(), q)
	if len(br.Matches) != 1 {
		t.Errorf("hop 2 should reach Broker3, got %v", matchNames(br))
	}
}

func TestMaxHopCountCapsRequest(t *testing.T) {
	tr := transport.NewInProc()
	b1 := newTestBroker(t, tr, "Broker1", func(c *Config) { c.MaxHopCount = 1 })
	b2 := newTestBroker(t, tr, "Broker2")
	b3 := newTestBroker(t, tr, "Broker3")
	if err := b1.JoinConsortium(context.Background(), b2.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b2.JoinConsortium(context.Background(), b3.Addr()); err != nil {
		t.Fatal(err)
	}
	advertiseTo(t, tr, b3.Addr(), resourceAd("RA-far", "C2"))
	br := askBroker(t, tr, b1.Addr(), &ontology.Query{
		Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
		Policy: ontology.SearchPolicy{HopCount: 5, Follow: ontology.FollowAll},
	})
	if len(br.Matches) != 0 {
		t.Errorf("broker max hop count should cap the request, got %v", matchNames(br))
	}
}

func TestSpecializedBrokerForwardsAd(t *testing.T) {
	tr := transport.NewInProc()
	specialist := newTestBroker(t, tr, "HealthBroker", func(c *Config) {
		c.Specializations = []string{"healthcare"}
	})
	general := newTestBroker(t, tr, "GeneralBroker")
	if err := specialist.JoinConsortium(context.Background(), general.Addr()); err != nil {
		t.Fatal(err)
	}

	// A healthcare ad is accepted directly.
	health := resourceAd("HealthRA", "patient")
	health.Content[0].Ontology = "healthcare"
	advertiseTo(t, tr, specialist.Addr(), health)
	if !specialist.Repository().Contains("HealthRA") {
		t.Error("in-scope ad should be stored")
	}

	// A generic ad is out of scope: forwarded to the general-purpose
	// peer, and the reply names it.
	generic := resourceAd("GenericRA", "C2")
	msg := kqml.New(kqml.Advertise, generic.Name, &kqml.AdvertiseContent{Ad: generic})
	reply, err := tr.Call(context.Background(), specialist.Addr(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Sorry {
		t.Fatalf("out-of-scope advertise = %s, want sorry naming the accepting broker", reply.Performative)
	}
	if specialist.Repository().Contains("GenericRA") {
		t.Error("specialist should not store out-of-scope ad")
	}
	if !general.Repository().Contains("GenericRA") {
		t.Error("general broker should have received the forwarded ad")
	}
	if got := specialist.Stats.AdsForwarded.Load(); got != 1 {
		t.Errorf("AdsForwarded = %d", got)
	}
}

func TestPeerPruningSkipsSpecialists(t *testing.T) {
	tr := transport.NewInProc()
	origin := newTestBroker(t, tr, "Origin", func(c *Config) { c.PeerPruning = true })
	healthPeer := newTestBroker(t, tr, "HealthPeer", func(c *Config) {
		c.Specializations = []string{"healthcare"}
	})
	genericPeer := newTestBroker(t, tr, "GenericPeer")
	if err := origin.JoinConsortium(context.Background(), healthPeer.Addr(), genericPeer.Addr()); err != nil {
		t.Fatal(err)
	}
	advertiseTo(t, tr, genericPeer.Addr(), resourceAd("RA", "C2"))

	before := origin.Stats.InterBrokerSent.Load()
	br := askBroker(t, tr, origin.Addr(), &ontology.Query{
		Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
	})
	if len(br.Matches) != 1 {
		t.Fatalf("matches = %v", matchNames(br))
	}
	sent := origin.Stats.InterBrokerSent.Load() - before
	if sent != 1 {
		t.Errorf("inter-broker messages = %d, want 1 (health specialist pruned)", sent)
	}
}

func TestBrokerSurvivesDeadPeerDuringSearch(t *testing.T) {
	tr := transport.NewInProc()
	brokers := newConsortium(t, tr, 3)
	advertiseTo(t, tr, brokers[1].Addr(), resourceAd("RA", "C2"))
	// Broker 3 dies.
	brokers[2].Stop()
	br := askBroker(t, tr, brokers[0].Addr(), &ontology.Query{
		Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
	})
	if len(br.Matches) != 1 {
		t.Errorf("search should survive a dead peer, got %v", matchNames(br))
	}
}

func TestBrokerRejectsMalformedMessages(t *testing.T) {
	tr := transport.NewInProc()
	b := newTestBroker(t, tr, "Broker1")
	for _, msg := range []*kqml.Message{
		{Performative: kqml.Advertise, Sender: "x"},
		{Performative: kqml.AskAll, Sender: "x"},
		{Performative: kqml.Ping, Sender: "x"},
		{Performative: kqml.Subscribe, Sender: "x"},
	} {
		reply, err := tr.Call(context.Background(), b.Addr(), msg)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Performative != kqml.Sorry {
			t.Errorf("%s reply = %s, want sorry", msg.Performative, reply.Performative)
		}
	}
}

func TestOriginOnlyPropagation(t *testing.T) {
	tr := transport.NewInProc()
	brokers := newConsortium(t, tr, 4, func(c *Config) { c.Propagation = OriginOnly })
	for i := 0; i < 4; i++ {
		advertiseTo(t, tr, brokers[i].Addr(), resourceAd(fmt.Sprintf("RA%d", i+1), "C2"))
	}
	br := askBroker(t, tr, brokers[0].Addr(), &ontology.Query{
		Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
		Policy: ontology.SearchPolicy{HopCount: 3, Follow: ontology.FollowAll},
	})
	if len(br.Matches) != 4 {
		t.Fatalf("origin-only in a full consortium should still find all: %v", matchNames(br))
	}
	// Only the origin forwarded.
	if got := brokers[1].Stats.InterBrokerSent.Load() + brokers[2].Stats.InterBrokerSent.Load() + brokers[3].Stats.InterBrokerSent.Load(); got != 0 {
		t.Errorf("non-origin brokers forwarded %d messages", got)
	}
}
