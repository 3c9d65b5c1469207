package community

import (
	"context"
	"strings"
	"testing"

	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resource"
	"infosleuth/internal/useragent"
)

// locatedCommunity builds a two-broker Production community with the C4
// fragment "left" at broker 1, an MRQ and a user agent, and warms the
// located sets with two queries.
func locatedCommunity(t *testing.T) (*Community, *useragent.Agent) {
	t.Helper()
	c, err := New(Config{Profile: Production, Brokers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	addC4(t, c, "left", 0)
	if _, err := c.AddMRQ(context.Background(), "MRQ agent", "generic"); err != nil {
		t.Fatal(err)
	}
	user, err := c.AddUser(context.Background(), "user", "generic")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := submitC4(t, user); !strings.Contains(got, "left") {
			t.Fatalf("warm-up answer lacks the left fragment:\n%s", got)
		}
	}
	return c, user
}

// addC4 advertises a C4 fragment whose ids carry prefix at one broker.
func addC4(t *testing.T, c *Community, prefix string, brokerIdx int) *resource.Agent {
	t.Helper()
	db := relational.NewDatabase()
	if _, err := generateGenericWithPrefix(db, "C4", 5, prefix); err != nil {
		t.Fatal(err)
	}
	ra, err := c.AddResource(context.Background(), ResourceSpec{
		Name: "RA-C4-" + prefix, DB: db, Brokers: []string{c.Brokers[brokerIdx].Addr()},
		Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{"C4"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ra
}

func submitC4(t *testing.T, user *useragent.Agent) string {
	t.Helper()
	res, err := user.Submit(context.Background(), "SELECT * FROM C4 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	return res.String()
}

func brokerSearches(c *Community) int64 {
	var n int64
	for _, b := range c.Brokers {
		n += b.Stats.QueriesServed.Load()
	}
	return n
}

// TestAdvertiseAcknowledgedThenWarmMRQFetchesNewResource: once a
// resource's advertise is acknowledged, the very next query through a
// warm MRQ fetches from it, although the one before asked no broker.
func TestAdvertiseAcknowledgedThenWarmMRQFetchesNewResource(t *testing.T) {
	c, user := locatedCommunity(t)
	n := brokerSearches(c)
	submitC4(t, user)
	if d := brokerSearches(c) - n; d != 0 {
		t.Fatalf("a warm query asked the brokers %d times, want 0", d)
	}
	addC4(t, c, "right", 1)
	if got := submitC4(t, user); !strings.Contains(got, "right") || !strings.Contains(got, "left") {
		t.Errorf("the first query after the advertise was acknowledged did not fetch both fragments:\n%s", got)
	}
}

// TestUnadvertisedResourceIsNeverFetched: after an unadvertise returns,
// no query fetches from the resource again, though it still runs.
func TestUnadvertisedResourceIsNeverFetched(t *testing.T) {
	c, user := locatedCommunity(t)
	right := addC4(t, c, "right", 1)
	if got := submitC4(t, user); !strings.Contains(got, "right") {
		t.Fatalf("the right fragment was never fetched:\n%s", got)
	}
	right.Unadvertise(context.Background())
	for i := 0; i < 20; i++ {
		if got := submitC4(t, user); strings.Contains(got, "right") {
			t.Fatalf("query %d after the unadvertise returned fetched the right fragment:\n%s", i, got)
		}
	}
}
