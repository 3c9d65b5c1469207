package mrq_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"infosleuth/internal/community"
	"infosleuth/internal/constraint"
	"infosleuth/internal/mrq"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resource"
	"infosleuth/internal/sqlparse"
)

// extraSource is a fragment the mutation leg advertised after set-up:
// fresh keys, so the answer changes exactly by its rows while it is live.
type extraSource struct {
	ra    *resource.Agent
	class string
	rows  []relational.Row
	desc  string
}

// TestGeneratedMutationsMatchOneTable is the generated oracle's
// interleaved-mutation leg: the generated scenarios, each in a two-broker
// Production community whose MRQ keeps located sets, with fragments
// advertised and unadvertised between the queries. A new fragment holds
// fresh keys, at broker 1 or 2, sometimes for a range of a and sometimes
// as subclass C2a of C2; an unadvertised one also stops, so a stale
// located set that still names it makes the next answer partial. After
// every acknowledged mutation the next answer must equal sqlparse.Execute
// over one table holding the live rows.
func TestGeneratedMutationsMatchOneTable(t *testing.T) {
	scenarios := 60
	if testing.Short() {
		scenarios = 15
	}
	for seed := int64(1); seed <= int64(scenarios); seed++ {
		runMutationScenario(t, seed)
		if t.Failed() {
			return
		}
	}
}

func runMutationScenario(t *testing.T, seed int64) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(seed))
	c, err := community.New(community.Config{Profile: community.Production, Brokers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tables, srcs := mrq.GenScenario(r)
	vertical := map[string]bool{}
	for i, src := range srcs {
		vertical[src.Class] = vertical[src.Class] || src.Vertical
		if _, err := c.AddResource(ctx, community.ResourceSpec{
			Name: fmt.Sprintf("m%d-%s-%d", seed, src.Class, i), DB: src.DB, Fragment: src.Fragment,
			Brokers: []string{c.Brokers[i%2].Addr()},
		}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.AddMRQ(ctx, fmt.Sprintf("MRQ-m%d", seed), "generic")
	if err != nil {
		t.Fatal(err)
	}
	queries := mrq.GenQueries(r, tables)

	var extras []*extraSource
	var log []string
	check := func(sql string) {
		oracle := relational.NewDatabase()
		for _, class := range []string{"C1", "C2"} {
			tbl := oracle.MustCreate(relational.GenericSchema(class))
			for _, row := range tables[class] {
				tbl.MustInsert(row)
			}
			for _, x := range extras {
				if x.class == class {
					for _, row := range x.rows {
						tbl.MustInsert(row)
					}
				}
			}
		}
		stmt := sqlparse.MustParse(sql)
		want, err := sqlparse.Execute(oracle, stmt)
		if err != nil {
			t.Fatalf("seed %d: oracle %q: %v", seed, sql, err)
		}
		got, status, err := m.RunWithStatus(ctx, sql)
		if err == nil && status.Partial {
			err = fmt.Errorf("partial answer: %+v", status.Degraded)
		}
		if err == nil {
			err = mrq.SameAnswer(got, want, stmt)
		}
		if err != nil {
			t.Errorf("seed %d, after %s\n%s\n%v\ngot:\n%v\nwant:\n%s", seed, strings.Join(log, "; "), sql, err, got, want)
		}
	}

	for step := 0; step < 10 && !t.Failed(); step++ {
		check(queries[r.Intn(len(queries))])
		if len(extras) > 0 && r.Intn(3) == 0 {
			i := r.Intn(len(extras))
			x := extras[i]
			x.ra.Unadvertise(ctx)
			x.ra.Stop()
			extras = append(extras[:i], extras[i+1:]...)
			log = append(log, "unadvertised "+x.desc)
			continue
		}
		class := []string{"C1", "C2"}[r.Intn(2)]
		if vertical[class] {
			continue
		}
		x := &extraSource{class: class}
		lo, hi := 0, mrq.GenDomain
		frag := ontology.Fragment{Ontology: "generic", Classes: []string{class}}
		table := class
		switch {
		case class == "C2" && r.Intn(3) == 0:
			table = "C2a"
			frag.Classes = []string{"C2a"}
		case r.Intn(2) == 0:
			lo = r.Intn(mrq.GenDomain - 1)
			hi = lo + 1 + r.Intn(mrq.GenDomain-lo-1)
			frag.Constraints = constraint.MustParse(fmt.Sprintf("%s.a between %d and %d", class, lo, hi-1))
		}
		db := relational.NewDatabase()
		tbl := db.MustCreate(relational.GenericSchema(table))
		for i, row := range mrq.GenRows(r)[:1+r.Intn(4)] {
			row = append(relational.Row(nil), row...)
			row[0] = relational.Str(fmt.Sprintf("x%d-%d-%d", seed, step, i))
			row[1] = relational.Num(float64(lo + r.Intn(hi-lo)))
			tbl.MustInsert(row)
			x.rows = append(x.rows, row)
		}
		home := r.Intn(2)
		x.desc = fmt.Sprintf("%s fragment %s over a in [%d, %d) at broker %d", table, x.rows[0][0], lo, hi, home+1)
		x.ra, err = c.AddResource(ctx, community.ResourceSpec{
			Name: fmt.Sprintf("x%d-%d", seed, step), DB: db, Fragment: frag,
			Brokers: []string{c.Brokers[home].Addr()},
		})
		if err != nil {
			t.Fatal(err)
		}
		extras = append(extras, x)
		log = append(log, "advertised "+x.desc)
	}
}
