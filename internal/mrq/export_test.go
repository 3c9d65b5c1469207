package mrq

import (
	"math/rand"

	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
)

// The generated scenarios, exported to the mutation leg
// (mutation_gen_test.go), which runs in package mrq_test because it
// builds Production communities with package community, and community
// imports this package.

// GenDomain bounds column a, as genDomain does.
const GenDomain = genDomain

// GenSource is one generated source: its class, its database and the
// fragment it advertises. Vertical marks a column split.
type GenSource struct {
	Class    string
	DB       *relational.Database
	Fragment ontology.Fragment
	Vertical bool
}

// GenScenario draws what runGeneratedScenario draws for a keyed
// scenario: each class's table and its split over sources.
func GenScenario(r *rand.Rand) (map[string][]relational.Row, []GenSource) {
	tables := map[string][]relational.Row{}
	var out []GenSource
	for _, class := range []string{"C1", "C2"} {
		rows := genRows(r)
		tables[class] = rows
		srcs, _ := genLayout(r, class, rows, false)
		for _, src := range srcs {
			db, frag := genSourceDB(class, src)
			out = append(out, GenSource{Class: class, DB: db, Fragment: frag, Vertical: src.cols != nil})
		}
	}
	return tables, out
}

// GenRows draws one class's rows, as genRows does.
func GenRows(r *rand.Rand) []relational.Row { return genRows(r) }

// GenQueries draws one scenario's statements, as genQueries does.
func GenQueries(r *rand.Rand, tables map[string][]relational.Row) []string {
	return genQueries(r, tables)
}

// SameAnswer compares an answer with the oracle's, as sameAnswer does.
var SameAnswer = sameAnswer
