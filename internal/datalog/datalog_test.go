package datalog

import (
	"fmt"
	"testing"
	"testing/quick"
)

func mustEval(t *testing.T, p *Program) *Database {
	t.Helper()
	db, err := p.Eval()
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	return db
}

func TestFactsOnly(t *testing.T) {
	p := NewProgram()
	p.AddFact(NewFact("parent", "alice", "bob"))
	p.AddFact(NewFact("parent", "bob", "carol"))
	db := mustEval(t, p)
	if !db.Contains(NewFact("parent", "alice", "bob")) {
		t.Error("base fact missing")
	}
	if db.Contains(NewFact("parent", "alice", "carol")) {
		t.Error("unexpected fact derived with no rules")
	}
	if db.Size() != 2 {
		t.Errorf("Size = %d, want 2", db.Size())
	}
}

func TestTransitiveClosure(t *testing.T) {
	p := NewProgram()
	// ancestor(X,Y) :- parent(X,Y).
	// ancestor(X,Z) :- ancestor(X,Y), parent(Y,Z).
	p.MustAddRule(NewRule(NewAtom("ancestor", V("X"), V("Y")), Pos("parent", V("X"), V("Y"))))
	p.MustAddRule(NewRule(NewAtom("ancestor", V("X"), V("Z")),
		Pos("ancestor", V("X"), V("Y")), Pos("parent", V("Y"), V("Z"))))
	// A chain of 50 parents.
	for i := 0; i < 50; i++ {
		p.AddFact(NewFact("parent", fmt.Sprintf("p%d", i), fmt.Sprintf("p%d", i+1)))
	}
	db := mustEval(t, p)
	if !db.Contains(NewFact("ancestor", "p0", "p50")) {
		t.Error("transitive closure incomplete")
	}
	if db.Contains(NewFact("ancestor", "p50", "p0")) {
		t.Error("closure derived a reversed edge")
	}
	// 51 nodes, closure has n*(n+1)/2 pairs for a chain of 50 edges.
	got := len(db.Facts("ancestor"))
	want := 50 * 51 / 2
	if got != want {
		t.Errorf("ancestor count = %d, want %d", got, want)
	}
}

func TestQueryBindings(t *testing.T) {
	p := NewProgram()
	p.AddFact(NewFact("edge", "a", "b"))
	p.AddFact(NewFact("edge", "a", "c"))
	p.AddFact(NewFact("edge", "b", "c"))
	db := mustEval(t, p)
	res := db.Query(NewAtom("edge", C("a"), V("X")))
	if len(res) != 2 {
		t.Fatalf("Query returned %d answers, want 2", len(res))
	}
	if res[0]["X"] != "b" || res[1]["X"] != "c" {
		t.Errorf("answers = %v, want sorted b, c", res)
	}
	// Repeated variable must agree.
	p2 := NewProgram()
	p2.AddFact(NewFact("pair", "x", "x"))
	p2.AddFact(NewFact("pair", "x", "y"))
	db2 := mustEval(t, p2)
	res2 := db2.Query(NewAtom("pair", V("A"), V("A")))
	if len(res2) != 1 || res2[0]["A"] != "x" {
		t.Errorf("repeated-variable query = %v, want single x", res2)
	}
}

func TestStratifiedNegation(t *testing.T) {
	p := NewProgram()
	// unreachable(X) :- node(X), not reach(X).
	// reach(X) :- start(X).
	// reach(Y) :- reach(X), edge(X,Y).
	p.MustAddRule(NewRule(NewAtom("reach", V("X")), Pos("start", V("X"))))
	p.MustAddRule(NewRule(NewAtom("reach", V("Y")), Pos("reach", V("X")), Pos("edge", V("X"), V("Y"))))
	p.MustAddRule(NewRule(NewAtom("unreachable", V("X")), Pos("node", V("X")), Neg("reach", V("X"))))
	for _, n := range []string{"a", "b", "c", "d"} {
		p.AddFact(NewFact("node", n))
	}
	p.AddFact(NewFact("start", "a"))
	p.AddFact(NewFact("edge", "a", "b"))
	p.AddFact(NewFact("edge", "c", "d"))
	db := mustEval(t, p)
	if !db.Contains(NewFact("reach", "b")) {
		t.Error("b should be reachable")
	}
	if db.Contains(NewFact("unreachable", "b")) {
		t.Error("b should not be unreachable")
	}
	for _, n := range []string{"c", "d"} {
		if !db.Contains(NewFact("unreachable", n)) {
			t.Errorf("%s should be unreachable", n)
		}
	}
}

func TestNonStratifiableRejected(t *testing.T) {
	p := NewProgram()
	// p(X) :- q(X), not p(X).  — negation through recursion
	p.MustAddRule(NewRule(NewAtom("p", V("X")), Pos("q", V("X")), Neg("p", V("X"))))
	p.AddFact(NewFact("q", "a"))
	if _, err := p.Eval(); err == nil {
		t.Error("non-stratifiable program should be rejected")
	}
}

func TestUnsafeRulesRejected(t *testing.T) {
	// Head variable not bound positively.
	err := NewProgram().AddRule(NewRule(NewAtom("h", V("X")), Neg("q", V("X"))))
	if err == nil {
		t.Error("head variable bound only by negation should be unsafe")
	}
	err = NewProgram().AddRule(NewRule(NewAtom("h", V("Y")), Pos("q", V("X"))))
	if err == nil {
		t.Error("free head variable should be unsafe")
	}
	// Builtin with unbound variable.
	err = NewProgram().AddRule(NewRule(NewAtom("h", V("X")), Pos("q", V("X")), Pos(BuiltinLT, V("Z"), C("1"))))
	if err == nil {
		t.Error("builtin over unbound variable should be unsafe")
	}
	// Builtin in head.
	err = NewProgram().AddRule(NewRule(NewAtom(BuiltinLT, C("1"), C("2"))))
	if err == nil {
		t.Error("builtin head should be rejected")
	}
	// Non-ground bodiless rule.
	err = NewProgram().AddRule(NewRule(NewAtom("h", V("X"))))
	if err == nil {
		t.Error("non-ground fact rule should be rejected")
	}
}

func TestBuiltins(t *testing.T) {
	p := NewProgram()
	// adult(X) :- person(X, A), ge(A, 18).
	p.MustAddRule(NewRule(NewAtom("adult", V("X")),
		Pos("person", V("X"), V("A")), Pos(BuiltinGE, V("A"), C("18"))))
	p.AddFact(NewFact("person", "kid", "9"))
	p.AddFact(NewFact("person", "exactly", "18"))
	p.AddFact(NewFact("person", "grown", "42"))
	db := mustEval(t, p)
	if db.Contains(NewFact("adult", "kid")) {
		t.Error("9 is not >= 18")
	}
	if !db.Contains(NewFact("adult", "exactly")) {
		t.Error("18 is >= 18")
	}
	if !db.Contains(NewFact("adult", "grown")) {
		t.Error("42 is >= 18")
	}
}

func TestBuiltinRangeOverlap(t *testing.T) {
	// The broker's interval-overlap rule pattern:
	// overlap(A, B) :- range(A, L1, H1), range(B, L2, H2), le(L1, H2), le(L2, H1).
	p := NewProgram()
	p.MustAddRule(NewRule(NewAtom("overlap", V("A"), V("B")),
		Pos("range", V("A"), V("L1"), V("H1")),
		Pos("range", V("B"), V("L2"), V("H2")),
		Pos(BuiltinLE, V("L1"), V("H2")),
		Pos(BuiltinLE, V("L2"), V("H1"))))
	p.AddFact(NewFact("range", "ad", "43", "75"))
	p.AddFact(NewFact("range", "query", "25", "65"))
	p.AddFact(NewFact("range", "young", "0", "20"))
	db := mustEval(t, p)
	if !db.Contains(NewFact("overlap", "ad", "query")) {
		t.Error("[43,75] should overlap [25,65]")
	}
	if db.Contains(NewFact("overlap", "ad", "young")) {
		t.Error("[43,75] should not overlap [0,20]")
	}
}

func TestBuiltinStringEquality(t *testing.T) {
	p := NewProgram()
	p.MustAddRule(NewRule(NewAtom("same", V("X"), V("Y")),
		Pos("item", V("X")), Pos("item", V("Y")), Pos(BuiltinEQ, V("X"), V("Y"))))
	p.MustAddRule(NewRule(NewAtom("diff", V("X"), V("Y")),
		Pos("item", V("X")), Pos("item", V("Y")), Pos(BuiltinNEQ, V("X"), V("Y"))))
	p.AddFact(NewFact("item", "a"))
	p.AddFact(NewFact("item", "b"))
	db := mustEval(t, p)
	if !db.Contains(NewFact("same", "a", "a")) || db.Contains(NewFact("same", "a", "b")) {
		t.Error("eq builtin wrong on strings")
	}
	if !db.Contains(NewFact("diff", "a", "b")) || db.Contains(NewFact("diff", "a", "a")) {
		t.Error("neq builtin wrong on strings")
	}
}

func TestBuiltinNumericEquality(t *testing.T) {
	p := NewProgram()
	p.MustAddRule(NewRule(NewAtom("match", V("X")),
		Pos("v", V("X")), Pos(BuiltinEQ, V("X"), C("5"))))
	p.AddFact(NewFact("v", "5.0"))
	p.AddFact(NewFact("v", "5"))
	p.AddFact(NewFact("v", "6"))
	db := mustEval(t, p)
	// Numeric equality: "5.0" == "5" numerically.
	if !db.Contains(NewFact("match", "5.0")) {
		t.Error("5.0 should numerically equal 5")
	}
	if db.Contains(NewFact("match", "6")) {
		t.Error("6 should not equal 5")
	}
}

func TestBuiltinNonNumericComparisonErrors(t *testing.T) {
	p := NewProgram()
	p.MustAddRule(NewRule(NewAtom("h", V("X")),
		Pos("v", V("X")), Pos(BuiltinLT, V("X"), C("10"))))
	p.AddFact(NewFact("v", "not-a-number"))
	if _, err := p.Eval(); err == nil {
		t.Error("lt over non-numeric constant should error")
	}
}

func TestNegatedBuiltin(t *testing.T) {
	p := NewProgram()
	p.MustAddRule(NewRule(NewAtom("notfive", V("X")),
		Pos("v", V("X")), Literal{Atom: NewAtom(BuiltinEQ, V("X"), C("5")), Negated: true}))
	p.AddFact(NewFact("v", "5"))
	p.AddFact(NewFact("v", "7"))
	db := mustEval(t, p)
	if db.Contains(NewFact("notfive", "5")) || !db.Contains(NewFact("notfive", "7")) {
		t.Error("negated builtin evaluated wrongly")
	}
}

func TestMultipleStrata(t *testing.T) {
	p := NewProgram()
	// s0: base edges; s1: reach; s2: unreach; s3: has_unreach via negation of unreach-free
	p.MustAddRule(NewRule(NewAtom("reach", V("X")), Pos("start", V("X"))))
	p.MustAddRule(NewRule(NewAtom("reach", V("Y")), Pos("reach", V("X")), Pos("edge", V("X"), V("Y"))))
	p.MustAddRule(NewRule(NewAtom("dead", V("X")), Pos("node", V("X")), Neg("reach", V("X"))))
	p.MustAddRule(NewRule(NewAtom("alive", V("X")), Pos("node", V("X")), Neg("dead", V("X"))))
	p.AddFact(NewFact("node", "a"))
	p.AddFact(NewFact("node", "b"))
	p.AddFact(NewFact("start", "a"))
	db := mustEval(t, p)
	if !db.Contains(NewFact("alive", "a")) || db.Contains(NewFact("alive", "b")) {
		t.Error("double negation across strata evaluated wrongly")
	}
}

func TestSemiNaiveMatchesNaive(t *testing.T) {
	// Property: evaluation result is independent of fact insertion order.
	f := func(perm []bool) bool {
		edges := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "d"}, {"d", "e"}}
		build := func(reverse bool) *Database {
			p := NewProgram()
			p.MustAddRule(NewRule(NewAtom("path", V("X"), V("Y")), Pos("edge", V("X"), V("Y"))))
			p.MustAddRule(NewRule(NewAtom("path", V("X"), V("Z")),
				Pos("path", V("X"), V("Y")), Pos("edge", V("Y"), V("Z"))))
			if reverse {
				for i := len(edges) - 1; i >= 0; i-- {
					p.AddFact(NewFact("edge", edges[i][0], edges[i][1]))
				}
			} else {
				for _, e := range edges {
					p.AddFact(NewFact("edge", e[0], e[1]))
				}
			}
			db, err := p.Eval()
			if err != nil {
				return nil
			}
			return db
		}
		d1, d2 := build(false), build(true)
		if d1 == nil || d2 == nil {
			return false
		}
		if d1.Size() != d2.Size() {
			return false
		}
		for _, f := range d1.Facts("path") {
			if !d2.Contains(f) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRuleAndAtomStrings(t *testing.T) {
	r := NewRule(NewAtom("ancestor", V("X"), V("Z")),
		Pos("ancestor", V("X"), V("Y")), Neg("blocked", V("Y")), Pos("parent", V("Y"), V("Z")))
	want := "ancestor(?X, ?Z) :- ancestor(?X, ?Y), not blocked(?Y), parent(?Y, ?Z)."
	if got := r.String(); got != want {
		t.Errorf("Rule.String() = %q, want %q", got, want)
	}
	f := NewFact("adv", "agent one", "resource")
	if got := f.String(); got != `adv("agent one", resource)` {
		t.Errorf("Fact.String() = %q", got)
	}
	// A constant the lexer would read as a variable, as several tokens or
	// as a comment is quoted; one that lexes as itself is not.
	f = NewFact("p", "Agent", "_x", "a.b", "7.", "%c", "-", "line\nbreak", "-7.25", "x_1")
	if got, want := f.String(), "p(\"Agent\", \"_x\", \"a.b\", \"7.\", \"%c\", \"-\", \"line\nbreak\", -7.25, x_1)"; got != want {
		t.Errorf("Fact.String() = %q, want %q", got, want)
	}
}

func TestDuplicateFactsDeduplicated(t *testing.T) {
	p := NewProgram()
	p.AddFact(NewFact("f", "a"))
	p.AddFact(NewFact("f", "a"))
	db := mustEval(t, p)
	if db.Size() != 1 {
		t.Errorf("Size = %d, want 1 (duplicates collapse)", db.Size())
	}
}

func TestGroundBodilessRule(t *testing.T) {
	p := NewProgram()
	p.MustAddRule(NewRule(NewAtom("axiom", C("true"))))
	db := mustEval(t, p)
	if !db.Contains(NewFact("axiom", "true")) {
		t.Error("ground bodiless rule should assert its head")
	}
}

func BenchmarkTransitiveClosure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := NewProgram()
		p.MustAddRule(NewRule(NewAtom("path", V("X"), V("Y")), Pos("edge", V("X"), V("Y"))))
		p.MustAddRule(NewRule(NewAtom("path", V("X"), V("Z")),
			Pos("path", V("X"), V("Y")), Pos("edge", V("Y"), V("Z"))))
		for j := 0; j < 60; j++ {
			p.AddFact(NewFact("edge", fmt.Sprintf("n%d", j), fmt.Sprintf("n%d", j+1)))
		}
		if _, err := p.Eval(); err != nil {
			b.Fatal(err)
		}
	}
}
