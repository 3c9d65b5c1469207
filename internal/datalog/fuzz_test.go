package datalog

import (
	"strings"
	"testing"
)

// render writes a program back out, facts first and then rules, with the
// String methods the rest of the system logs and tests with.
func render(p *Program) string {
	var b strings.Builder
	for _, f := range p.facts {
		b.WriteString(f.String())
		b.WriteString(".\n")
	}
	for _, r := range p.Rules() {
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	return b.String()
}

// FuzzDatalogParse: no input panics the parser, and a program it accepts
// renders to text that parses back to the same rendering.
func FuzzDatalogParse(f *testing.F) {
	for _, s := range []string{
		"parent(alice, bob).\nancestor(X, Y) :- parent(X, Y).\nancestor(X, Z) :- ancestor(X, Y), parent(Y, Z).",
		"adult(X) :- person(X, Age), ge(Age, 18).\norphan(X) :- person(X, _A), not parent(_P, X).",
		`adv("agent one", resource). v(x, 7.5). range(x, 75). n(-3, 0.25).`,
		"% a comment\np(?X) :- q(?X, \"a b\"), not r(?X).",
		`p(a) :- q(a).`, `p(X) :- q(X), neq(X, "").`, `p("").`, `p(a`, `p(X).`, `:- q(a).`, `p(a) :- not q(a).`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParseProgram(src)
		if err != nil {
			return
		}
		text := render(p)
		back, err := ParseProgram(text)
		if err != nil {
			t.Fatalf("ParseProgram(%q) renders as\n%s\nwhich does not parse: %v", src, text, err)
		}
		if again := render(back); again != text {
			t.Fatalf("ParseProgram(%q) renders as\n%s\nwhich parses back to\n%s", src, text, again)
		}
	})
}
