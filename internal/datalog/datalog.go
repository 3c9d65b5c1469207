// Package datalog implements a small deductive-database engine in the
// spirit of LDL, the Logical Data Language the InfoSleuth broker used for
// its rule-based reasoning engine (Section 2.2 of the paper, reference
// [25]).
//
// The engine evaluates function-free Horn rules with stratified negation
// bottom-up using semi-naive iteration, and supports built-in comparison
// predicates over numeric constants. The broker package compiles agent
// advertisements into facts and the matchmaking policy into rules; querying
// the resulting database yields the recommended agents.
//
// Terms are either variables (names beginning with an upper-case letter or
// '?') or string constants. Numeric comparisons parse constants as
// float64.
package datalog

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// Term is a variable or a constant.
type Term struct {
	// Var is true for variables.
	Var bool
	// Name is the variable name or the constant value.
	Name string
}

// V returns a variable term.
func V(name string) Term { return Term{Var: true, Name: name} }

// C returns a constant term.
func C(value string) Term { return Term{Name: value} }

// CNum returns a numeric constant term.
func CNum(v float64) Term { return Term{Name: strconv.FormatFloat(v, 'g', -1, 64)} }

// String renders the term the way ParseProgram reads it back: a variable
// as ?Name, a constant bare when it lexes as one constant word or number,
// and in double quotes otherwise. The lexer knows no escapes, so the
// quoted text is the constant as it stands; a constant holding a double
// quote has no form it reads back, and renders Go-quoted.
func (t Term) String() string {
	switch {
	case t.Var:
		return "?" + t.Name
	case bare(t.Name):
		return t.Name
	case !strings.Contains(t.Name, `"`):
		return `"` + t.Name + `"`
	}
	return strconv.Quote(t.Name)
}

// bare reports whether dlLex reads s as one token, an ident or a number,
// with text s: it applies the lexer's own byte tests.
func bare(s string) bool {
	if s == "" {
		return false
	}
	if c := rune(s[0]); unicode.IsLetter(c) && !unicode.IsUpper(c) {
		for i := 1; i < len(s); i++ {
			if c := rune(s[i]); !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' {
				return false
			}
		}
		return true
	}
	digits := strings.TrimPrefix(s, "-")
	if digits == "" || !unicode.IsDigit(rune(digits[0])) || s[len(s)-1] == '.' {
		return false
	}
	for i := 1; i < len(digits); i++ {
		if c := rune(digits[i]); !unicode.IsDigit(c) && c != '.' {
			return false
		}
	}
	return true
}

// Atom is a predicate applied to terms.
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom builds an atom.
func NewAtom(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Pred, strings.Join(parts, ", "))
}

// ground reports whether all arguments are constants.
func (a Atom) ground() bool {
	for _, t := range a.Args {
		if t.Var {
			return false
		}
	}
	return true
}

// Literal is a possibly negated atom in a rule body.
type Literal struct {
	Atom
	Negated bool
}

// Pos returns a positive body literal.
func Pos(pred string, args ...Term) Literal { return Literal{Atom: NewAtom(pred, args...)} }

// Neg returns a negated body literal.
func Neg(pred string, args ...Term) Literal {
	return Literal{Atom: NewAtom(pred, args...), Negated: true}
}

// String renders the literal.
func (l Literal) String() string {
	if l.Negated {
		return "not " + l.Atom.String()
	}
	return l.Atom.String()
}

// Rule is Head :- Body. An empty body makes the head a fact schema (it must
// then be ground).
type Rule struct {
	Head Atom
	Body []Literal
}

// NewRule builds a rule.
func NewRule(head Atom, body ...Literal) Rule { return Rule{Head: head, Body: body} }

// String renders the rule in LDL-ish syntax.
func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// validate enforces range restriction (safety): every variable in the head
// or in a negated or built-in literal must occur in some positive,
// non-built-in body literal.
func (r Rule) validate() error {
	bound := make(map[string]bool)
	for _, l := range r.Body {
		if l.Negated || isBuiltin(l.Pred) {
			continue
		}
		for _, t := range l.Args {
			if t.Var {
				bound[t.Name] = true
			}
		}
	}
	check := func(a Atom, ctx string) error {
		for _, t := range a.Args {
			if t.Var && !bound[t.Name] {
				return fmt.Errorf("datalog: unsafe rule %s: variable ?%s in %s not bound by a positive literal", r, t.Name, ctx)
			}
		}
		return nil
	}
	if err := check(r.Head, "head"); err != nil {
		return err
	}
	for _, l := range r.Body {
		if l.Negated {
			if err := check(l.Atom, "negated literal "+l.String()); err != nil {
				return err
			}
		}
		if isBuiltin(l.Pred) {
			if err := check(l.Atom, "built-in "+l.String()); err != nil {
				return err
			}
		}
	}
	if isBuiltin(r.Head.Pred) {
		return fmt.Errorf("datalog: rule head %s uses built-in predicate", r.Head)
	}
	return nil
}

// Fact is a ground tuple stored in a relation.
type Fact struct {
	Pred string
	Args []string
}

// NewFact builds a fact.
func NewFact(pred string, args ...string) Fact { return Fact{Pred: pred, Args: args} }

// String renders the fact.
func (f Fact) String() string {
	terms := make([]Term, len(f.Args))
	for i, a := range f.Args {
		terms[i] = C(a)
	}
	return Atom{Pred: f.Pred, Args: terms}.String()
}

func (f Fact) key() string {
	var b strings.Builder
	b.WriteString(f.Pred)
	for _, a := range f.Args {
		b.WriteByte(0)
		b.WriteString(a)
	}
	return b.String()
}

// Bindings maps variable names to constant values in a query answer.
type Bindings map[string]string

// Builtin comparison predicates. Arguments must be bound at evaluation
// time; lt/le/gt/ge require numeric constants, eq/neq compare as numbers
// when both sides parse and as strings otherwise.
const (
	BuiltinLT  = "lt"
	BuiltinLE  = "le"
	BuiltinGT  = "gt"
	BuiltinGE  = "ge"
	BuiltinEQ  = "eq"
	BuiltinNEQ = "neq"
)

func isBuiltin(pred string) bool {
	switch pred {
	case BuiltinLT, BuiltinLE, BuiltinGT, BuiltinGE, BuiltinEQ, BuiltinNEQ:
		return true
	}
	return false
}

func evalBuiltin(pred, a, b string) (bool, error) {
	fa, ea := strconv.ParseFloat(a, 64)
	fb, eb := strconv.ParseFloat(b, 64)
	numeric := ea == nil && eb == nil
	switch pred {
	case BuiltinEQ:
		if numeric {
			return fa == fb, nil
		}
		return a == b, nil
	case BuiltinNEQ:
		if numeric {
			return fa != fb, nil
		}
		return a != b, nil
	}
	if !numeric {
		return false, fmt.Errorf("datalog: built-in %s requires numeric arguments, got %q and %q", pred, a, b)
	}
	switch pred {
	case BuiltinLT:
		return fa < fb, nil
	case BuiltinLE:
		return fa <= fb, nil
	case BuiltinGT:
		return fa > fb, nil
	case BuiltinGE:
		return fa >= fb, nil
	}
	return false, fmt.Errorf("datalog: unknown built-in %q", pred)
}

// Program is a set of rules and base facts. Build one, then Eval it into a
// Database to query.
type Program struct {
	rules []Rule
	facts []Fact
}

// NewProgram returns an empty program.
func NewProgram() *Program { return &Program{} }

// AddRule appends a rule after safety validation.
func (p *Program) AddRule(r Rule) error {
	if err := r.validate(); err != nil {
		return err
	}
	if len(r.Body) == 0 && !r.Head.ground() {
		return fmt.Errorf("datalog: bodiless rule %s must be ground", r)
	}
	p.rules = append(p.rules, r)
	return nil
}

// MustAddRule is AddRule, panicking on error.
func (p *Program) MustAddRule(r Rule) {
	if err := p.AddRule(r); err != nil {
		panic(err)
	}
}

// AddFact appends a base fact.
func (p *Program) AddFact(f Fact) { p.facts = append(p.facts, f) }

// Rules returns the program's rules.
func (p *Program) Rules() []Rule { return p.rules }

// stratify assigns each derived predicate a stratum such that positive
// dependencies stay within or below the stratum and negative dependencies
// point strictly below. It returns the rules grouped per stratum, or an
// error on negation cycles.
func (p *Program) stratify() ([][]Rule, error) {
	stratum := make(map[string]int)
	preds := make(map[string]bool)
	for _, r := range p.rules {
		preds[r.Head.Pred] = true
	}
	for pred := range preds {
		stratum[pred] = 0
	}
	maxIter := len(preds)*len(preds) + len(p.rules) + 2
	changed := true
	for iter := 0; changed; iter++ {
		if iter > maxIter {
			return nil, fmt.Errorf("datalog: program is not stratifiable (negation through recursion)")
		}
		changed = false
		for _, r := range p.rules {
			h := stratum[r.Head.Pred]
			for _, l := range r.Body {
				if isBuiltin(l.Pred) || !preds[l.Pred] {
					continue
				}
				b := stratum[l.Pred]
				want := b
				if l.Negated {
					want = b + 1
				}
				if h < want {
					stratum[r.Head.Pred] = want
					h = want
					changed = true
				}
			}
		}
	}
	maxS := 0
	for _, s := range stratum {
		if s > maxS {
			maxS = s
		}
	}
	out := make([][]Rule, maxS+1)
	for _, r := range p.rules {
		s := stratum[r.Head.Pred]
		out[s] = append(out[s], r)
	}
	return out, nil
}

// Database is the fixpoint of a program: every derivable fact, indexed by
// predicate.
type Database struct {
	byPred map[string][]Fact
	keys   map[string]bool
}

func newDatabase() *Database {
	return &Database{byPred: make(map[string][]Fact), keys: make(map[string]bool)}
}

func (db *Database) insert(f Fact) bool {
	k := f.key()
	if db.keys[k] {
		return false
	}
	db.keys[k] = true
	db.byPred[f.Pred] = append(db.byPred[f.Pred], f)
	return true
}

// Contains reports whether the exact ground fact holds.
func (db *Database) Contains(f Fact) bool { return db.keys[f.key()] }

// Facts returns all facts for a predicate.
func (db *Database) Facts(pred string) []Fact { return db.byPred[pred] }

// Size returns the total number of facts.
func (db *Database) Size() int { return len(db.keys) }

// Query unifies a goal atom against the database and returns one Bindings
// per answer, sorted deterministically. Constant arguments filter; variable
// arguments bind (repeated variables must agree).
func (db *Database) Query(goal Atom) []Bindings {
	var out []Bindings
	for _, f := range db.byPred[goal.Pred] {
		if len(f.Args) != len(goal.Args) {
			continue
		}
		b := make(Bindings)
		ok := true
		for i, t := range goal.Args {
			if t.Var {
				if prev, bound := b[t.Name]; bound {
					if prev != f.Args[i] {
						ok = false
						break
					}
				} else {
					b[t.Name] = f.Args[i]
				}
			} else if t.Name != f.Args[i] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return bindingsLess(out[i], out[j]) })
	return out
}

func bindingsLess(a, b Bindings) bool {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// Eval computes the program's unique stable model (stratified semantics)
// and returns the resulting database.
func (p *Program) Eval() (*Database, error) {
	strata, err := p.stratify()
	if err != nil {
		return nil, err
	}
	db := newDatabase()
	for _, f := range p.facts {
		db.insert(f)
	}
	for _, rules := range strata {
		if err := evalStratum(db, rules); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// evalStratum runs semi-naive iteration over one stratum's rules until no
// new facts appear. Negated literals refer only to lower strata (or base
// facts), which are already complete, so negation-as-failure is sound here.
func evalStratum(db *Database, rules []Rule) error {
	// delta holds the facts added in the previous round, per predicate.
	delta := make(map[string][]Fact)
	for pred, fs := range db.byPred {
		delta[pred] = fs
	}
	first := true
	for {
		var added []Fact
		for _, r := range rules {
			fresh, err := applyRule(db, r, delta, first)
			if err != nil {
				return err
			}
			for _, f := range fresh {
				if db.insert(f) {
					added = append(added, f)
				}
			}
		}
		first = false
		if len(added) == 0 {
			return nil
		}
		delta = make(map[string][]Fact)
		for _, f := range added {
			delta[f.Pred] = append(delta[f.Pred], f)
		}
	}
}

// applyRule evaluates one rule. In semi-naive mode (after the first round)
// at least one positive literal must match a delta fact; we run one pass
// per positive literal pinned to the delta relation.
func applyRule(db *Database, r Rule, delta map[string][]Fact, first bool) ([]Fact, error) {
	positives := positiveIdx(r)
	if first || len(positives) == 0 {
		return joinBody(db, r, -1, nil)
	}
	var out []Fact
	for _, pin := range positives {
		if len(delta[r.Body[pin].Pred]) == 0 {
			continue
		}
		fs, err := joinBody(db, r, pin, delta)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	return out, nil
}

func positiveIdx(r Rule) []int {
	var out []int
	for i, l := range r.Body {
		if !l.Negated && !isBuiltin(l.Pred) {
			out = append(out, i)
		}
	}
	return out
}

// joinBody enumerates all bindings satisfying the body (literal pin, if
// >= 0, is matched against delta instead of the full database) and returns
// the instantiated heads.
func joinBody(db *Database, r Rule, pin int, delta map[string][]Fact) ([]Fact, error) {
	var out []Fact
	var walk func(i int, env Bindings) error
	walk = func(i int, env Bindings) error {
		if i == len(r.Body) {
			head, err := substituteAtom(r.Head, env)
			if err != nil {
				return err
			}
			out = append(out, head)
			return nil
		}
		l := r.Body[i]
		if isBuiltin(l.Pred) {
			if len(l.Args) != 2 {
				return fmt.Errorf("datalog: built-in %s takes 2 arguments", l.Pred)
			}
			a, err := resolve(l.Args[0], env)
			if err != nil {
				return err
			}
			b, err := resolve(l.Args[1], env)
			if err != nil {
				return err
			}
			ok, err := evalBuiltin(l.Pred, a, b)
			if err != nil {
				return err
			}
			want := !l.Negated
			if ok == want {
				return walk(i+1, env)
			}
			return nil
		}
		if l.Negated {
			f, err := substituteAtom(l.Atom, env)
			if err != nil {
				return err
			}
			if !db.Contains(f) {
				return walk(i+1, env)
			}
			return nil
		}
		source := db.byPred[l.Pred]
		if i == pin {
			source = delta[l.Pred]
		}
		for _, f := range source {
			if len(f.Args) != len(l.Args) {
				continue
			}
			newEnv, ok := unify(l.Args, f.Args, env)
			if !ok {
				continue
			}
			if err := walk(i+1, newEnv); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0, Bindings{}); err != nil {
		return nil, err
	}
	return out, nil
}

func unify(pattern []Term, args []string, env Bindings) (Bindings, bool) {
	var extended Bindings
	get := func(k string) (string, bool) {
		if extended != nil {
			if v, ok := extended[k]; ok {
				return v, true
			}
		}
		v, ok := env[k]
		return v, ok
	}
	for i, t := range pattern {
		if !t.Var {
			if t.Name != args[i] {
				return nil, false
			}
			continue
		}
		if v, ok := get(t.Name); ok {
			if v != args[i] {
				return nil, false
			}
			continue
		}
		if extended == nil {
			extended = make(Bindings, len(env)+len(pattern))
			for k, v := range env {
				extended[k] = v
			}
		}
		extended[t.Name] = args[i]
	}
	if extended == nil {
		return env, true
	}
	return extended, true
}

func resolve(t Term, env Bindings) (string, error) {
	if !t.Var {
		return t.Name, nil
	}
	v, ok := env[t.Name]
	if !ok {
		return "", fmt.Errorf("datalog: unbound variable ?%s", t.Name)
	}
	return v, nil
}

func substituteAtom(a Atom, env Bindings) (Fact, error) {
	args := make([]string, len(a.Args))
	for i, t := range a.Args {
		v, err := resolve(t, env)
		if err != nil {
			return Fact{}, fmt.Errorf("%w in %s", err, a)
		}
		args[i] = v
	}
	return Fact{Pred: a.Pred, Args: args}, nil
}
