package constraint

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads a conjunction of atomic constraints in the paper's textual
// form and returns the corresponding Set. The grammar (case-insensitive
// keywords):
//
//	expr    := term { "AND" term }
//	term    := "(" expr ")" | atom | "true"
//	atom    := field "between" value "and" value
//	         | field op value
//	         | field "in" "(" [ value { "," value } ] ")"
//	op      := "=" | "!=" is not supported | "<" | "<=" | ">" | ">="
//	field   := ident { "." ident }   -- e.g. patient.age, diagnosis_code
//	value   := number | 'string' | "string" | bareword
//
// Examples accepted verbatim from the paper:
//
//	patient age between 43 and 75
//	(patient age between 25 and 65) AND (patient.diagnosis code = '40W')
//
// Spaces inside field names (an artifact of the paper's prose) are folded
// into separators: "patient age" parses as field "patient.age".
func Parse(input string) (*Set, error) {
	p := &parser{toks: lex(input)}
	set := &Set{}
	if err := p.expr(set); err != nil {
		return nil, fmt.Errorf("constraint: parsing %q: %w", input, err)
	}
	if !p.eof() {
		return nil, fmt.Errorf("constraint: parsing %q: unexpected trailing %q", input, p.peek())
	}
	return set, nil
}

// MustParse is Parse, panicking on error; for tests and static tables.
func MustParse(input string) *Set {
	s, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return s
}

type tokKind int

const (
	tokIdent tokKind = iota
	tokNumber
	tokString
	tokOp // = < <= > >=
	tokLParen
	tokRParen
	tokComma
)

type token struct {
	kind tokKind
	text string
}

func lex(s string) []token {
	var toks []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "("})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")"})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ","})
			i++
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			for j < len(s) && s[j] != quote {
				j++
			}
			// An unterminated string takes the rest of the input; the
			// parser surfaces errors on structure, not lexing.
			end := j
			toks = append(toks, token{tokString, s[i+1 : end]})
			if j < len(s) {
				j++
			}
			i = j
		case c == '=' || c == '<' || c == '>':
			j := i + 1
			if j < len(s) && s[j] == '=' {
				j++
			}
			toks = append(toks, token{tokOp, s[i:j]})
			i = j
		case c == '-' || c == '+' || unicode.IsDigit(rune(c)):
			j := i + 1
			for j < len(s) && (unicode.IsDigit(rune(s[j])) || s[j] == '.' || s[j] == 'e' || s[j] == 'E' ||
				((s[j] == '-' || s[j] == '+') && (s[j-1] == 'e' || s[j-1] == 'E'))) {
				j++
			}
			// A digit run flowing into letters is a bareword like 40W,
			// not a number followed by an identifier.
			if j < len(s) && (unicode.IsLetter(rune(s[j])) || s[j] == '_') {
				for j < len(s) && identByte(s[j]) {
					j++
				}
				toks = append(toks, token{tokIdent, s[i:j]})
			} else {
				toks = append(toks, token{tokNumber, s[i:j]})
			}
			i = j
		default:
			j := i
			for j < len(s) && identByte(s[j]) {
				j++
			}
			if j == i { // unknown byte; skip to avoid an infinite loop
				i++
				continue
			}
			toks = append(toks, token{tokIdent, s[i:j]})
			i = j
		}
	}
	return toks
}

// identByte reports whether c continues an identifier or bareword,
// however it began.
func identByte(c byte) bool {
	return unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_' || c == '.' || c == '-'
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() string {
	if p.eof() {
		return ""
	}
	return p.toks[p.pos].text
}

func (p *parser) next() (token, error) {
	if p.eof() {
		return token{}, fmt.Errorf("unexpected end of input")
	}
	t := p.toks[p.pos]
	p.pos++
	return t, nil
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.eof() {
		return false
	}
	t := p.toks[p.pos]
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expr(set *Set) error {
	if err := p.term(set); err != nil {
		return err
	}
	for p.acceptKeyword("and") {
		if err := p.term(set); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) term(set *Set) error {
	if p.eof() {
		return fmt.Errorf("expected a constraint, got end of input")
	}
	if p.toks[p.pos].kind == tokLParen {
		p.pos++
		if err := p.expr(set); err != nil {
			return err
		}
		t, err := p.next()
		if err != nil {
			return err
		}
		if t.kind != tokRParen {
			return fmt.Errorf("expected ')', got %q", t.text)
		}
		return nil
	}
	return p.atom(set)
}

func (p *parser) atom(set *Set) error {
	if p.acceptKeyword("true") {
		return nil
	}
	// Field: one or more identifiers; interior identifiers fold into a
	// dotted path so "patient age" means "patient.age".
	// Space-separated parts fold into the path: "patient age" means
	// "patient.age", while "patient.diagnosis code" means
	// "patient.diagnosis_code" (the space extends the slot name once a
	// class qualifier is present).
	var field string
	for !p.eof() && p.toks[p.pos].kind == tokIdent &&
		!isKeyword(p.toks[p.pos].text, "between", "in", "and") {
		part := p.toks[p.pos].text
		p.pos++
		switch {
		case field == "":
			field = part
		case strings.Contains(field, "."):
			field += "_" + part
		default:
			field += "." + part
		}
	}
	if field == "" {
		return fmt.Errorf("expected a field name, got %q", p.peek())
	}
	field = normalizeField(field)
	if !plainField(field) {
		return fmt.Errorf("field %q: a field name holds ASCII letters, digits, '_' and '.'", field)
	}

	switch {
	case p.acceptKeyword("between"):
		lo, err := p.numberValue()
		if err != nil {
			return err
		}
		if !p.acceptKeyword("and") {
			return fmt.Errorf("expected 'and' in between-constraint on %s", field)
		}
		hi, err := p.numberValue()
		if err != nil {
			return err
		}
		set.Add(Atom{Field: field, Interval: NewRange(lo, hi)})
		return nil
	case p.acceptKeyword("in"):
		t, err := p.next()
		if err != nil {
			return err
		}
		if t.kind != tokLParen {
			return fmt.Errorf("expected '(' after 'in', got %q", t.text)
		}
		// "in ()" is the empty list, which admits nothing: how an atom
		// intersected down to no value renders.
		if !p.eof() && p.toks[p.pos].kind == tokRParen {
			p.pos++
			set.Add(Atom{Field: field, Allowed: []Value{}})
			return nil
		}
		var vals []Value
		for {
			v, err := p.value()
			if err != nil {
				return err
			}
			vals = append(vals, v)
			t, err := p.next()
			if err != nil {
				return err
			}
			if t.kind == tokRParen {
				break
			}
			if t.kind != tokComma {
				return fmt.Errorf("expected ',' or ')' in value list, got %q", t.text)
			}
		}
		set.Add(Atom{Field: field, Allowed: vals})
		return nil
	default:
		t, err := p.next()
		if err != nil {
			return fmt.Errorf("expected an operator after %s: %w", field, err)
		}
		if t.kind != tokOp {
			return fmt.Errorf("expected an operator after %s, got %q", field, t.text)
		}
		v, err := p.value()
		if err != nil {
			return err
		}
		switch t.text {
		case "=":
			if v.Kind() == KindNumber {
				set.Add(Atom{Field: field, Interval: Exactly(v.Number())})
			} else {
				set.Add(Atom{Field: field, Allowed: []Value{v}})
			}
		case "<", "<=", ">", ">=":
			if v.Kind() != KindNumber {
				return fmt.Errorf("operator %q on %s requires a number, got %s", t.text, field, v)
			}
			switch t.text {
			case "<":
				set.Add(Atom{Field: field, Interval: LessThan(v.Number())})
			case "<=":
				set.Add(Atom{Field: field, Interval: AtMost(v.Number())})
			case ">":
				set.Add(Atom{Field: field, Interval: GreaterThan(v.Number())})
			case ">=":
				set.Add(Atom{Field: field, Interval: AtLeast(v.Number())})
			}
		default:
			return fmt.Errorf("unsupported operator %q", t.text)
		}
		return nil
	}
}

func (p *parser) value() (Value, error) {
	t, err := p.next()
	if err != nil {
		return Value{}, err
	}
	switch t.kind {
	case tokNumber:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bad number %q: %w", t.text, err)
		}
		return Num(f), nil
	case tokString:
		return Str(t.text), nil
	case tokIdent:
		// Barewords like 40W are treated as strings.
		return Str(t.text), nil
	default:
		return Value{}, fmt.Errorf("expected a value, got %q", t.text)
	}
}

func (p *parser) numberValue() (float64, error) {
	v, err := p.value()
	if err != nil {
		return 0, err
	}
	if v.Kind() != KindNumber {
		return 0, fmt.Errorf("expected a number, got %s", v)
	}
	return v.Number(), nil
}

func isKeyword(s string, kws ...string) bool {
	for _, kw := range kws {
		if strings.EqualFold(s, kw) {
			return true
		}
	}
	return false
}

// normalizeField lower-cases a field path and collapses the paper's
// space/underscore variants so "patient.diagnosis code" and
// "patient.diagnosis_code" name the same slot.
func normalizeField(f string) string {
	f = strings.ToLower(f)
	f = strings.ReplaceAll(f, "-", "_")
	return f
}

// plainField reports whether a normalized field name reads back as itself
// when rendered: a '+' or a non-ASCII byte would lex apart.
func plainField(f string) bool {
	for i := 0; i < len(f); i++ {
		c := f[i]
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '.') {
			return false
		}
	}
	return true
}
