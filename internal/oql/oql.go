// Package oql implements the relational subset of OQL (the ODMG Object
// Query Language) that the paper's Section 2.3 uses to motivate syntactic
// brokering: "one agent expects its input in SQL, while the other expects
// its input in a relational subset of OQL. In this case, the semantics are
// not sufficient to distinguish which agent to select."
//
// Queries translate into the same relational algebra as the SQL front-end
// (a sqlparse.Select), so an OQL resource agent and an SQL resource agent
// can be semantically identical while differing only in content language —
// exactly the situation the broker's combined syntactic + semantic
// matching resolves.
//
// Supported grammar (keywords case-insensitive):
//
//	query   := "select" proj "from" range { "," range }
//	           [ "where" cond { "and" cond } ]
//	           [ "order" "by" path [ "desc" | "asc" ] ]
//	proj    := "*" | var | item { "," item }
//	item    := path | agg "(" path ")" | "count" "(" "*" ")"
//	range   := var "in" Class
//	cond    := path op operand | path "between" literal "and" literal
//	path    := var "." attr
//	operand := path | literal
//
// Example:
//
//	select p.patient_id, p.patient_age
//	from p in patient
//	where p.patient_age between 25 and 65
package oql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"infosleuth/internal/constraint"
	"infosleuth/internal/sqlparse"
)

// Parse translates an OQL query into the equivalent relational statement.
func Parse(input string) (*sqlparse.Select, error) {
	p := &parser{toks: lex(input), src: input}
	sel, err := p.query()
	if err != nil {
		return nil, fmt.Errorf("oql: parsing %q: %w", input, err)
	}
	if !p.eof() {
		return nil, fmt.Errorf("oql: parsing %q: unexpected trailing %q", input, p.peek())
	}
	return sel, nil
}

// MustParse is Parse, panicking on error; for tests.
func MustParse(input string) *sqlparse.Select {
	s, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return s
}

type token struct {
	kind string // ident, number, string, punct
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
		case c == ',' || c == '.' || c == '*' || c == '(' || c == ')':
			toks = append(toks, token{"punct", string(c)})
			i++
		case c == '=' || c == '<' || c == '>' || c == '!':
			j := i + 1
			if j < len(s) && (s[j] == '=' || (c == '<' && s[j] == '>')) {
				j++
			}
			toks = append(toks, token{"punct", s[i:j]})
			i = j
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			for j < len(s) && s[j] != quote {
				j++
			}
			toks = append(toks, token{"string", s[i+1 : j]})
			if j < len(s) {
				j++
			}
			i = j
		case unicode.IsDigit(rune(c)) || (c == '-' && i+1 < len(s) && unicode.IsDigit(rune(s[i+1]))):
			j := i + 1
			for j < len(s) && (unicode.IsDigit(rune(s[j])) || s[j] == '.') {
				j++
			}
			toks = append(toks, token{"number", s[i:j]})
			i = j
		default:
			j := i
			for j < len(s) && sqlparse.IsIdentByte(s[j]) {
				j++
			}
			if j == i {
				toks = append(toks, token{"punct", string(c)})
				i++
				continue
			}
			toks = append(toks, token{"ident", s[i:j]})
			i = j
		}
	}
	return toks
}

type parser struct {
	toks []token
	pos  int
	src  string
	// vars maps range variables to class names.
	vars map[string]string
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() string {
	if p.eof() {
		return "<eof>"
	}
	return p.toks[p.pos].text
}

func (p *parser) acceptKw(kw string) bool {
	if !p.eof() && p.toks[p.pos].kind == "ident" && strings.EqualFold(p.toks[p.pos].text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptPunct(punct string) bool {
	if !p.eof() && p.toks[p.pos].kind == "punct" && p.toks[p.pos].text == punct {
		p.pos++
		return true
	}
	return false
}

func (p *parser) ident() (string, error) {
	if p.eof() || p.toks[p.pos].kind != "ident" {
		return "", fmt.Errorf("expected an identifier, got %q", p.peek())
	}
	t := p.toks[p.pos].text
	if sqlparse.Reserved(t) {
		// The translation renders as SQL, where the word is a keyword.
		return "", fmt.Errorf("expected an identifier, got reserved word %q", t)
	}
	p.pos++
	return t, nil
}

var oqlAggs = map[string]string{"count": "COUNT", "sum": "SUM", "avg": "AVG", "min": "MIN", "max": "MAX"}

// query parses the whole statement. The projection is parsed first but
// resolved after the FROM clause binds the range variables.
func (p *parser) query() (*sqlparse.Select, error) {
	if !p.acceptKw("select") {
		return nil, fmt.Errorf("expected select, got %q", p.peek())
	}
	// Capture the projection tokens; resolve after FROM.
	projStart := p.pos
	depth := 0
	for !p.eof() {
		t := p.toks[p.pos]
		if t.kind == "punct" && t.text == "(" {
			depth++
		}
		if t.kind == "punct" && t.text == ")" {
			depth--
		}
		if depth == 0 && t.kind == "ident" && strings.EqualFold(t.text, "from") {
			break
		}
		p.pos++
	}
	projEnd := p.pos
	if !p.acceptKw("from") {
		return nil, fmt.Errorf("expected from, got %q", p.peek())
	}

	// Ranges: var in Class.
	sel := &sqlparse.Select{}
	p.vars = make(map[string]string)
	for {
		v, err := p.ident()
		if err != nil {
			return nil, err
		}
		if !p.acceptKw("in") {
			return nil, fmt.Errorf("expected 'in' after range variable %s", v)
		}
		class, err := p.ident()
		if err != nil {
			return nil, err
		}
		lv := strings.ToLower(v)
		if _, dup := p.vars[lv]; dup {
			return nil, fmt.Errorf("duplicate range variable %s", v)
		}
		p.vars[lv] = class
		sel.From = append(sel.From, sqlparse.TableRef{Name: class, Alias: v})
		if !p.acceptPunct(",") {
			break
		}
	}

	// Now resolve the projection.
	if err := p.resolveProjection(sel, projStart, projEnd); err != nil {
		return nil, err
	}

	if p.acceptKw("where") {
		for {
			cond, err := p.cond()
			if err != nil {
				return nil, err
			}
			sel.Where = append(sel.Where, cond)
			if !p.acceptKw("and") {
				break
			}
		}
	}
	if p.acceptKw("order") {
		if !p.acceptKw("by") {
			return nil, fmt.Errorf("expected 'by' after order")
		}
		cr, err := p.path()
		if err != nil {
			return nil, err
		}
		sel.OrderBy = cr.Column
		if p.acceptKw("desc") {
			sel.OrderDesc = true
		} else {
			p.acceptKw("asc")
		}
	}
	return sel, nil
}

// resolveProjection re-parses the captured projection tokens with the
// range variables bound.
func (p *parser) resolveProjection(sel *sqlparse.Select, start, end int) error {
	sub := &parser{toks: p.toks[start:end], vars: p.vars}
	if sub.eof() {
		return fmt.Errorf("empty projection")
	}
	if sub.acceptPunct("*") {
		if !sub.eof() {
			return fmt.Errorf("unexpected %q after *", sub.peek())
		}
		sel.Star = true
		return nil
	}
	for {
		if sub.eof() {
			return fmt.Errorf("truncated projection")
		}
		t := sub.toks[sub.pos]
		// Aggregate call?
		if t.kind == "ident" {
			if fn, isAgg := oqlAggs[strings.ToLower(t.text)]; isAgg &&
				sub.pos+1 < len(sub.toks) && sub.toks[sub.pos+1].kind == "punct" && sub.toks[sub.pos+1].text == "(" {
				sub.pos += 2
				agg := sqlparse.Aggregate{Func: fn}
				if sub.acceptPunct("*") {
					if fn != "COUNT" {
						return fmt.Errorf("%s(*) is not supported", fn)
					}
					agg.Star = true
				} else {
					cr, err := sub.path()
					if err != nil {
						return err
					}
					agg.Arg = cr
				}
				if !sub.acceptPunct(")") {
					return fmt.Errorf("expected ')' closing %s", fn)
				}
				sel.Aggs = append(sel.Aggs, agg)
				if sub.acceptPunct(",") {
					continue
				}
				break
			}
		}
		// Bare range variable: all of that object's attributes.
		if t.kind == "ident" {
			lv := strings.ToLower(t.text)
			if _, isVar := p.vars[lv]; isVar &&
				(sub.pos+1 >= len(sub.toks) || sub.toks[sub.pos+1].text != ".") {
				if len(p.vars) > 1 {
					return fmt.Errorf("bare object projection %q requires a single range variable", t.text)
				}
				sub.pos++
				sel.Star = true
				if sub.acceptPunct(",") {
					return fmt.Errorf("cannot mix object projection with other items")
				}
				break
			}
		}
		cr, err := sub.path()
		if err != nil {
			return err
		}
		sel.Columns = append(sel.Columns, cr)
		if sub.acceptPunct(",") {
			continue
		}
		break
	}
	if !sub.eof() {
		return fmt.Errorf("unexpected %q in projection", sub.peek())
	}
	if len(sel.Aggs) > 0 && len(sel.Columns) > 0 {
		return fmt.Errorf("mixing attributes and aggregates requires group by, which this OQL subset omits")
	}
	return nil
}

// path parses var.attr into an alias-qualified column reference.
func (p *parser) path() (sqlparse.ColRef, error) {
	v, err := p.ident()
	if err != nil {
		return sqlparse.ColRef{}, err
	}
	if _, ok := p.vars[strings.ToLower(v)]; !ok {
		return sqlparse.ColRef{}, fmt.Errorf("unknown range variable %q", v)
	}
	if !p.acceptPunct(".") {
		return sqlparse.ColRef{}, fmt.Errorf("expected '.' after range variable %s", v)
	}
	attr, err := p.ident()
	if err != nil {
		return sqlparse.ColRef{}, err
	}
	return sqlparse.ColRef{Table: v, Column: attr}, nil
}

func (p *parser) cond() (sqlparse.Cond, error) {
	left, err := p.path()
	if err != nil {
		return sqlparse.Cond{}, err
	}
	if p.acceptKw("between") {
		lo, err := p.literal()
		if err != nil {
			return sqlparse.Cond{}, err
		}
		if !p.acceptKw("and") {
			return sqlparse.Cond{}, fmt.Errorf("expected 'and' in between")
		}
		hi, err := p.literal()
		if err != nil {
			return sqlparse.Cond{}, err
		}
		return sqlparse.Cond{Left: left, Between: true, RightVal: lo, HighVal: hi}, nil
	}
	if p.eof() || p.toks[p.pos].kind != "punct" {
		return sqlparse.Cond{}, fmt.Errorf("expected an operator after %s", left)
	}
	var op sqlparse.CompareOp
	switch p.toks[p.pos].text {
	case "=":
		op = sqlparse.OpEq
	case "!=", "<>":
		op = sqlparse.OpNe
	case "<":
		op = sqlparse.OpLt
	case "<=":
		op = sqlparse.OpLe
	case ">":
		op = sqlparse.OpGt
	case ">=":
		op = sqlparse.OpGe
	default:
		return sqlparse.Cond{}, fmt.Errorf("unsupported operator %q", p.toks[p.pos].text)
	}
	p.pos++
	if p.eof() {
		return sqlparse.Cond{}, fmt.Errorf("expected an operand after %s %s", left, op)
	}
	switch p.toks[p.pos].kind {
	case "number", "string":
		v, err := p.literal()
		if err != nil {
			return sqlparse.Cond{}, err
		}
		return sqlparse.Cond{Left: left, Op: op, RightVal: v}, nil
	case "ident":
		right, err := p.path()
		if err != nil {
			return sqlparse.Cond{}, err
		}
		return sqlparse.Cond{Left: left, Op: op, RightIsCol: true, RightCol: right}, nil
	default:
		return sqlparse.Cond{}, fmt.Errorf("expected an operand, got %q", p.peek())
	}
}

func (p *parser) literal() (constraint.Value, error) {
	if p.eof() {
		return constraint.Value{}, fmt.Errorf("expected a literal")
	}
	t := p.toks[p.pos]
	switch t.kind {
	case "number":
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return constraint.Value{}, fmt.Errorf("bad number %q", t.text)
		}
		p.pos++
		return constraint.Num(f), nil
	case "string":
		p.pos++
		return constraint.Str(t.text), nil
	default:
		return constraint.Value{}, fmt.Errorf("expected a literal, got %q", t.text)
	}
}
