package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"infosleuth/internal/constraint"
)

// Parse reads a SELECT statement in the supported SQL 2.0 subset:
//
//	select  := "SELECT" cols "FROM" tables [ "WHERE" conds ]
//	           [ "UNION" select ] [ "ORDER" "BY" ident [ "DESC" ] ]
//	cols    := "*" | colref { "," colref }
//	tables  := tabref { "," tabref } { "JOIN" tabref "ON" cond }
//	conds   := cond { "AND" cond }
//	cond    := colref op operand | colref "BETWEEN" literal "AND" literal
//	         | colref "IN" "(" literal { "," literal } ")"
//	op      := "=" | "<>" | "!=" | "<" | "<=" | ">" | ">="
//	colref  := ident [ "." ident ]
//	tabref  := ident [ ident ]           -- optional alias
//	operand := colref | literal
//	literal := number | 'string'
//	number  := [ "-" ] digits [ "." digits ] [ ( "e" | "E" ) [ "+" | "-" ] digits ]
//
// ORDER BY applies to the whole (possibly UNIONed) statement and may only
// appear at the end.
func Parse(input string) (*Select, error) {
	p := &sqlParser{toks: sqlLex(input)}
	sel, err := p.selectStmt()
	if err != nil {
		return nil, fmt.Errorf("sql: parsing %q: %w", input, err)
	}
	// Optional trailing ORDER BY binds to the outermost select.
	if p.acceptKw("ORDER") {
		if !p.acceptKw("BY") {
			return nil, fmt.Errorf("sql: parsing %q: expected BY after ORDER", input)
		}
		col, err := p.ident()
		if err != nil {
			return nil, fmt.Errorf("sql: parsing %q: %w", input, err)
		}
		sel.OrderBy = col
		if p.acceptKw("DESC") {
			sel.OrderDesc = true
		} else {
			p.acceptKw("ASC")
		}
	}
	if !p.eof() {
		return nil, fmt.Errorf("sql: parsing %q: unexpected trailing %q", input, p.peekText())
	}
	return sel, nil
}

// MustParse is Parse, panicking on error; for tests and static workloads.
func MustParse(input string) *Select {
	s, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return s
}

type sqlTokKind int

const (
	sqlIdent sqlTokKind = iota
	sqlNumber
	sqlString
	sqlSymbol // , . * ( ) and comparison operators
)

type sqlToken struct {
	kind sqlTokKind
	text string
}

func sqlLex(s string) []sqlToken {
	var toks []sqlToken
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ',' || c == '.' || c == '*' || c == '(' || c == ')':
			toks = append(toks, sqlToken{sqlSymbol, string(c)})
			i++
		case c == '=':
			toks = append(toks, sqlToken{sqlSymbol, "="})
			i++
		case c == '<':
			if i+1 < len(s) && (s[i+1] == '=' || s[i+1] == '>') {
				toks = append(toks, sqlToken{sqlSymbol, s[i : i+2]})
				i += 2
			} else {
				toks = append(toks, sqlToken{sqlSymbol, "<"})
				i++
			}
		case c == '>':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, sqlToken{sqlSymbol, ">="})
				i += 2
			} else {
				toks = append(toks, sqlToken{sqlSymbol, ">"})
				i++
			}
		case c == '!':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, sqlToken{sqlSymbol, "<>"})
				i += 2
			} else {
				toks = append(toks, sqlToken{sqlSymbol, "!"})
				i++
			}
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			for j < len(s) && s[j] != quote {
				j++
			}
			toks = append(toks, sqlToken{sqlString, s[i+1 : j]})
			if j < len(s) {
				j++
			}
			i = j
		case unicode.IsDigit(rune(c)) || (c == '-' && i+1 < len(s) && unicode.IsDigit(rune(s[i+1]))):
			j := i + 1
			for j < len(s) && (unicode.IsDigit(rune(s[j])) || s[j] == '.') {
				j++
			}
			// An exponent as constraint.Value.String writes one (1e-05,
			// 1e+15); an e with no digits after it is left to lex as an
			// identifier.
			if j < len(s) && (s[j] == 'e' || s[j] == 'E') {
				k := j + 1
				if k < len(s) && (s[k] == '+' || s[k] == '-') {
					k++
				}
				for k < len(s) && unicode.IsDigit(rune(s[k])) {
					k++
					j = k
				}
			}
			toks = append(toks, sqlToken{sqlNumber, s[i:j]})
			i = j
		default:
			j := i
			for j < len(s) && IsIdentByte(s[j]) {
				j++
			}
			if j == i {
				toks = append(toks, sqlToken{sqlSymbol, string(c)})
				i++
				continue
			}
			toks = append(toks, sqlToken{sqlIdent, s[i:j]})
			i = j
		}
	}
	return toks
}

// IsIdentByte reports whether c may appear in an identifier: an ASCII
// letter, digit or underscore. Identifiers are ASCII so that lower-casing
// one, as pushdown and column matching do, yields an identifier again; a
// byte outside UTF-8 would lower-case to U+FFFD.
func IsIdentByte(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'z'
}

type sqlParser struct {
	toks []sqlToken
	pos  int
}

func (p *sqlParser) eof() bool { return p.pos >= len(p.toks) }

func (p *sqlParser) peekText() string {
	if p.eof() {
		return ""
	}
	return p.toks[p.pos].text
}

func (p *sqlParser) peekKw(kw string) bool {
	return !p.eof() && p.toks[p.pos].kind == sqlIdent && strings.EqualFold(p.toks[p.pos].text, kw)
}

func (p *sqlParser) acceptKw(kw string) bool {
	if p.peekKw(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return fmt.Errorf("expected %s, got %q", kw, p.peekText())
	}
	return nil
}

func (p *sqlParser) acceptSym(sym string) bool {
	if !p.eof() && p.toks[p.pos].kind == sqlSymbol && p.toks[p.pos].text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) ident() (string, error) {
	if p.eof() || p.toks[p.pos].kind != sqlIdent {
		return "", fmt.Errorf("expected an identifier, got %q", p.peekText())
	}
	t := p.toks[p.pos].text
	p.pos++
	return t, nil
}

var sqlReserved = map[string]bool{
	"select": true, "from": true, "where": true, "and": true, "union": true,
	"join": true, "on": true, "order": true, "by": true, "between": true, "group": true,
	"desc": true, "asc": true, "in": true,
}

// Reserved reports whether a word (in any case) is a keyword of the SQL
// subset, so it cannot name a table, alias or column in a statement that
// must parse back.
func Reserved(word string) bool { return sqlReserved[strings.ToLower(word)] }

func (p *sqlParser) selectStmt() (*Select, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	if p.acceptSym("*") {
		sel.Star = true
	} else {
		for {
			// An identifier followed by "(" is an aggregate function.
			if agg, ok, err := p.aggregate(); err != nil {
				return nil, err
			} else if ok {
				sel.Aggs = append(sel.Aggs, agg)
			} else {
				cr, err := p.colRef()
				if err != nil {
					return nil, err
				}
				sel.Columns = append(sel.Columns, cr)
			}
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	first, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	sel.From = append(sel.From, first)
	for {
		if p.acceptSym(",") {
			tr, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, tr)
			continue
		}
		if p.acceptKw("JOIN") {
			jt, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, jt)
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			cond, err := p.cond()
			if err != nil {
				return nil, err
			}
			sel.Where = append(sel.Where, cond)
			continue
		}
		break
	}
	if p.acceptKw("WHERE") {
		for {
			cond, err := p.cond()
			if err != nil {
				return nil, err
			}
			sel.Where = append(sel.Where, cond)
			if !p.acceptKw("AND") {
				break
			}
		}
	}
	if p.acceptKw("GROUP") {
		if !p.acceptKw("BY") {
			return nil, fmt.Errorf("expected BY after GROUP")
		}
		cr, err := p.colRef()
		if err != nil {
			return nil, err
		}
		sel.GroupBy = cr
	}
	if p.acceptKw("UNION") {
		next, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		sel.Union = next
	}
	if err := validateAggregates(sel); err != nil {
		return nil, err
	}
	return sel, nil
}

// aggregate parses FUNC(col) / COUNT(*) if present; ok is false when the
// next tokens are not an aggregate call.
func (p *sqlParser) aggregate() (Aggregate, bool, error) {
	if p.eof() || p.toks[p.pos].kind != sqlIdent {
		return Aggregate{}, false, nil
	}
	fn := strings.ToUpper(p.toks[p.pos].text)
	if !aggFuncs[fn] {
		return Aggregate{}, false, nil
	}
	// Only an aggregate if "(" follows the name.
	if p.pos+1 >= len(p.toks) || p.toks[p.pos+1].kind != sqlSymbol || p.toks[p.pos+1].text != "(" {
		return Aggregate{}, false, nil
	}
	p.pos += 2
	agg := Aggregate{Func: fn}
	if p.acceptSym("*") {
		if fn != "COUNT" {
			return Aggregate{}, false, fmt.Errorf("%s(*) is not supported; only COUNT(*)", fn)
		}
		agg.Star = true
	} else {
		cr, err := p.colRef()
		if err != nil {
			return Aggregate{}, false, err
		}
		agg.Arg = cr
	}
	if !p.acceptSym(")") {
		return Aggregate{}, false, fmt.Errorf("expected ')' closing %s", fn)
	}
	return agg, true, nil
}

func (p *sqlParser) colRef() (ColRef, error) {
	first, err := p.ident()
	if err != nil {
		return ColRef{}, err
	}
	if p.acceptSym(".") {
		second, err := p.ident()
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: first, Column: second}, nil
	}
	return ColRef{Column: first}, nil
}

func (p *sqlParser) tableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	if sqlReserved[strings.ToLower(name)] {
		return TableRef{}, fmt.Errorf("expected a table name, got keyword %q", name)
	}
	tr := TableRef{Name: name}
	// An alias is a following identifier that is not a reserved word.
	if !p.eof() && p.toks[p.pos].kind == sqlIdent && !sqlReserved[strings.ToLower(p.toks[p.pos].text)] {
		tr.Alias = p.toks[p.pos].text
		p.pos++
	}
	return tr, nil
}

func (p *sqlParser) cond() (Cond, error) {
	left, err := p.colRef()
	if err != nil {
		return Cond{}, err
	}
	if p.acceptKw("BETWEEN") {
		lo, err := p.literal()
		if err != nil {
			return Cond{}, err
		}
		if err := p.expectKw("AND"); err != nil {
			return Cond{}, fmt.Errorf("in BETWEEN: %w", err)
		}
		hi, err := p.literal()
		if err != nil {
			return Cond{}, err
		}
		return Cond{Left: left, Between: true, RightVal: lo, HighVal: hi}, nil
	}
	if p.acceptKw("IN") {
		if !p.acceptSym("(") {
			return Cond{}, fmt.Errorf("expected '(' after IN, got %q", p.peekText())
		}
		c := Cond{Left: left, In: true}
		for {
			v, err := p.literal()
			if err != nil {
				return Cond{}, fmt.Errorf("in IN list: %w", err)
			}
			c.InVals = append(c.InVals, v)
			if !p.acceptSym(",") {
				break
			}
		}
		if !p.acceptSym(")") {
			return Cond{}, fmt.Errorf("expected ')' closing IN list, got %q", p.peekText())
		}
		return c, nil
	}
	if p.eof() || p.toks[p.pos].kind != sqlSymbol {
		return Cond{}, fmt.Errorf("expected a comparison operator after %s, got %q", left, p.peekText())
	}
	opText := p.toks[p.pos].text
	var op CompareOp
	switch opText {
	case "=":
		op = OpEq
	case "<>":
		op = OpNe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	default:
		return Cond{}, fmt.Errorf("unsupported operator %q", opText)
	}
	p.pos++
	// Operand: literal or column reference.
	if p.eof() {
		return Cond{}, fmt.Errorf("expected an operand after %s %s", left, op)
	}
	switch p.toks[p.pos].kind {
	case sqlNumber, sqlString:
		v, err := p.literal()
		if err != nil {
			return Cond{}, err
		}
		return Cond{Left: left, Op: op, RightVal: v}, nil
	case sqlIdent:
		right, err := p.colRef()
		if err != nil {
			return Cond{}, err
		}
		return Cond{Left: left, Op: op, RightIsCol: true, RightCol: right}, nil
	default:
		return Cond{}, fmt.Errorf("expected an operand after %s %s, got %q", left, op, p.peekText())
	}
}

func (p *sqlParser) literal() (constraint.Value, error) {
	if p.eof() {
		return constraint.Value{}, fmt.Errorf("expected a literal, got end of input")
	}
	t := p.toks[p.pos]
	switch t.kind {
	case sqlNumber:
		f, perr := strconv.ParseFloat(t.text, 64)
		if perr != nil {
			return constraint.Value{}, fmt.Errorf("bad number %q: %v", t.text, perr)
		}
		p.pos++
		return constraint.Num(f), nil
	case sqlString:
		p.pos++
		return constraint.Str(t.text), nil
	default:
		return constraint.Value{}, fmt.Errorf("expected a literal, got %q", t.text)
	}
}
