package sqlfe

import (
	"strings"

	"repro/internal/cq"
	"repro/internal/schema"
)

// colRef is a possibly-qualified column reference like g1.winner or winner.
type colRef struct {
	qualifier string // alias, "" if unqualified
	column    string
}

func (c colRef) String() string {
	if c.qualifier == "" {
		return c.column
	}
	return c.qualifier + "." + c.column
}

// operand is one side of a predicate: a column or a literal.
type operand struct {
	isCol bool
	col   colRef
	lit   string
}

type pred struct {
	left  colRef
	eq    bool // true for =, false for <>
	right operand
}

type fromItem struct {
	rel   string
	alias string
}

type selectStmt struct {
	star    bool
	columns []colRef
	from    []fromItem
	preds   []pred
}

// maxStatementBytes bounds accepted statement size. The grammar is fully
// iterative (no recursive descent, so no stack hazard), but the translator
// is quadratic in FROM-list length; a hard cap turns pathological generated
// input into a typed error instead of a resource sink.
const maxStatementBytes = 1 << 20

// checkSize rejects oversized statements with a typed syntax error.
func checkSize(sql string) error {
	if len(sql) > maxStatementBytes {
		return syntaxErrf(maxStatementBytes, "statement exceeds %d bytes", maxStatementBytes)
	}
	return nil
}

// Parse translates a SELECT statement into a conjunctive query with
// inequalities over the given schema. The resulting query is validated.
// Malformed input yields a typed *SyntaxError (matching ErrSyntax); a
// well-formed statement naming unknown tables or columns yields a semantic
// error that does not match ErrSyntax.
func Parse(s *schema.Schema, sql string) (*cq.Query, error) {
	if err := checkSize(sql); err != nil {
		return nil, err
	}
	stmt, err := parseSelect(sql)
	if err != nil {
		return nil, err
	}
	q, err := translate(s, stmt)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(s); err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	lex    *lexer
	peeked *token
}

func (p *parser) next() token {
	if p.peeked != nil {
		t := *p.peeked
		p.peeked = nil
		return t
	}
	return p.lex.next()
}

func (p *parser) peek() token {
	if p.peeked == nil {
		t := p.lex.next()
		p.peeked = &t
	}
	return *p.peeked
}

// errf returns the pending lexer error if any (it is more precise), otherwise
// a typed SyntaxError positioned at the current lexer offset.
func (p *parser) errf(format string, args ...interface{}) error {
	if p.lex.err != nil {
		return p.lex.err
	}
	return syntaxErrf(p.lex.pos, format, args...)
}

// keyword reports whether tok is the given (case-insensitive) keyword.
func keyword(tok token, kw string) bool {
	return tok.kind == tokIdent && strings.EqualFold(tok.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if p.lex.err != nil {
		return p.lex.err
	}
	if !keyword(t, kw) {
		return syntaxErrf(t.pos, "expected %s, got %s", kw, t)
	}
	return nil
}

func parseSelect(sql string) (*selectStmt, error) {
	p := &parser{lex: &lexer{input: sql}}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &selectStmt{}
	if keyword(p.peek(), "DISTINCT") {
		p.next() // evaluation has set semantics; DISTINCT is implied
	}
	// Select list.
	if p.peek().kind == tokStar {
		p.next()
		stmt.star = true
	} else {
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			stmt.columns = append(stmt.columns, c)
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	// FROM list.
	for {
		t := p.next()
		if t.kind != tokIdent {
			return nil, p.errf("expected table name, got %s", t)
		}
		item := fromItem{rel: t.text, alias: t.text}
		if keyword(p.peek(), "AS") {
			p.next()
		}
		if nt := p.peek(); nt.kind == tokIdent && !isKeyword(nt.text) {
			p.next()
			item.alias = nt.text
		}
		stmt.from = append(stmt.from, item)
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}
	// Optional WHERE.
	if keyword(p.peek(), "WHERE") {
		p.next()
		for {
			pr, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			stmt.preds = append(stmt.preds, pr)
			if !keyword(p.peek(), "AND") {
				break
			}
			p.next()
		}
	}
	if t := p.next(); t.kind != tokEOF {
		return nil, p.errf("unexpected trailing %s", t)
	}
	if p.lex.err != nil {
		return nil, p.lex.err
	}
	return stmt, nil
}

// isKeyword lists the reserved words a bare identifier cannot shadow. UNION,
// ALL, GROUP, and BY are included so a trailing "... UNION" is a syntax error
// rather than a table silently aliased as "UNION" — found by FuzzParseSQL:
// Parse accepted "SELECT name FROM Teams UNION" while ParseUnion rejected it.
func isKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "AS", "UNION", "ALL", "GROUP", "BY":
		return true
	}
	return false
}

func (p *parser) parseColRef() (colRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		return colRef{}, p.errf("expected column reference, got %s", t)
	}
	if p.peek().kind == tokDot {
		p.next()
		c := p.next()
		if c.kind != tokIdent {
			return colRef{}, p.errf("expected column after %s., got %s", t.text, c)
		}
		return colRef{qualifier: t.text, column: c.text}, nil
	}
	return colRef{column: t.text}, nil
}

func (p *parser) parsePred() (pred, error) {
	left, err := p.parseColRef()
	if err != nil {
		return pred{}, err
	}
	op := p.next()
	if op.kind != tokEq && op.kind != tokNeq {
		return pred{}, p.errf("expected = or <>, got %s", op)
	}
	rt := p.next()
	var right operand
	switch rt.kind {
	case tokIdent:
		if p.peek().kind == tokDot {
			p.next()
			c := p.next()
			if c.kind != tokIdent {
				return pred{}, p.errf("expected column after %s., got %s", rt.text, c)
			}
			right = operand{isCol: true, col: colRef{qualifier: rt.text, column: c.text}}
		} else {
			right = operand{isCol: true, col: colRef{column: rt.text}}
		}
	case tokString, tokNumber:
		right = operand{lit: rt.text}
	default:
		return pred{}, p.errf("expected column or literal, got %s", rt)
	}
	return pred{left: left, eq: op.kind == tokEq, right: right}, nil
}
