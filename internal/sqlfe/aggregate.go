package sqlfe

import (
	"fmt"
	"strings"

	"repro/internal/agg"
	"repro/internal/schema"
)

// ParseAggregate translates a single-aggregate GROUP BY SELECT into an
// aggregate query:
//
//	SELECT g.winner, COUNT(g.date) FROM Games g
//	WHERE g.stage = 'Final' GROUP BY g.winner
//
// Supported aggregate functions: COUNT, SUM, MIN, MAX (over the distinct
// values per group, matching the engine's set semantics). The non-aggregate
// select columns must match the GROUP BY list.
func ParseAggregate(s *schema.Schema, sql string) (*agg.Query, error) {
	if err := checkSize(sql); err != nil {
		return nil, err
	}
	stmt, spec, err := parseAggSelect(sql)
	if err != nil {
		return nil, err
	}
	// Build the body with the aggregated column appended to the head so its
	// term can be recovered, then strip it again.
	stmt.columns = append(stmt.columns, spec.col)
	body, err := translate(s, stmt)
	if err != nil {
		return nil, err
	}
	aggTerm := body.Head[len(body.Head)-1]
	body.Head = body.Head[:len(body.Head)-1]
	if !aggTerm.IsVar {
		return nil, fmt.Errorf("sqlfe: aggregated column %s is bound to the constant %q", spec.col, aggTerm.Name)
	}
	if err := body.Validate(s); err != nil {
		return nil, err
	}
	q, err := agg.New(spec.kind.String(), body, spec.kind, aggTerm.Name)
	if err != nil {
		return nil, err
	}
	return q, nil
}

type aggSpec struct {
	kind agg.Kind
	col  colRef
}

// aggKindOf maps a function name to its aggregate kind.
func aggKindOf(name string) (agg.Kind, bool) {
	switch strings.ToUpper(name) {
	case "COUNT":
		return agg.Count, true
	case "SUM":
		return agg.Sum, true
	case "MIN":
		return agg.Min, true
	case "MAX":
		return agg.Max, true
	}
	return 0, false
}

// parseAggSelect parses a SELECT with exactly one aggregate function and a
// GROUP BY clause matching the plain select columns.
func parseAggSelect(sql string) (*selectStmt, *aggSpec, error) {
	p := &parser{lex: &lexer{input: sql}}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, nil, err
	}
	if keyword(p.peek(), "DISTINCT") {
		p.next() // evaluation has set semantics; DISTINCT is implied
	}
	stmt := &selectStmt{}
	var spec *aggSpec
	for {
		t := p.next()
		if t.kind != tokIdent {
			return nil, nil, p.errf("expected column or aggregate, got %s", t)
		}
		if kind, ok := aggKindOf(t.text); ok && p.peek().kind == tokLParen {
			if spec != nil {
				return nil, nil, p.errf("multiple aggregate functions are not supported")
			}
			p.next() // (
			col, err := p.parseColRef()
			if err != nil {
				return nil, nil, err
			}
			if tok := p.next(); tok.kind != tokRParen {
				return nil, nil, p.errf("expected ')' after aggregate, got %s", tok)
			}
			spec = &aggSpec{kind: kind, col: col}
		} else {
			// Plain (possibly qualified) group-by column.
			c := colRef{column: t.text}
			if p.peek().kind == tokDot {
				p.next()
				ct := p.next()
				if ct.kind != tokIdent {
					return nil, nil, p.errf("expected column after %s., got %s", t.text, ct)
				}
				c = colRef{qualifier: t.text, column: ct.text}
			}
			stmt.columns = append(stmt.columns, c)
		}
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}
	if spec == nil {
		return nil, nil, p.errf("no aggregate function in select list (use Parse for plain queries)")
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, nil, err
	}
	for {
		t := p.next()
		if t.kind != tokIdent {
			return nil, nil, p.errf("expected table name, got %s", t)
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
	if keyword(p.peek(), "WHERE") {
		p.next()
		for {
			pr, err := p.parsePred()
			if err != nil {
				return nil, nil, err
			}
			stmt.preds = append(stmt.preds, pr)
			if !keyword(p.peek(), "AND") {
				break
			}
			p.next()
		}
	}
	if err := p.expectKeyword("GROUP"); err != nil {
		return nil, nil, err
	}
	if err := p.expectKeyword("BY"); err != nil {
		return nil, nil, err
	}
	var groupBy []colRef
	for {
		c, err := p.parseColRef()
		if err != nil {
			return nil, nil, err
		}
		groupBy = append(groupBy, c)
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}
	if t := p.next(); t.kind != tokEOF {
		return nil, nil, p.errf("unexpected trailing %s", t)
	}
	if p.lex.err != nil {
		return nil, nil, p.lex.err
	}
	// The GROUP BY list must match the plain select columns.
	if len(groupBy) != len(stmt.columns) {
		return nil, nil, syntaxErrf(-1, "GROUP BY lists %d columns, select list has %d non-aggregate columns",
			len(groupBy), len(stmt.columns))
	}
	for i, c := range stmt.columns {
		g := groupBy[i]
		if !strings.EqualFold(c.column, g.column) || !strings.EqualFold(c.qualifier, g.qualifier) {
			return nil, nil, syntaxErrf(-1, "select column %s does not match GROUP BY column %s", c, g)
		}
	}
	return stmt, spec, nil
}
