package sqlfe

import (
	"errors"
	"strings"

	"repro/internal/cq"
	"repro/internal/schema"
)

// ParseUnion translates one or more SELECT statements joined by UNION into a
// union of conjunctive queries (evaluation has set semantics, so UNION and
// UNION ALL coincide; the ALL keyword is accepted and ignored).
//
// A disjunct whose WHERE clause is contradictory (ErrAlwaysEmpty) contributes
// no answers and is dropped rather than failing the whole union; only a union
// of entirely unsatisfiable disjuncts is itself ErrAlwaysEmpty. (Found by the
// metamorphic union-permutation oracle: rejecting `Q UNION empty` while
// accepting Q made disjunct order observable.)
func ParseUnion(s *schema.Schema, sql string) (*cq.Union, error) {
	if err := checkSize(sql); err != nil {
		return nil, err
	}
	parts := splitUnion(sql)
	qs := make([]*cq.Query, 0, len(parts))
	var firstEmpty error
	for _, part := range parts {
		q, err := Parse(s, strings.TrimSpace(part))
		if err != nil {
			if errors.Is(err, ErrAlwaysEmpty) {
				if firstEmpty == nil {
					firstEmpty = err
				}
				continue
			}
			return nil, err
		}
		qs = append(qs, q)
	}
	if len(qs) == 0 {
		return nil, firstEmpty
	}
	return cq.NewUnion(qs...)
}

// splitUnion splits the statement on top-level UNION [ALL] keywords,
// respecting quoted strings.
func splitUnion(sql string) []string {
	var parts []string
	start := 0
	i := 0
	for i < len(sql) {
		c := sql[i]
		switch {
		case c == '\'' || c == '"':
			// Skip the quoted literal (SQL doubles quotes to escape).
			q := c
			i++
			for i < len(sql) {
				if sql[i] == q {
					if i+1 < len(sql) && sql[i+1] == q {
						i += 2
						continue
					}
					break
				}
				i++
			}
			i++
		case isWordBoundary(sql, i) && hasKeyword(sql[i:], "UNION"):
			parts = append(parts, sql[start:i])
			i += len("UNION")
			// Optional ALL.
			j := skipSpaces(sql, i)
			if hasKeyword(sql[j:], "ALL") && isWordBoundary(sql, j) {
				i = j + len("ALL")
			}
			start = i
		default:
			i++
		}
	}
	parts = append(parts, sql[start:])
	return parts
}

// hasKeyword reports whether s begins with the keyword (case-insensitive)
// followed by a non-identifier character or end of string.
func hasKeyword(s, kw string) bool {
	if len(s) < len(kw) || !strings.EqualFold(s[:len(kw)], kw) {
		return false
	}
	if len(s) == len(kw) {
		return true
	}
	c := s[len(kw)]
	return !(c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9'))
}

// isWordBoundary reports whether position i starts a new word.
func isWordBoundary(s string, i int) bool {
	if i == 0 {
		return true
	}
	c := s[i-1]
	return !(c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9'))
}

func skipSpaces(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	return i
}
